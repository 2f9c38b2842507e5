"""FrogWild! — the paper's primary contribution."""

from .batched import (
    BatchedFrogWildResult,
    BatchedFrogWildRunner,
    BatchQuery,
    merge_shard_results,
    run_frogwild,
    run_frogwild_batch,
)
from .config import FrogWildConfig
from .erasures import (
    AtLeastOneOutEdge,
    ErasureModel,
    IndependentErasures,
    make_erasure_model,
)
from .estimator import PageRankEstimate, top_k_indices
from .frogwild import FrogWildResult
from .kernels import resolve_kernel
from .personalized import (
    run_personalized_frogwild,
    seed_distribution,
)

__all__ = [
    "BatchQuery",
    "BatchedFrogWildResult",
    "BatchedFrogWildRunner",
    "merge_shard_results",
    "run_frogwild_batch",
    "FrogWildConfig",
    "FrogWildResult",
    "run_frogwild",
    "run_personalized_frogwild",
    "seed_distribution",
    "PageRankEstimate",
    "top_k_indices",
    "ErasureModel",
    "IndependentErasures",
    "AtLeastOneOutEdge",
    "make_erasure_model",
    "resolve_kernel",
]
