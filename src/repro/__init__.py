"""FrogWild! — fast top-k PageRank approximation on graph engines.

Reproduction of Mitliagkas, Borokhovich, Dimakis & Caramanis,
*FrogWild! – Fast PageRank Approximations on Graph Engines*, VLDB 2015.

Quickstart::

    from repro import FrogWildConfig, run_frogwild, twitter_like
    from repro import exact_pagerank, normalized_mass_captured

    graph = twitter_like(n=5000)
    result = run_frogwild(graph, FrogWildConfig(num_frogs=20_000, ps=0.7))
    truth = exact_pagerank(graph)
    print(result.estimate.top_k(10))
    print(normalized_mass_captured(result.estimate.vector(), truth, k=100))

Subpackages: :mod:`repro.graph` (CSR graphs and generators),
:mod:`repro.cluster` (the simulated PowerGraph cluster),
:mod:`repro.engine` (cluster state, its bill and the ``ps`` sync patch),
:mod:`repro.core` (FrogWild itself), :mod:`repro.pagerank` (baselines),
:mod:`repro.metrics`, :mod:`repro.theory`,
:mod:`repro.experiments` (per-figure reproduction harness),
:mod:`repro.serving` (the batched/sharded top-k ranking service),
:mod:`repro.dynamic` (churn generation and tracking) and
:mod:`repro.live` (incremental ingress maintenance and epoch-swapped
serving of a churning graph).
"""

from .cluster import CostModel, MessageSizeModel
from .core import (
    BatchQuery,
    BatchedFrogWildResult,
    BatchedFrogWildRunner,
    FrogWildConfig,
    FrogWildResult,
    PageRankEstimate,
    run_frogwild,
    run_frogwild_batch,
    run_personalized_frogwild,
    seed_distribution,
    top_k_indices,
)
from .engine import build_cluster
from .errors import (
    ConfigError,
    EngineError,
    ExperimentError,
    GraphError,
    GraphFormatError,
    PartitionError,
    ReproError,
)
from .graph import (
    DiGraph,
    GraphBuilder,
    from_edges,
    livejournal_like,
    read_edge_list,
    twitter_like,
)
from .metrics import (
    exact_identification,
    mass_captured,
    normalized_mass_captured,
    optimal_mass,
)
from .pagerank import (
    exact_pagerank,
    graphlab_pagerank,
    monte_carlo_pagerank,
    sparsified_pagerank,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "DiGraph",
    "GraphBuilder",
    "from_edges",
    "twitter_like",
    "livejournal_like",
    "read_edge_list",
    "BatchQuery",
    "BatchedFrogWildResult",
    "BatchedFrogWildRunner",
    "FrogWildConfig",
    "FrogWildResult",
    "run_frogwild",
    "run_frogwild_batch",
    "run_personalized_frogwild",
    "seed_distribution",
    "PageRankEstimate",
    "top_k_indices",
    "build_cluster",
    "CostModel",
    "MessageSizeModel",
    "exact_pagerank",
    "graphlab_pagerank",
    "sparsified_pagerank",
    "monte_carlo_pagerank",
    "mass_captured",
    "optimal_mass",
    "normalized_mass_captured",
    "exact_identification",
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "PartitionError",
    "EngineError",
    "ConfigError",
    "ExperimentError",
]
