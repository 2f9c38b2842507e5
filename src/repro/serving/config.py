"""Typed construction config for :class:`~repro.serving.RankingService`.

``RankingService.__init__`` accreted well over a dozen keyword
arguments as the serving layer grew (backend layout, cache sizing,
admission, tracing, fail-soft policy, the graph store seam...).
:class:`ServiceConfig` is the typed consolidation: one frozen
dataclass carrying every construction knob, built once and handed to
:meth:`~repro.serving.RankingService.from_config`.

The old kwargs keep working — ``__init__`` normalizes them into the
same dataclass (exposed as ``service.service_config``), so the two
construction paths are one path with two spellings; the equivalence is
pinned by ``tests/test_service_config.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable

from ..core.kernels import resolve_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids cycles
    from ..cluster import CostModel, MessageSizeModel
    from ..core import FrogWildConfig
    from ..store import GraphStore
    from ..traffic.admission import AdmissionController
    from ..traffic.trace import QueryTracer
    from .backend import ExecutionBackend

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Every :class:`~repro.serving.RankingService` construction knob.

    Field semantics are documented on the service constructor; the
    dataclass only fixes their names, defaults and grouping.  Use
    :func:`dataclasses.replace` (or :meth:`evolve`) to derive variants
    and :meth:`to_kwargs` to feed the legacy kwargs path.  ``kernel``
    stays for caller compatibility; ``"fused"`` is its only value.
    """

    # Execution defaults
    config: "FrogWildConfig | None" = None
    num_machines: int = 16
    partitioner: str = "random"
    cost_model: "CostModel | None" = None
    size_model: "MessageSizeModel | None" = None
    seed: int | None = 0
    # Cluster layout
    backend: "ExecutionBackend | str | None" = None
    num_shards: int | None = 1
    kernel: str = "fused"
    on_shard_failure: str = "fail"
    # Storage tier
    store: "GraphStore | None" = None
    # Batching, caching, scheduling
    max_batch_size: int = 16
    cache_capacity: int = 256
    cache_ttl_s: float | None = None
    max_delay_s: float | None = None
    clock: Callable[[], float] | None = None
    generation: Callable[[], int] | None = None
    # Traffic integration
    admission: "AdmissionController | None" = field(
        default=None, repr=False
    )
    tracer: "QueryTracer | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        resolve_kernel(self.kernel)

    def to_kwargs(self) -> dict:
        """The equivalent keyword-argument mapping of this config.

        ``RankingService(graph, **cfg.to_kwargs())`` and
        ``RankingService.from_config(graph, cfg)`` build identical
        services — the mapping shim the one-release deprecation window
        of the kwargs path rides on.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def evolve(self, **changes) -> "ServiceConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return replace(self, **changes)
