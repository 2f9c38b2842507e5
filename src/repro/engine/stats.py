"""Per-run execution statistics.

:class:`RunReport` carries the quantities the paper's figures plot:
time per iteration (Fig. 1a), total time (1b), network bytes (1c) and
CPU seconds (1d), read off a :class:`~repro.engine.ClusterState`'s bill.
:class:`CostLedger` additionally attributes shared-execution costs to
the individual frog populations of a batched run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EngineError

__all__ = ["RunReport", "CostLedger"]


@dataclass
class CostLedger:
    """Per-population cost attribution inside a shared batched execution.

    The batched FrogWild runner charges the *physical* cluster once per
    superstep (summed over populations); each population additionally
    tallies the CPU ops, network records and per-pair messages it alone
    caused.  :meth:`standalone_network_bytes` prices those records as if
    the population had run by itself — per-message headers included — so
    ``sum(lane.standalone_network_bytes()) - report.network_bytes`` is
    exactly the header amortization the batch bought.
    """

    record_bytes: int
    message_header_bytes: int
    supersteps: int = 0
    cpu_ops: int = 0
    network_records: int = 0
    network_messages: int = 0

    def charge_ops(self, ops: int) -> None:
        """Attribute ``ops`` units of CPU work to this population."""
        self.cpu_ops += int(ops)

    def charge_pair_records(self, records: np.ndarray) -> None:
        """Attribute one machine-pair record matrix (diagonal is local,
        hence free — as :meth:`ClusterState.send_pair_matrix` bills it)."""
        off_diagonal = np.asarray(records).copy()
        np.fill_diagonal(off_diagonal, 0)
        self.network_records += int(off_diagonal.sum())
        self.network_messages += int(np.count_nonzero(off_diagonal))

    def charge_counts(self, records: int, messages: int) -> None:
        """Attribute pre-counted off-diagonal records and messages.

        The fused batch kernel computes every lane's counts in one
        vectorized pass over a stacked ``(B, machines, machines)``
        record tensor; this is the per-lane sink for those counts,
        equivalent to :meth:`charge_pair_records` on the lane's slice.
        """
        self.network_records += int(records)
        self.network_messages += int(messages)

    def standalone_network_bytes(self) -> int:
        """Wire bytes this population would have paid running alone."""
        return (
            self.message_header_bytes * self.network_messages
            + self.record_bytes * self.network_records
        )

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger of the *same query* into this one.

        :func:`repro.core.batched.merge_shard_results` merges shard
        lanes through this: when one query's frog population is split
        across shard sub-clusters, each shard keeps its own ledger and
        the per-query attribution is their exact sum.  Records,
        messages and CPU ops add; ``supersteps`` takes the max because
        shards advance their barriers concurrently.
        """
        if (
            other.record_bytes != self.record_bytes
            or other.message_header_bytes != self.message_header_bytes
        ):
            raise EngineError(
                "cannot merge ledgers priced under different size models"
            )
        self.supersteps = max(self.supersteps, other.supersteps)
        self.cpu_ops += other.cpu_ops
        self.network_records += other.network_records
        self.network_messages += other.network_messages


@dataclass(frozen=True)
class RunReport:
    """Summary of one algorithm execution on the simulated cluster.

    The four headline metrics match Figure 1 of the paper; ``extra``
    carries algorithm-specific outputs (e.g. iterations to convergence).
    """

    algorithm: str
    num_machines: int
    supersteps: int
    total_time_s: float
    time_per_iteration_s: float
    network_bytes: int
    cpu_seconds: float
    extra: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        row: dict[str, object] = {
            "algorithm": self.algorithm,
            "num_machines": self.num_machines,
            "supersteps": self.supersteps,
            "total_time_s": self.total_time_s,
            "time_per_iteration_s": self.time_per_iteration_s,
            "network_bytes": self.network_bytes,
            "cpu_seconds": self.cpu_seconds,
        }
        row.update(self.extra)
        return row
