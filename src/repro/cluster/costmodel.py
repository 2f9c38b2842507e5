"""Cost model: converting counted bytes/ops into simulated seconds.

The paper reports wall-clock and CPU seconds measured on EC2
``m3.xlarge`` nodes.  We cannot measure those, so the simulator derives
time from first principles:

* each superstep pays a **barrier latency** (BSP synchronization),
* communication time is the straggler's ``max(bytes_in, bytes_out)``
  divided by per-node bandwidth (full-duplex NICs),
* compute time is the straggler's charged ops divided by a per-node
  processing rate.

Per-superstep time is ``barrier + comm + compute`` of the slowest
machine; total time sums supersteps.  CPU usage (Figure 1d) is the *sum*
over machines, which can exceed wall time — exactly as the paper notes.

Defaults are calibrated so the *scaled-down* workloads sit in the same
operating regime as the paper's clusters: communication and compute
dominate each superstep, barriers are secondary.  (A literal 1 Gb/s +
5 ms barrier setting would make barrier latency dominate at 1/1000th
graph scale and flatten every comparison the paper draws.)  The figures
only rely on relative ordering, which is invariant to a common rescale
of these constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CostModel", "SuperstepCost"]


@dataclass(frozen=True)
class CostModel:
    """Deterministic time model for the simulated cluster."""

    bandwidth_bytes_per_s: float = 2e7
    barrier_latency_s: float = 5e-4
    cpu_ops_per_s: float = 2e6
    per_message_overhead_s: float = 2e-6

    def superstep_time(
        self,
        bytes_sent: np.ndarray,
        bytes_received: np.ndarray,
        cpu_ops: np.ndarray,
        num_messages: int = 0,
    ) -> "SuperstepCost":
        """Cost of one superstep from per-machine traffic and work."""
        sent = np.asarray(bytes_sent, dtype=np.float64)
        received = np.asarray(bytes_received, dtype=np.float64)
        ops = np.asarray(cpu_ops, dtype=np.float64)
        comm = float(np.max(np.maximum(sent, received), initial=0.0))
        comm_time = comm / self.bandwidth_bytes_per_s
        comm_time += num_messages * self.per_message_overhead_s
        compute_time = float(np.max(ops, initial=0.0)) / self.cpu_ops_per_s
        return SuperstepCost(
            barrier_s=self.barrier_latency_s,
            comm_s=comm_time,
            compute_s=compute_time,
        )

    def cpu_seconds(self, total_ops: float) -> float:
        """Aggregate CPU seconds for summed ops (Figure 1d metric)."""
        return float(total_ops) / self.cpu_ops_per_s


@dataclass(frozen=True)
class SuperstepCost:
    """Breakdown of one superstep's simulated duration."""

    barrier_s: float
    comm_s: float
    compute_s: float

    @property
    def total_s(self) -> float:
        return self.barrier_s + self.comm_s + self.compute_s
