"""Straggler-aware cost model.

BSP is only as fast as its slowest machine: the barrier waits for
everyone.  :class:`StragglerCostModel` gives each machine an individual
slowdown factor applied to both its communication and compute time, so
a single dragging node visibly inflates every superstep — the classic
argument for randomized/partial synchronization, which reduces how much
work the straggler is handed in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import CostModel, SuperstepCost
from ..errors import ConfigError

__all__ = ["StragglerCostModel"]


@dataclass(frozen=True, eq=False)
class StragglerCostModel(CostModel):
    """Cost model with per-machine slowdown multipliers.

    ``slowdowns[i] = 2.0`` means machine ``i`` moves bytes and executes
    ops at half speed.  Factors must be >= 1 (healthy machines are 1.0);
    the vector length fixes the cluster size this model may be used
    with.
    """

    slowdowns: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not self.slowdowns:
            raise ConfigError("slowdowns must not be empty")
        if any(s < 1.0 for s in self.slowdowns):
            raise ConfigError("slowdown factors must be >= 1")

    @property
    def num_machines(self) -> int:
        return len(self.slowdowns)

    def superstep_time(
        self,
        bytes_sent: np.ndarray,
        bytes_received: np.ndarray,
        cpu_ops: np.ndarray,
        num_messages: int = 0,
    ) -> SuperstepCost:
        """:meth:`CostModel.superstep_time` of the slowed-down vectors.

        Scaling a machine's sent and received bytes by the same positive
        factor keeps the larger of the two, so this prices each machine
        at exactly ``max(sent, received) * slowdown``.
        """
        factors = np.asarray(self.slowdowns, dtype=np.float64)
        sent = np.asarray(bytes_sent, dtype=np.float64)
        if sent.shape != factors.shape:
            raise ConfigError(
                f"cost model sized for {factors.size} machines, "
                f"got traffic vectors of shape {sent.shape}"
            )
        return super().superstep_time(
            sent * factors,
            np.asarray(bytes_received, dtype=np.float64) * factors,
            np.asarray(cpu_ops, dtype=np.float64) * factors,
            num_messages,
        )
