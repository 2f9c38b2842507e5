"""Per-phase traffic and CPU breakdown of a completed run.

The paper's mechanism is specific: the ``ps`` patch attacks the *mirror
synchronization* component of each superstep.  Aggregate byte counts
can't show that; this module decomposes a run's bill by record kind
(sync / gather / scatter / lock) and CPU by phase, so experiments can
assert not just *that* traffic fell but that it fell *where the paper
says it falls*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .state import ClusterState

__all__ = ["PhaseBreakdown", "traffic_breakdown"]


@dataclass(frozen=True)
class PhaseBreakdown:
    """Byte/message/op totals keyed by record kind and CPU phase."""

    bytes_by_kind: dict[str, int]
    messages_by_kind: dict[str, int]
    ops_by_phase: dict[str, int]

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())

    @property
    def total_ops(self) -> int:
        return sum(self.ops_by_phase.values())

    def byte_share(self, kind: str) -> float:
        """Fraction of all network bytes carried by ``kind`` records."""
        total = self.total_bytes
        if total == 0:
            return 0.0
        return self.bytes_by_kind.get(kind, 0) / total

    def op_share(self, phase: str) -> float:
        """Fraction of all CPU ops charged to ``phase``."""
        total = self.total_ops
        if total == 0:
            return 0.0
        return self.ops_by_phase.get(phase, 0) / total

    def to_text(self) -> str:
        """Aligned two-section summary for reports."""
        lines = ["network bytes by record kind:"]
        for kind in sorted(self.bytes_by_kind):
            share = self.byte_share(kind)
            lines.append(
                f"  {kind:<10s} {self.bytes_by_kind[kind]:>14,}  "
                f"({share:6.1%})"
            )
        lines.append("cpu ops by phase:")
        for phase in sorted(self.ops_by_phase):
            share = self.op_share(phase)
            lines.append(
                f"  {phase:<10s} {self.ops_by_phase[phase]:>14,}  "
                f"({share:6.1%})"
            )
        return "\n".join(lines)


def traffic_breakdown(state: ClusterState) -> PhaseBreakdown:
    """Decompose everything a run charged to ``state`` so far."""
    return PhaseBreakdown(
        bytes_by_kind=dict(state.bytes_by_kind),
        messages_by_kind=dict(state.messages_by_kind),
        ops_by_phase=dict(state.ops_by_phase),
    )
