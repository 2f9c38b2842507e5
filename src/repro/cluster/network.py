"""Wire sizes of inter-machine traffic.

The paper's headline result (Figure 1c: a 1000x reduction in "network
sent" bytes versus exact GraphLab PageRank) is an accounting statement,
so the simulator bills every byte crossing a machine boundary
(:meth:`repro.engine.ClusterState.send_pair_matrix`):

* **sync** records — a master pushing vertex data to one mirror,
* **gather** records — a mirror pushing a partial gather sum to the master,
* **scatter** records — combined ``(vertex, count)`` frog messages or
  PageRank signal messages,
* **control** — per-superstep barrier chatter.

Message sizes follow :class:`MessageSizeModel`, whose defaults mirror the
wire cost of PowerGraph's serialized vertex-data updates (ids, payload
and a small framing header).  Local (same-machine) deliveries are free,
as in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MessageSizeModel"]


@dataclass(frozen=True)
class MessageSizeModel:
    """Bytes on the wire per record kind.

    Defaults: an 8-byte vertex id plus an 8-byte payload (a double for
    PageRank / a frog count) plus framing per record, and a fixed
    per-message header amortized over batched records.
    """

    vertex_id_bytes: int = 8
    payload_bytes: int = 8
    record_overhead_bytes: int = 4
    message_header_bytes: int = 32

    def record_bytes(self) -> int:
        """Wire size of one batched record."""
        return self.vertex_id_bytes + self.payload_bytes + self.record_overhead_bytes

    def batch_bytes(self, num_records: int) -> int:
        """Wire size of one message carrying ``num_records`` records."""
        if num_records <= 0:
            return 0
        return self.message_header_bytes + num_records * self.record_bytes()
