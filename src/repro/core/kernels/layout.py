"""Dense (vertex x machine) layout of the out-edge groups.

:class:`DenseGroupTables` lays the (vertex, machine) out-edge groups
out as two (vertex x machine) matrices, so the fused passes gather one
contiguous (rows x machines) block per superstep — the shape of the
coin matrix they are combined with — instead of a ragged index list
per frontier row.  Their dtype is the table's one rule,
:func:`repro.cluster.replication._narrow` (int32 whenever the values
fit), which also sizes the ranked estimates of
:mod:`repro.core.estimator`.  Neither changes a computed value.
"""

from __future__ import annotations

import numpy as np

from ...cluster.replication import _narrow

__all__ = ["DenseGroupTables"]


class DenseGroupTables:
    """The out-edge groups of :class:`.._KernelTables`, one cell per
    (vertex, machine).

    ``size_vm[v, p]`` is the number of out-edges of ``v`` hosted on
    machine ``p`` (0 where ``v`` has no group there) and ``start_vm[v,
    p]`` that group's first edge id.  The ragged table stores a
    vertex's groups in ascending machine order, so the nonzero cells of
    a row-major scan of ``size_vm[rows]`` are the groups of ``rows`` in
    exactly the ragged order.  int32 whenever the edge count fits;
    built once per ingress, only where the fused passes run.
    """

    __slots__ = ("size_vm", "start_vm")

    def __init__(self, tables, num_machines: int) -> None:
        num_vertices = tables.vertex_ptr.size - 1
        cell = (
            np.repeat(
                np.arange(num_vertices, dtype=np.int64) * num_machines,
                np.diff(tables.vertex_ptr),
            )
            + tables.group_machine
        )

        def dense(values: np.ndarray) -> np.ndarray:
            cells = np.zeros(num_vertices * num_machines, dtype=values.dtype)
            cells[cell] = values
            return cells.reshape(num_vertices, num_machines)

        self.size_vm = dense(_narrow(tables.group_sizes))
        self.start_vm = dense(_narrow(tables.group_start))
