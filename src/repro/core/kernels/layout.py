"""Cache-conscious data layout for the kernel tiers.

Four concerns live here, all purely about memory traffic — none of
them changes a single computed value:

* **Dense group widths.**  :class:`DenseGroupTables` lays the
  (vertex, machine) out-edge groups out as two (vertex x machine)
  matrices, so the fused passes gather one contiguous (rows x machines)
  block per superstep — the shape of the coin matrix they are combined
  with — instead of a ragged index list per frontier row.

* **int32 narrowing.**  The fused kernel addresses the batch with
  ``lane * n + vertex`` keys in int64.  When the key space ``B * n``
  fits int32 the compiled tier halves the bytes streamed per key;
  :func:`lane_key_dtype` implements the explicit overflow guard the
  narrowing hides behind (falls back to int64, or raises when int32 is
  demanded).  :class:`CompiledTables` applies the same narrowing to the
  per-ingress gather tables (vertex pointers, group and edge arrays).
* **CSR-blocked tiles.**  :func:`plan_tiles` splits the frontier into
  contiguous row tiles whose estimated working set fits the L2 budget,
  so the compiled expansion loops re-walk a cache-resident window
  instead of streaming the whole concatenation; tiling never reorders
  writes, so results are bit-identical for every tile plan.
* The per-array bytes live here too so the dense-vs-sorted pass
  selection in :mod:`.compiled` can reason about working-set size.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "CompiledTables",
    "DenseGroupTables",
    "lane_key_dtype",
    "l2_tile_bytes",
    "pack_lane_keys",
    "plan_store_tiles",
    "plan_tiles",
    "unpack_lane_keys",
]

_INT32_SPAN = 2**31


def lane_key_dtype(num_lanes: int, num_vertices: int, *, require_int32=False):
    """Dtype for ``lane * n + vertex`` keys, with the overflow guard.

    Returns ``np.int32`` exactly when the key space ``num_lanes *
    num_vertices`` is below ``2**31``; otherwise falls back to
    ``np.int64`` — unless the caller demands int32, in which case the
    guard raises instead of silently wrapping.
    """
    span = int(num_lanes) * int(num_vertices)
    if span < _INT32_SPAN:
        return np.dtype(np.int32)
    if require_int32:
        raise OverflowError(
            f"lane-key space {num_lanes} * {num_vertices} = {span} "
            f"overflows int32 (>= 2**31); use int64 keys"
        )
    return np.dtype(np.int64)


def pack_lane_keys(
    lane_ids: np.ndarray,
    verts: np.ndarray,
    num_vertices: int,
    *,
    num_lanes: int | None = None,
    require_int32: bool = False,
) -> np.ndarray:
    """Pack ``(lane, vertex)`` pairs into lane-offset keys.

    The key dtype narrows to int32 when the span allows (guarded by
    :func:`lane_key_dtype`); the packed values are identical to the
    int64 path either way.
    """
    if num_lanes is None:
        num_lanes = int(lane_ids.max(initial=-1)) + 1
    dtype = lane_key_dtype(
        num_lanes, num_vertices, require_int32=require_int32
    )
    keys = lane_ids.astype(np.int64) * int(num_vertices) + verts
    return keys.astype(dtype)


def unpack_lane_keys(
    keys: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_lane_keys` back to int64 ``(lane, vertex)``."""
    wide = keys.astype(np.int64)
    return wide // int(num_vertices), wide % int(num_vertices)


def _narrow(array: np.ndarray) -> np.ndarray:
    """An int32 copy when every value fits, else the original array."""
    if array.dtype == np.int32:
        return array
    if array.size == 0 or int(array.max(initial=0)) < _INT32_SPAN:
        return array.astype(np.int32)
    return array


class CompiledTables:
    """int32-narrowed gather views of :class:`.._KernelTables`.

    The compiled passes stream these arrays per superstep; narrowing
    them halves the gather bandwidth on every graph whose vertex, group
    and edge counts fit int32 (the guard keeps int64 for any array that
    does not).  Built once per ingress and cached alongside the int64
    tables (see ``batched.BatchedFrogWildRunner``).
    """

    __slots__ = (
        "masters",
        "vertex_ptr",
        "group_machine",
        "group_start",
        "group_sizes",
        "edge_target",
        "edge_host",
        "out_degree",
    )

    def __init__(self, tables) -> None:
        self.masters = _narrow(tables.masters)
        self.vertex_ptr = _narrow(tables.vertex_ptr)
        self.group_machine = _narrow(tables.group_machine)
        self.group_start = _narrow(tables.group_start)
        self.group_sizes = _narrow(tables.group_sizes)
        self.edge_target = _narrow(tables.edge_target)
        self.edge_host = _narrow(tables.edge_host)
        self.out_degree = _narrow(tables.out_degree)

    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self.__slots__)


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


def l2_tile_bytes() -> int:
    """The L2 working-set budget for one expansion tile (env-tunable)."""
    return int(os.environ.get("REPRO_L2_BYTES", str(1 << 20)))


def plan_tiles(weights: np.ndarray, budget: int) -> np.ndarray:
    """Split rows into contiguous tiles of at most ``budget`` weight.

    ``weights[r]`` estimates row r's working-set bytes.  Returns the
    tile boundaries as an int64 array ``[0, b1, ..., len(weights)]``;
    a single row heavier than the budget gets a tile of its own.  The
    expansion loops iterate tile by tile so the gather tables and the
    output window of one tile stay L2-resident; the plan affects only
    traversal order within an embarrassingly element-wise pass, never
    the results.
    """
    count = int(weights.size)
    if count == 0:
        return np.zeros(1, dtype=np.int64)
    cum = np.cumsum(weights, dtype=np.int64)
    bounds = [0]
    start = 0
    base = 0
    while start < count:
        hi = int(np.searchsorted(cum, base + int(budget), side="right"))
        if hi <= start:
            hi = start + 1  # one oversized row still advances
        bounds.append(hi)
        base = int(cum[hi - 1])
        start = hi
    return np.asarray(bounds, dtype=np.int64)


def plan_store_tiles(
    store,
    budget: int,
    *,
    window=None,
    chunk_vertices: int = 1 << 16,
    bytes_per_edge: int = 16,
) -> np.ndarray:
    """Vertex-range tile plan read through window-pruned store scans.

    The out-of-core twin of :func:`plan_tiles`: instead of a
    RAM-resident per-row weight vector it walks the queried window of a
    :class:`~repro.store.GraphStore` in ``chunk_vertices``-wide
    sub-windows, so at most one chunk's keys are materialized at a time
    and a :class:`~repro.store.SegmentStore` only pages in the segments
    each sub-window's interval intersects.  Per-vertex weight is
    ``out_degree * bytes_per_edge``.  Returns tile boundaries in vertex
    ids, ``[window.vertex_lo, ..., window.vertex_hi]``; the plan equals
    ``window.vertex_lo + plan_tiles(weights, budget)`` for the same
    weights read whole (pinned by the layout tests).
    """
    from ...store import Window

    n = int(store.num_vertices)
    if window is None:
        window = Window(0, n)
    lo0, hi0 = window.vertex_lo, min(window.vertex_hi, n)
    bounds = [lo0]
    acc = 0
    filled = False  # whether the open tile holds at least one vertex
    for lo in range(lo0, hi0, int(chunk_vertices)):
        hi = min(lo + int(chunk_vertices), hi0)
        keys = store.scan(
            Window(
                lo,
                hi,
                machine=window.machine,
                num_machines=window.num_machines,
                salt=window.salt,
            )
        )
        weights = np.bincount(
            (np.asarray(keys, dtype=np.int64) // n) - lo, minlength=hi - lo
        ) * int(bytes_per_edge)
        for vertex, weight in zip(range(lo, hi), weights.tolist()):
            if filled and acc + weight > int(budget):
                bounds.append(vertex)
                acc = 0
            acc += int(weight)
            filled = True
    if filled:
        bounds.append(hi0)
    return np.asarray(bounds, dtype=np.int64)
