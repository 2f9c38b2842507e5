"""Spill serving tables to disk and serve them back through mmap.

A :class:`~repro.store.SegmentStore` bounds the resident set of the
*edge list*, but a serving backend's working state is its derived
tables: the CSR snapshot, the per-shard
:class:`~repro.cluster.ReplicationTable` component arrays, the flat
kernel tables, the dense group widths of the fused passes, and the
mirror bitmap.  This module moves that state out of core too:

* :func:`spill_serving_tables` writes every component array as a plain
  ``.npy`` file (one directory per spill tag) after the backend has
  built them in RAM;
* :func:`load_serving_tables` maps the files back with
  ``np.load(mmap_mode="r")`` and rebuilds the object graph *around*
  the mapped views — :meth:`~repro.graph.DiGraph.from_csr_arrays`
  adopts the CSR pair, :meth:`~repro.cluster.ReplicationTable.
  from_shared_components` adopts the scatter grouping (the gather one
  is never spilled), and the kernel tables / dense group tables /
  mirror matrix are pre-seeded into the ingress cache exactly as
  :func:`~repro.core.frogwild.prime_ingress_caches` would build them
  (the table constructors copy; rebuilding via ``__new__`` keeps the
  mapped views mapped).

Array values are identical before and after the round trip, so serving
from a loaded spill is bitwise-identical to serving from RAM; the OS
pages table slices in on demand, which is what bounds peak RSS when the
graph outgrows the working-set cap (``tests/test_store_serving.py``
asserts the bitwise half).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..errors import ConfigError

__all__ = ["load_serving_tables", "spill_serving_tables"]

_META = "meta.json"


def _save(directory: Path, name: str, array: np.ndarray) -> str:
    np.save(directory / f"{name}.npy", np.ascontiguousarray(array))
    return name


def spill_serving_tables(directory, graph, replications) -> Path:
    """Write ``graph`` + per-shard serving tables under ``directory``.

    ``replications`` is the backend's shard list (a single-backend spill
    passes a one-element list).  Kernel tables, dense group tables and
    the mirror matrix are built here — once, in the spilling process —
    so the loader never pays their construction against mapped arrays.
    """
    from ..core.frogwild import _KernelTables
    from ..core.kernels.layout import DenseGroupTables
    from ..engine import mirror_matrix

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csr = graph.csr_components()
    names = [
        _save(directory, "csr.indptr", csr["indptr"]),
        _save(directory, "csr.indices", csr["indices"]),
    ]
    out_degree = graph.out_degree()
    for shard, replication in enumerate(replications):
        for key, array in replication.shared_components().items():
            names.append(_save(directory, f"rep{shard}.{key}", array))
        tables = _KernelTables(replication, out_degree)
        dense = DenseGroupTables(tables, replication.num_machines)
        for prefix, table in (("kt", tables), ("dg", dense)):
            for slot in table.__slots__:
                names.append(
                    _save(
                        directory,
                        f"{prefix}{shard}.{slot}",
                        getattr(table, slot),
                    )
                )
        names.append(
            _save(directory, f"mm{shard}", mirror_matrix(replication))
        )
    meta = {
        "num_vertices": int(graph.num_vertices),
        "num_shards": len(replications),
        "arrays": names,
    }
    tmp = directory / (_META + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    os.replace(tmp, directory / _META)
    return directory


def load_serving_tables(directory):
    """Map a spill directory back into ``(graph, [replications])``.

    Every array is an ``np.load(mmap_mode="r")`` view; the returned
    replication tables carry pre-seeded ``kernel_tables`` /
    ``dense_groups`` / ``mirror_matrix`` ingress-cache entries, so the
    serving hot path never materializes a full in-RAM copy of any
    spilled component.
    """
    from ..cluster.replication import ReplicationTable
    from ..core.frogwild import _KernelTables
    from ..core.kernels.layout import DenseGroupTables
    from ..graph import DiGraph

    directory = Path(directory)
    meta_path = directory / _META
    if not meta_path.exists():
        raise ConfigError(
            f"{directory} is not a serving spill (no {_META}); "
            "use spill_serving_tables to create one"
        )
    with meta_path.open("r", encoding="utf-8") as handle:
        meta = json.load(handle)

    def _load(name: str) -> np.ndarray:
        return np.load(directory / f"{name}.npy", mmap_mode="r")

    graph = DiGraph.from_csr_arrays(
        {"indptr": _load("csr.indptr"), "indices": _load("csr.indices")}
    )
    replications = []
    for shard in range(int(meta["num_shards"])):
        prefix = f"rep{shard}."
        arrays = {
            name[len(prefix) :]: _load(name)
            for name in meta["arrays"]
            if name.startswith(prefix)
        }
        replication = ReplicationTable.from_shared_components(graph, arrays)
        for key, prefix, cls in (
            ("kernel_tables", "kt", _KernelTables),
            ("dense_groups", "dg", DenseGroupTables),
        ):
            if f"{prefix}{shard}.{cls.__slots__[0]}" not in meta["arrays"]:
                # A spill older than this table: first use builds it.
                continue
            table = cls.__new__(cls)
            for slot in cls.__slots__:
                setattr(table, slot, _load(f"{prefix}{shard}.{slot}"))
            replication._ingress_cache[key] = table
        replication._ingress_cache["mirror_matrix"] = _load(f"mm{shard}")
        replications.append(replication)
    return graph, replications
