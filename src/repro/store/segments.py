"""Out-of-core edge tier: mmap'd sorted segments + in-RAM delta layer.

:class:`SegmentStore` keeps the edge set on disk as sorted key-segment
files keyed by ``(machine, key-interval)``:

* every edge key is assigned a machine by the same
  :func:`~repro.cluster.stable_hash_machines` hash the ingress layer
  uses, so a shard's windows align with its placement and a shard scan
  touches only that machine's segment files;
* within a machine, keys are split into bounded sorted runs
  (``segment_edges`` apiece); each segment's manifest entry records the
  closed interval ``[key_lo, key_hi]`` covering *every* key inside it —
  the interval-pruning proof obligation.  The invariant holds by
  construction (segments are contiguous slices of a sorted array) and
  is re-checked on open and after every compaction
  (:meth:`check_intervals`), so a scan may skip any segment whose
  interval misses the window and still be exact;
* mutations never touch segment files: a :class:`~repro.dynamic.
  GraphDelta` lands in an in-RAM delta layer (sorted ``_added`` /
  ``_removed`` key arrays, same apply semantics as
  :class:`~repro.dynamic.DynamicDiGraph.apply`), and reads overlay it;
* :meth:`compact` folds the delta layer back into segment files —
  rewriting only the machines whose key set changed — and is driven
  periodically by the live refresh
  (:meth:`~repro.live.LiveRankingService.refresh` with
  ``LiveRankingService(store=...)``), off the query path.

Segment files are read with ``np.load(mmap_mode="r")``: a scan pages in
only the slice its window selects, which is what bounds the resident
set when serving graphs larger than RAM (see :mod:`repro.store.spill`
for the serving-table side).

**Commit protocol.**  The manifest is ``manifest-<seq>.json``, where
``<seq>`` only grows, so no manifest name is ever used twice.  A
commit (:meth:`SegmentStore.create`, :meth:`SegmentStore.compact`)
writes its new segment files, writes ``manifest-<seq+1>.json.tmp``
and renames it to ``manifest-<seq+1>.json``: that rename to a name
that has never existed is the commit point.  Only then are the
superseded manifest and the superseded segment files unlinked.  The
constructor opens the highest-numbered manifest and ignores ``*.tmp``;
a crash anywhere in a commit leaves the old or the new store, plus
debris (new segments not yet named by a manifest, a tmp file, an old
manifest, old segments) that :meth:`SegmentStore.sweep_orphans`
removes, mirroring the ``/dev/shm`` hygiene of
:meth:`~repro.cluster.SharedArena.sweep_orphans`.

**Process-crash atomicity only.**  Nothing here calls ``fsync``, so a
power loss may lose or tear a commit the kernel had not yet written
back; the contract is that a killed *process* leaves the pre- or the
post-commit edge set, never a mix (``tests/test_store_crash.py`` kills
a compaction at every filesystem call).

**Why a fresh name.**  Measured on ext4 mounted with ``discard``:
renaming over an existing file takes 50-71 ms, renaming to a new name
0.05 ms; unlinking a file whose blocks were written back takes ~55 ms,
one whose data is still delayed-allocated 0.01 ms.  A rename over an
existing file makes ext4 allocate the new file's blocks at once
(``auto_da_alloc``) and deletes the file it replaces, whose blocks the
previous such rename had already forced out, so a commit by
``os.replace`` over one fixed manifest name paid the ~55 ms delete on
every compaction.  A fresh name triggers neither, and the superseded
manifest is unlinked while its data is typically still delayed.  An
``fsync`` would allocate the manifest's blocks and bring the delete
cost back.  A manifest or segment file old enough to have been written
back (~30 s) still costs ~55 ms to unlink, as it did before.
"""

from __future__ import annotations

import json
import os
import re
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError, GraphError
from ..graph.keys import drop_sorted, merge_sorted, sorted_unique
from .base import ScanStats, Window, edges_to_keys, scan_keys

__all__ = ["CompactionStats", "SegmentMeta", "SegmentStore"]

_MANIFEST_GLOB = "manifest-*"
_MANIFEST_NAME = re.compile(r"manifest-(\d+)\.json")
_SEGMENT_GLOB = "seg-*.npy"


def _manifest_name(seq: int) -> str:
    return f"manifest-{seq:08d}.json"


def _committed_seqs(directory: Path) -> list[int]:
    """Sequence numbers of the committed manifests (``*.tmp`` and
    foreign names ignored), ascending."""
    return sorted(
        int(match.group(1))
        for path in directory.glob(_MANIFEST_GLOB)
        if (match := _MANIFEST_NAME.fullmatch(path.name))
    )


@dataclass(frozen=True)
class SegmentMeta:
    """Manifest entry of one on-disk sorted key run."""

    machine: int
    key_lo: int
    key_hi: int
    count: int
    file: str

    def intersects(self, lo: int, hi: int) -> bool:
        """Whether ``[key_lo, key_hi]`` meets the half-open ``[lo, hi)``."""
        return self.key_hi >= lo and self.key_lo < hi

    def as_dict(self) -> dict:
        return {
            "machine": self.machine,
            "key_lo": self.key_lo,
            "key_hi": self.key_hi,
            "count": self.count,
            "file": self.file,
        }


@dataclass(frozen=True)
class CompactionStats:
    """What one :meth:`SegmentStore.compact` call did."""

    folded_keys: int
    machines_rewritten: int
    segments_written: int
    segments_deleted: int
    bytes_written: int


class SegmentStore:
    """Disk-backed :class:`~repro.store.GraphStore` over segment files.

    Build one with :meth:`create` (bulk load from any graph store or
    edge array) and reopen it later with ``SegmentStore(directory)``.
    The store implements the full protocol — ``edge_keys``/``scan``/
    ``apply``/``snapshot``/``version`` — so ingress and serving code
    cannot tell it from a RAM graph except through :attr:`scan_stats`.
    """

    #: Marks this tier for the serving seam: backends given an
    #: out-of-core store spill their derived tables to disk and serve
    #: from mapped views (see ``repro.store.spill``).
    out_of_core = True
    #: ``(version, weakref)`` of the last :meth:`edge_keys` merge.
    _merged = None

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        """Open an existing store directory (see :meth:`create`)."""
        self.directory = Path(directory)
        seqs = _committed_seqs(self.directory)
        if not seqs:
            raise ConfigError(
                f"{self.directory} is not a SegmentStore (no "
                "manifest-<seq>.json; use SegmentStore.create to build one)"
            )
        self._seq = seqs[-1]
        with (self.directory / self.manifest_file).open(
            "r", encoding="utf-8"
        ) as handle:
            manifest = json.load(handle)
        self._n = int(manifest["num_vertices"])
        self.num_machines = int(manifest["num_machines"])
        self.salt = int(manifest["salt"])
        self.segment_edges = int(manifest["segment_edges"])
        self._version = int(manifest["version"])
        self._epoch = int(manifest["epoch"])
        self._segments = [
            SegmentMeta(**entry) for entry in manifest["segments"]
        ]
        self._added = np.empty(0, dtype=np.int64)
        self._removed = np.empty(0, dtype=np.int64)
        self._maps: dict[str, np.ndarray] = {}
        self.scan_stats = ScanStats()
        self.check_intervals()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str | os.PathLike[str],
        source=None,
        *,
        num_vertices: int | None = None,
        num_machines: int = 1,
        salt: int = 0,
        segment_edges: int = 1 << 16,
    ) -> "SegmentStore":
        """Bulk-load a store directory from ``source`` and open it.

        ``source`` is any :class:`~repro.store.GraphStore` (a
        :class:`~repro.graph.DiGraph`, a
        :class:`~repro.dynamic.DynamicDiGraph`, another store) or an
        ``(m, 2)`` edge array (then ``num_vertices`` is required).
        ``num_machines``/``salt`` fix the segment layout — align them
        with the serving cluster's placement so shard scans hit the
        pruned path.
        """
        if num_machines < 1:
            raise ConfigError("num_machines must be positive")
        if segment_edges < 1:
            raise ConfigError("segment_edges must be positive")
        if source is None:
            if num_vertices is None:
                raise ConfigError(
                    "create() needs a source store/graph/edge array, "
                    "or num_vertices for an empty store"
                )
            n = int(num_vertices)
            keys = np.empty(0, dtype=np.int64)
        elif isinstance(source, np.ndarray):
            if num_vertices is None:
                raise ConfigError(
                    "num_vertices is required with a raw edge array"
                )
            n = int(num_vertices)
            if source.size and int(source.max()) >= n:
                raise GraphError("edge endpoint out of range")
            keys = edges_to_keys(source, n)
        else:
            n = int(source.num_vertices)
            keys = np.asarray(source.edge_keys(), dtype=np.int64)
        if n < 1:
            raise ConfigError("num_vertices must be positive")

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        store = cls.__new__(cls)
        store.directory = directory
        store._n = n
        store.num_machines = int(num_machines)
        store.salt = int(salt)
        store.segment_edges = int(segment_edges)
        store._version = 0
        store._epoch = 0
        store._segments = []
        store._added = np.empty(0, dtype=np.int64)
        store._removed = np.empty(0, dtype=np.int64)
        store._maps = {}
        store.scan_stats = ScanStats()
        # Start past any manifest already in the directory: the new
        # store's commit is then the highest-numbered one.
        store._seq = max(_committed_seqs(directory), default=0)
        machines = store._machine_of(keys)
        segments: list[SegmentMeta] = []
        for machine in range(store.num_machines):
            segments.extend(
                store._write_machine(machine, keys[machines == machine])
            )
        store._commit(segments)
        store._segments = segments
        store.check_intervals()
        return store

    # ------------------------------------------------------------------
    # GraphStore protocol
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        base = sum(seg.count for seg in self._segments)
        return base + int(self._added.size) - int(self._removed.size)

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutating call."""
        return self._version

    def edge_keys(self) -> np.ndarray:
        """The merged edge set: base segments overlaid with the delta.

        Read-only, and remembered per :attr:`version` by a *weak*
        reference: readers of one version (each ingress, the snapshot
        build) share one merge, and the store keeps nothing alive.
        """
        version, memo = self._version, self._merged
        keys = memo[1]() if memo and memo[0] == version else None
        if keys is None:
            segments = self._segments
            runs = [self._segment_keys(seg) for seg in segments]
            machines = len({seg.machine for seg in segments})
            keys = merge_sorted(self._live_base(runs, machines), self._added)
            keys.flags.writeable = False
            if self._version == version:  # no mutation raced the merge
                self._merged = version, weakref.ref(keys)
        return keys

    def _live_base(self, runs: list[np.ndarray], machines: int) -> np.ndarray:
        """Segment ``runs`` (in manifest order) minus the removed keys."""
        if not runs:
            return np.empty(0, dtype=np.int64)
        keys = np.concatenate(runs)
        if machines > 1:
            # Runs of one machine are disjoint and ordered; runs of
            # different machines interleave and need the one real sort.
            keys = np.sort(keys)
        return drop_sorted(keys, self._removed)

    def scan(self, window: Window) -> np.ndarray:
        """Window-pruned scan, exactness-equal to the full-scan filter.

        When the window's ``(num_machines, salt)`` placement matches
        the store layout, only the target machine's segments whose
        manifest interval intersects the window are opened (the pruned
        path); a mismatched placement falls back to scanning every
        interval-intersecting segment and hash-filtering — still
        window-pruned on the vertex range, still exact.
        """
        stats = self.scan_stats
        stats.scans += 1
        lo, hi = window.key_range(self._n)
        aligned = (
            window.num_machines == self.num_machines
            and window.salt == self.salt
        )
        parts: list[np.ndarray] = []
        machines_hit = set()
        for seg in self._segments:
            stats.segments_considered += 1
            if (
                window.machine is not None
                and aligned
                and seg.machine != window.machine
            ) or not seg.intersects(lo, hi):
                stats.segments_pruned += 1
                continue
            arr = self._segment_keys(seg)
            a, b = np.searchsorted(arr, [lo, hi])
            stats.segments_scanned += 1
            stats.bytes_scanned += int(b - a) * arr.itemsize
            if b > a:
                parts.append(np.asarray(arr[a:b]))
                machines_hit.add(seg.machine)
        base = self._live_base(parts, len(machines_hit))
        if not aligned and window.machine is not None:
            base = scan_keys(base, self._n, window)
        a, b = np.searchsorted(self._added, [lo, hi])
        return merge_sorted(base, scan_keys(self._added[a:b], self._n, window))

    def snapshot(self, repair_dangling: str = "self-loop"):
        """Freeze the merged edge set into an immutable CSR graph."""
        from ..graph.builder import from_sorted_keys

        return from_sorted_keys(self.edge_keys(), self._n, repair_dangling)

    # ------------------------------------------------------------------
    # Mutation (delta layer) — semantics mirror DynamicDiGraph exactly
    # ------------------------------------------------------------------
    def apply(self, delta) -> tuple[int, int]:
        """Apply one :class:`~repro.dynamic.GraphDelta` to the delta
        layer; returns ``(edges added, edges removed)``.  Removals run
        first, and version bumps match
        :meth:`~repro.dynamic.DynamicDiGraph.apply` call for call."""
        removed = self.remove_edges(delta.removed)
        added = self.add_edges(delta.added)
        return added, removed

    def add_edges(self, edges) -> int:
        """Insert edges; returns how many were actually new."""
        keys = self._delta_keys(edges)
        if keys is None:
            return 0
        missing = keys[~self._contains(keys)]
        # A missing key is either tombstoned (resurrect it) or new.
        fresh = drop_sorted(missing, self._removed)
        self._removed = drop_sorted(self._removed, missing)
        self._added = merge_sorted(self._added, fresh)
        self._version += 1
        return int(missing.size)

    def remove_edges(self, edges) -> int:
        """Delete edges; returns how many actually existed."""
        keys = self._delta_keys(edges)
        if keys is None:
            return 0
        present = keys[self._contains(keys)]
        # A present key either sits in the delta layer (retract it) or
        # in a segment (tombstone it).
        from_base = drop_sorted(present, self._added)
        self._added = drop_sorted(self._added, present)
        self._removed = merge_sorted(self._removed, from_base)
        self._version += 1
        return int(present.size)

    def _delta_keys(self, edges) -> np.ndarray | None:
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            return None
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(
                f"edges must be (k, 2) pairs, got shape {arr.shape}"
            )
        if arr.min() < 0 or arr.max() >= self._n:
            raise GraphError("edge endpoint out of range")
        return sorted_unique(arr[:, 0] * self._n + arr[:, 1])

    def _contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership of sorted unique ``keys`` in the merged view.

        Base membership consults only segments whose interval covers a
        queried key — the same pruning the scan path uses.
        """
        mask = np.zeros(keys.size, dtype=bool)
        for seg in self._segments:
            a, b = np.searchsorted(keys, [seg.key_lo, seg.key_hi + 1])
            if b <= a:
                continue
            arr = self._segment_keys(seg)
            pos = np.searchsorted(arr, keys[a:b])
            pos = np.minimum(pos, arr.shape[0] - 1)
            # |= because machine intervals overlap in key space: a key
            # missing from this segment may live in another machine's.
            mask[a:b] |= np.asarray(arr[pos]) == keys[a:b]
        if self._removed.size:
            mask &= ~np.isin(keys, self._removed, assume_unique=True)
        if self._added.size:
            mask |= np.isin(keys, self._added, assume_unique=True)
        return mask

    # ------------------------------------------------------------------
    # Compaction and hygiene
    # ------------------------------------------------------------------
    @property
    def pending_delta(self) -> int:
        """Delta-layer size: keys awaiting compaction."""
        return int(self._added.size) + int(self._removed.size)

    def compact(self) -> CompactionStats:
        """Fold the delta layer into segment files.

        Only machines whose key set the delta touched are rewritten;
        every other machine's files are untouched (and their mmaps stay
        valid).  The new manifest is committed under a fresh name (see
        the module docstring), then the superseded manifest and segment
        files are unlinked — a crash anywhere leaves the old or the new
        store plus debris for :meth:`sweep_orphans`, never a torn one.
        """
        pending = np.concatenate([self._added, self._removed])
        if pending.size == 0:
            return CompactionStats(0, 0, 0, 0, 0)
        dirty = sorted_unique(self._machine_of(pending)).tolist()
        dirty_set = set(dirty)
        keep = [s for s in self._segments if s.machine not in dirty_set]
        old = [s for s in self._segments if s.machine in dirty_set]
        written: list[SegmentMeta] = []
        bytes_written = 0
        for machine in dirty:
            merged = self.scan(
                Window(
                    0,
                    self._n,
                    machine=int(machine),
                    num_machines=self.num_machines,
                    salt=self.salt,
                )
            )
            new_segs = self._write_machine(int(machine), merged)
            written.extend(new_segs)
            bytes_written += sum(s.count * 8 for s in new_segs)
        segments = sorted(keep + written, key=lambda s: (s.machine, s.key_lo))
        superseded = self._commit(segments)
        self._segments = segments
        folded = self.pending_delta
        self._added = np.empty(0, dtype=np.int64)
        self._removed = np.empty(0, dtype=np.int64)
        self._unlink(superseded)
        for seg in old:
            self._maps.pop(seg.file, None)
            self._unlink(seg.file)
        self.check_intervals()
        return CompactionStats(
            folded_keys=folded,
            machines_rewritten=len(dirty),
            segments_written=len(written),
            segments_deleted=len(old),
            bytes_written=bytes_written,
        )

    def maybe_compact(self, threshold: int = 4096) -> CompactionStats | None:
        """Compact when the delta layer has reached ``threshold`` keys.

        The periodic-compaction hook the live refresh pipeline calls
        off the query path; returns ``None`` when below threshold.
        """
        if self.pending_delta < max(int(threshold), 1):
            return None
        return self.compact()

    @property
    def manifest_file(self) -> str:
        """Name of the manifest this store committed or opened."""
        return _manifest_name(self._seq)

    def segment_files(self) -> list[str]:
        """Manifest-owned segment file names (sorted)."""
        return sorted(seg.file for seg in self._segments)

    def list_segment_files(self) -> list[str]:
        """Every ``seg-*.npy`` file present in the directory (sorted)."""
        return sorted(p.name for p in self.directory.glob(_SEGMENT_GLOB))

    def sweep_orphans(self) -> list[str]:
        """Unlink segment files the manifest no longer owns, every other
        manifest and every manifest tmp file.

        Mirrors :meth:`~repro.cluster.SharedArena.sweep_orphans`: a
        crash during a commit strands new segments and a tmp file (before
        the rename) or the old manifest and segments (after it); the
        sweep reclaims them.  Returns the names it removed.
        """
        owned = set(seg.file for seg in self._segments)
        stale = [name for name in self.list_segment_files() if name not in owned]
        stale += sorted(
            path.name
            for path in self.directory.glob(_MANIFEST_GLOB)
            if path.name != self.manifest_file
        )
        swept = []
        for name in stale:
            try:
                os.unlink(self.directory / name)
            except OSError:
                continue
            swept.append(name)
        return swept

    def check_intervals(self) -> None:
        """Re-verify the interval-pruning proof obligation.

        Every segment's keys must be sorted and lie inside its manifest
        interval, intervals of one machine must be disjoint, and every
        key must hash to its segment's machine — together these make
        interval pruning exact.  Raises :class:`~repro.errors.
        GraphError` on any violation (a corrupted or foreign file).
        """
        by_machine: dict[int, list[SegmentMeta]] = {}
        for seg in self._segments:
            if seg.count == 0:
                raise GraphError(f"segment {seg.file} is empty")
            arr = self._segment_keys(seg)
            if arr.shape[0] != seg.count:
                raise GraphError(
                    f"segment {seg.file} holds {arr.shape[0]} keys, "
                    f"manifest says {seg.count}"
                )
            first, last = int(arr[0]), int(arr[-1])
            if first < seg.key_lo or last > seg.key_hi:
                raise GraphError(
                    f"segment {seg.file} violates its interval: keys "
                    f"[{first}, {last}] outside [{seg.key_lo}, "
                    f"{seg.key_hi}]"
                )
            if arr.shape[0] > 1 and not bool(
                (np.asarray(arr[1:]) > np.asarray(arr[:-1])).all()
            ):
                raise GraphError(f"segment {seg.file} keys not sorted")
            by_machine.setdefault(seg.machine, []).append(seg)
        for machine, segs in by_machine.items():
            segs = sorted(segs, key=lambda s: s.key_lo)
            for prev, cur in zip(segs, segs[1:]):
                if cur.key_lo <= prev.key_hi:
                    raise GraphError(
                        f"machine {machine} segments overlap: "
                        f"{prev.file} and {cur.file}"
                    )

    def nbytes_on_disk(self) -> int:
        """Total bytes of the manifest-owned segment files."""
        return sum(seg.count * 8 for seg in self._segments)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _machine_of(self, keys: np.ndarray) -> np.ndarray:
        from ..cluster.partition import stable_hash_machines

        return stable_hash_machines(keys, self.num_machines, self.salt)

    def _segment_keys(self, seg: SegmentMeta) -> np.ndarray:
        """The mmap'd key array of one segment (cached handle)."""
        arr = self._maps.get(seg.file)
        if arr is None:
            arr = np.load(self.directory / seg.file, mmap_mode="r")
            self._maps[seg.file] = arr
        return arr

    def _write_machine(
        self, machine: int, keys: np.ndarray
    ) -> list[SegmentMeta]:
        """Write one machine's sorted keys as fresh segment files."""
        segments: list[SegmentMeta] = []
        for start in range(0, int(keys.size), self.segment_edges):
            chunk = keys[start : start + self.segment_edges]
            self._epoch += 1
            name = f"seg-{self._epoch:08d}-m{machine}.npy"
            np.save(self.directory / name, np.ascontiguousarray(chunk))
            segments.append(
                SegmentMeta(
                    machine=int(machine),
                    key_lo=int(chunk[0]),
                    key_hi=int(chunk[-1]),
                    count=int(chunk.size),
                    file=name,
                )
            )
        return segments

    def _commit(self, segments: list[SegmentMeta]) -> str:
        """Write the manifest naming ``segments`` and commit it by a
        rename to a fresh name; returns the superseded manifest's name.

        No ``fsync``: the contract is process-crash atomicity (module
        docstring).
        """
        manifest = {
            "num_vertices": self._n,
            "num_machines": self.num_machines,
            "salt": self.salt,
            "segment_edges": self.segment_edges,
            "version": self._version,
            "epoch": self._epoch,
            "segments": [seg.as_dict() for seg in segments],
        }
        superseded = self.manifest_file
        name = _manifest_name(self._seq + 1)
        tmp = self.directory / (name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        os.rename(tmp, self.directory / name)
        self._seq += 1
        return superseded

    def _unlink(self, name: str) -> None:
        try:
            os.unlink(self.directory / name)
        except OSError:
            pass  # an orphan; the sweep reclaims it

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentStore(n={self._n}, m={self.num_edges}, "
            f"machines={self.num_machines}, "
            f"segments={len(self._segments)}, "
            f"pending={self.pending_delta}, version={self._version})"
        )
