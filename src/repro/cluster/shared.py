"""Shared-memory arenas: zero-copy graph state across OS processes.

The multi-process execution backend puts every large read-only array —
the graph's CSR arrays and each shard's :class:`ReplicationTable`
components — into a single named ``multiprocessing.shared_memory``
segment per *arena*.  Worker processes receive only a tiny picklable
:class:`ArenaSpec` (segment name, epoch tag and an entry table of
``(key, dtype, shape, offset)`` rows) and map the segment back into
numpy views without copying or pickling a single array element.

Lifecycle contract:

* the **owner** (the parent process) calls :meth:`SharedArena.create`,
  which allocates the segment, copies the arrays in once, and later
  :meth:`SharedArena.destroy`\\ s it (close + unlink);
* **workers** call :meth:`SharedArena.attach` with the spec and
  :meth:`SharedArena.close` when told to drop an epoch; they never
  unlink.

Attached views are marked read-only: shared graph state is immutable
within an epoch by design (a refresh publishes a *new* arena under a
new epoch tag rather than mutating a mapped one), and a stray write
from a worker would silently corrupt every other process.

Epoch tagging is what makes live refresh safe: each
:meth:`~repro.live.LiveRankingService.refresh` materializes fresh
arenas tagged with the new epoch id and workers attach them; the parent
retires the old epoch's segments only once no batch is pinned to it,
so a batch only ever runs against the single epoch it was dispatched
under.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import ConfigError

__all__ = ["ArenaSpec", "SharedArena"]

#: Default segment-name prefix.  Owners that need a sweepable
#: namespace (one they can enumerate and garbage-collect after a
#: worker crash) pass their own prefix to :meth:`SharedArena.create`
#: and hand it to :meth:`SharedArena.sweep_orphans`.
DEFAULT_PREFIX = "repro-arena"

#: Where named POSIX shared-memory segments appear as files (Linux).
#: On platforms without it the sweep helpers degrade to no-ops — the
#: resource tracker remains the backstop there.
_SHM_DIR = "/dev/shm"

_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable manifest of one shared-memory arena.

    ``entries`` rows are ``(key, dtype_str, shape, offset)``; dtype is
    the numpy ``dtype.str`` spelling (endianness included) so the
    attach side reconstructs byte-identical views.
    """

    name: str
    epoch: int
    size: int
    entries: tuple[tuple[str, str, tuple[int, ...], int], ...]

    def keys(self) -> tuple[str, ...]:
        return tuple(entry[0] for entry in self.entries)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without adopting cleanup responsibility.

    Python's ``resource_tracker`` assumes every process that opens a
    segment co-owns it and unlinks "leaked" segments at interpreter
    exit — wrong for our attach side, where the parent owns the
    lifecycle.  3.13+ has ``track=False``; earlier versions need the
    unregister workaround.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # Pre-3.13: suppress the constructor's tracker registration rather
    # than unregistering afterwards — with a forked worker sharing the
    # parent's tracker daemon, register-then-unregister would *remove*
    # the owner's registration and make the owner's eventual unlink
    # complain about an unknown segment.
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shared_memory(tracked_name, rtype):
        if rtype != "shared_memory":
            original(tracked_name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SharedArena:
    """A dict of numpy arrays living in one named shared-memory segment."""

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        spec: ArenaSpec,
        owner: bool,
    ) -> None:
        self._segment = segment
        self.spec = spec
        self.owner = owner
        self._arrays: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        arrays: dict[str, np.ndarray],
        epoch: int = 0,
        name: str | None = None,
        prefix: str = DEFAULT_PREFIX,
    ) -> "SharedArena":
        """Allocate a segment and copy ``arrays`` in (owner side).

        ``prefix`` namespaces the generated segment name
        (``{prefix}-{epoch}-{random}``): a backend that creates all its
        arenas under one per-instance prefix can later enumerate and
        sweep exactly its own segments (:meth:`sweep_orphans`) without
        touching arenas owned by other pools in the same host.
        """
        if not arrays:
            raise ConfigError("an arena needs at least one array")
        entries: list[tuple[str, str, tuple[int, ...], int]] = []
        offset = 0
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = _aligned(offset)
            entries.append((key, array.dtype.str, array.shape, offset))
            offset += array.nbytes
        size = max(offset, 1)
        if name is None:
            name = f"{prefix}-{epoch}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=size
        )
        spec = ArenaSpec(
            name=segment.name,
            epoch=epoch,
            size=size,
            entries=tuple(entries),
        )
        arena = cls(segment, spec, owner=True)
        views = arena.arrays
        for key, array in arrays.items():
            views[key][...] = np.ascontiguousarray(array)
        return arena

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "SharedArena":
        """Map an existing arena from its spec (worker side)."""
        return cls(_attach_segment(spec.name), spec, owner=False)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy views into the segment, keyed per the spec.

        Owner views stay writable (the owner fills them once at
        creation); attached views are read-only — within an epoch the
        shared state is immutable, and refreshes publish new arenas.
        """
        if self._arrays is None:
            views: dict[str, np.ndarray] = {}
            for key, dtype, shape, offset in self.spec.entries:
                count = int(np.prod(shape, dtype=np.int64))
                view = np.frombuffer(
                    self._segment.buf,
                    dtype=np.dtype(dtype),
                    count=count,
                    offset=offset,
                ).reshape(shape)
                if not self.owner:
                    view.flags.writeable = False
                views[key] = view
            self._arrays = views
        return self._arrays

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (both sides; never unlinks).

        Live numpy views pin the underlying mmap — if any outlive the
        arena object the close is deferred to process exit, which is
        safe (the owner's unlink already happened or will happen
        independently).
        """
        self._arrays = None
        try:
            self._segment.close()
        except BufferError:
            # Views still alive: defer the mapping release to process
            # exit (the OS reclaims it) and disarm the segment's
            # destructor so interpreter shutdown stays silent.
            self._segment._buf = None
            self._segment._mmap = None

    def destroy(self) -> None:
        """Close and unlink the segment (owner side only)."""
        self.close()
        if self.owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy() if self.owner else self.close()

    # ------------------------------------------------------------------
    # Orphan accounting
    # ------------------------------------------------------------------
    @staticmethod
    def list_segments(prefix: str) -> list[str]:
        """Names of live shared-memory segments under ``prefix``.

        Reads the kernel's shm directory, so the answer reflects what
        actually exists — including segments whose owning process died
        without unlinking.  Returns an empty list on platforms without
        a browsable shm filesystem.
        """
        if not prefix:
            raise ConfigError("list_segments needs a non-empty prefix")
        if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
            return []
        wanted = prefix + "-"
        return sorted(
            entry
            for entry in os.listdir(_SHM_DIR)
            if entry.startswith(wanted)
        )

    @staticmethod
    def sweep_orphans(
        prefix: str, live: frozenset[str] | set[str] = frozenset()
    ) -> list[str]:
        """Unlink leaked segments under ``prefix``; returns their names.

        A crashed owner (or a worker killed mid-attach) can leave named
        segments behind with nobody holding a handle.  This sweep
        unlinks every ``prefix``-named segment whose name is not in
        ``live`` — the set of segments the caller still owns — and is
        idempotent: segments already gone are skipped silently, so it
        is safe to call from ``close()``, from supervisor respawns and
        from overlapping cleanup paths.  No-op where the shm
        filesystem is not browsable.
        """
        swept: list[str] = []
        for name in SharedArena.list_segments(prefix):
            if name in live:
                continue
            try:
                os.unlink(os.path.join(_SHM_DIR, name))
            except FileNotFoundError:
                continue
            except OSError:  # pragma: no cover - permissions race
                continue
            swept.append(name)
        return swept
