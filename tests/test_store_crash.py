"""A compaction killed at every filesystem call leaves a consistent store.

``SegmentStore.compact`` writes its new segment files, writes the next
manifest to a ``.tmp`` file and renames it to a manifest name that has
never existed (the commit point), then unlinks the superseded manifest
and segments.  These tests kill it at the k-th of those calls for every
k — a torn segment or tmp write, a missing rename, a missing unlink —
and reopen the directory the way a restarted process would:

* the reopened store holds exactly the pre- or the post-compaction edge
  set (the post set once the rename has happened, the pre set before),
  and its version is the one committed with that set, never an older
  one;
* after ``sweep_orphans()`` the directory holds one manifest and only
  the segment files it names;
* the reopened store commits again over the debris, with or without a
  sweep first.

A kill is an exception the store does not catch (it swallows
``OSError`` from unlinks), raised instead of the call; a killed
``np.save`` or manifest write leaves a partial file behind.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.graph import twitter_like
from repro.store import SegmentStore, keys_to_edges

GRAPH = twitter_like(n=300, seed=3)


class Killed(Exception):
    """The simulated death of the process at one filesystem call."""


class FileSystem:
    """Counts the store's filesystem calls and kills the k-th one.

    ``calls`` lists ``(kind, name)`` for every call seen: ``save`` (a
    segment file), ``write`` (the manifest tmp file), ``rename`` (named
    by its target) and ``unlink``.
    """

    def __init__(self, monkeypatch, kill_at=None):
        self.calls = []
        self.kill_at = kill_at
        wrap = self._wrap
        monkeypatch.setattr(np, "save", wrap("save", np.save, _torn_save))
        monkeypatch.setattr(
            json, "dump", wrap("write", json.dump, _torn_dump, path_arg=1)
        )
        monkeypatch.setattr(os, "rename", wrap("rename", os.rename, path_arg=1))
        monkeypatch.setattr(os, "unlink", wrap("unlink", os.unlink))

    def _wrap(self, kind, real, torn=None, path_arg=0):
        def call(*args, **kwargs):
            target = args[path_arg]
            name = Path(getattr(target, "name", target)).name
            self.calls.append((kind, name))
            if len(self.calls) == self.kill_at:
                if torn is not None:
                    torn(*args)
                raise Killed(f"killed at call {self.kill_at}: {kind} {name}")
            return real(*args, **kwargs)

        return call


def _torn_save(path, array):
    Path(path).write_bytes(np.lib.format.MAGIC_PREFIX)


def _torn_dump(manifest, handle):
    handle.write(json.dumps(manifest)[:40])


def _delta_edges(rng, store, count):
    n = store.num_vertices
    added = rng.integers(0, n, size=(count, 2), dtype=np.int64)
    existing = keys_to_edges(store.edge_keys(), n)
    return added[added[:, 0] != added[:, 1]], existing[::9]


class Scenario:
    """A store with one committed compaction and a pending delta.

    ``pre`` / ``pre_version`` are what the directory holds before the
    compaction under test, ``post`` / ``post_version`` what it holds
    after it.
    """

    def __init__(self, directory):
        rng = np.random.default_rng(11)
        store = SegmentStore.create(
            directory, source=GRAPH, num_machines=4, segment_edges=128
        )
        added, removed = _delta_edges(rng, store, 60)
        store.remove_edges(removed)
        store.add_edges(added)
        store.compact()
        self.pre = store.edge_keys().copy()
        self.pre_version = store.version
        self.added, self.removed = _delta_edges(rng, store, 80)
        self.apply(store)
        self.post = store.edge_keys().copy()
        self.post_version = store.version
        self.store = store

    def apply(self, store):
        store.remove_edges(self.removed)
        store.add_edges(self.added)


def _clean_run_calls(tmp_path, monkeypatch):
    scenario = Scenario(tmp_path / "clean")
    with monkeypatch.context() as patch:
        fs = FileSystem(patch)
        scenario.store.compact()
    return fs.calls


def _listing(directory):
    return sorted(path.name for path in Path(directory).iterdir())


def _assert_clean(store):
    """One manifest and only the segment files it names."""
    assert _listing(store.directory) == sorted(
        [store.manifest_file, *store.segment_files()]
    )


def test_the_commit_order(tmp_path, monkeypatch):
    """Segments, tmp write, rename to a fresh manifest name, then the
    superseded manifest, then the superseded segments."""
    scenario = Scenario(tmp_path / "s")
    old_manifest = scenario.store.manifest_file
    old_segments = set(scenario.store.segment_files())
    with monkeypatch.context() as patch:
        fs = FileSystem(patch)
        stats = scenario.store.compact()
    kinds = [kind for kind, _ in fs.calls]
    saves, unlinks = stats.segments_written, stats.segments_deleted
    assert saves > 1 and unlinks > 1
    assert kinds == (
        ["save"] * saves + ["write", "rename"] + ["unlink"] * (1 + unlinks)
    )
    new_manifest = scenario.store.manifest_file
    assert new_manifest != old_manifest
    assert fs.calls[saves + 1] == ("rename", new_manifest)
    assert fs.calls[saves + 2] == ("unlink", old_manifest)
    assert {name for _, name in fs.calls[saves + 3:]} == old_segments - set(
        scenario.store.segment_files()
    )
    _assert_clean(scenario.store)


def test_a_kill_at_every_call_leaves_the_old_or_the_new_store(
    tmp_path, monkeypatch
):
    calls = _clean_run_calls(tmp_path, monkeypatch)
    commit = [kind for kind, _ in calls].index("rename") + 1
    for kill_at in range(1, len(calls) + 1):
        where = f"killed at call {kill_at} ({calls[kill_at - 1][0]})"
        scenario = Scenario(tmp_path / f"k{kill_at}")
        with monkeypatch.context() as patch:
            FileSystem(patch, kill_at=kill_at)
            with pytest.raises(Killed):
                scenario.store.compact()
        reopened = SegmentStore(scenario.store.directory)
        committed = kill_at > commit
        expected = scenario.post if committed else scenario.pre
        assert np.array_equal(reopened.edge_keys(), expected), where
        assert reopened.version == (
            scenario.post_version if committed else scenario.pre_version
        ), where
        assert reopened.version >= scenario.pre_version, where
        reopened.sweep_orphans()
        _assert_clean(reopened)

        # The restarted process commits again from what it found.
        version = reopened.version
        scenario.apply(reopened)
        reopened.compact()
        _assert_clean(reopened)
        again = SegmentStore(reopened.directory)
        assert np.array_equal(again.edge_keys(), scenario.post), where
        assert again.version >= version, where


@pytest.mark.parametrize("kind", ["save", "write", "rename"])
def test_a_commit_over_unswept_debris(tmp_path, monkeypatch, kind):
    """Killed before the rename and reopened with its torn segment or
    tmp file still there, the store's next commit wins; the sweep then
    leaves only what that commit names."""
    calls = _clean_run_calls(tmp_path, monkeypatch)
    kill_at = [k for k, _ in calls].index(kind) + 1
    scenario = Scenario(tmp_path / kind)
    with monkeypatch.context() as patch:
        FileSystem(patch, kill_at=kill_at)
        with pytest.raises(Killed):
            scenario.store.compact()
    reopened = SegmentStore(scenario.store.directory)
    assert np.array_equal(reopened.edge_keys(), scenario.pre)
    scenario.apply(reopened)
    reopened.compact()
    again = SegmentStore(reopened.directory)
    assert again.manifest_file == reopened.manifest_file
    assert np.array_equal(again.edge_keys(), scenario.post)
    again.sweep_orphans()
    _assert_clean(again)


def test_tmp_files_and_foreign_names_are_not_manifests(tmp_path):
    """The opener reads the highest-numbered committed manifest: a
    higher-numbered ``.tmp`` file is ignored, and so is a file without
    the manifest name's shape."""
    store = SegmentStore.create(tmp_path / "s", source=GRAPH)
    directory = store.directory
    (directory / "manifest-99999999.json.tmp").write_text("{")
    (directory / "manifest-latest.json").write_text("{")
    reopened = SegmentStore(directory)
    assert reopened.manifest_file == store.manifest_file
    assert np.array_equal(reopened.edge_keys(), store.edge_keys())
    assert sorted(reopened.sweep_orphans()) == [
        "manifest-99999999.json.tmp",
        "manifest-latest.json",
    ]
    _assert_clean(reopened)


def test_a_directory_without_a_manifest_is_refused(tmp_path):
    from repro.errors import ConfigError

    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(ConfigError, match="not a SegmentStore"):
        SegmentStore(tmp_path)
