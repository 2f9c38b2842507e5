"""Graph input: SNAP edge lists.

SNAP edge lists are the format LiveJournal and Twitter are distributed
in: plain text, one ``source<whitespace>target`` pair per line, ``#``
comments.  Vertex ids need not be contiguous; they are compacted and the
mapping is returned.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..errors import GraphFormatError
from .builder import from_edges
from .digraph import DiGraph

__all__ = ["read_edge_list"]


def read_edge_list(
    path: str | os.PathLike[str],
    comments: str = "#",
    repair_dangling: str = "self-loop",
    return_mapping: bool = False,
) -> DiGraph | tuple[DiGraph, np.ndarray]:
    """Read a SNAP-style whitespace-separated edge list.

    Vertex ids are compacted to ``0..n-1`` in sorted order of the original
    ids.  With ``return_mapping=True`` the original id of each compact
    vertex is returned alongside the graph.
    """
    sources: list[int] = []
    targets: list[int] = []
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'source target', got {line!r}"
                )
            try:
                sources.append(int(parts[0]))
                targets.append(int(parts[1]))
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id in {line!r}"
                ) from exc
    if not sources:
        raise GraphFormatError(f"{path}: no edges found")

    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    original_ids, compact = np.unique(np.concatenate([src, dst]), return_inverse=True)
    src_c = compact[: src.size]
    dst_c = compact[src.size :]
    graph = from_edges(
        np.column_stack([src_c, dst_c]),
        num_vertices=original_ids.size,
        repair_dangling=repair_dangling,
    )
    if return_mapping:
        return graph, original_ids
    return graph
