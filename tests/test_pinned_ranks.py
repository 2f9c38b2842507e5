"""GraphLab PR's answers, pinned: the exact bytes of every rank vector.

``test_pinned_reports.py`` pins what the baseline *costs*; this file
pins what it *answers*.  For every GraphLab-PR case there (1, 4 and 16
machines; 1, 2 iterations and converged; the straggler cost model) and
for sparsified PR, ``data/graphlab_ranks_1cb55f6.json`` holds
``sha256(ranks.tobytes())`` as commit 1cb55f6 computed it.  A hash
that moves is a changed answer, down to the last bit of one float.

``python tests/test_pinned_ranks.py`` rewrites the file from today's
``src``; a diff in it is a changed answer.
"""

import hashlib
import json
import pathlib

import pytest

from test_pinned_reports import CASES

PINNED_PATH = (
    pathlib.Path(__file__).parent / "data" / "graphlab_ranks_1cb55f6.json"
)

RANK_CASES = sorted(
    name for name in CASES if "graphlab" in name or name == "sparsified-m4"
)


def rank_digest(result) -> str:
    return hashlib.sha256(result.ranks.tobytes()).hexdigest()


def test_every_baseline_case_is_pinned():
    assert len(RANK_CASES) == 11
    assert sorted(json.loads(PINNED_PATH.read_text())) == RANK_CASES


@pytest.mark.parametrize("name", RANK_CASES)
def test_ranks_are_pinned(name):
    pinned = json.loads(PINNED_PATH.read_text())[name]
    assert rank_digest(CASES[name]()) == pinned


if __name__ == "__main__":
    PINNED_PATH.write_text(
        json.dumps(
            {name: rank_digest(CASES[name]()) for name in RANK_CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
