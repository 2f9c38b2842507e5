"""Packaging checks for the example scripts.

Each example must import cleanly against the installed package (no
stale API references) and expose a ``main()`` entry point guarded by
``__main__``.  Full executions are exercised manually / in EXPERIMENTS
runs — they are minutes of simulated-cluster work, not unit tests.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(path.stem, None)
    return module


class TestExamples:
    def test_expected_examples_present(self):
        names = {path.stem for path in EXAMPLE_FILES}
        assert {
            "quickstart",
            "personalized_search",
            "dynamic_rank_tracking",
            "fault_tolerant_ranking",
            "activity_stream",
        } <= names

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_imports_and_defines_main(self, path):
        module = _load(path)
        assert callable(getattr(module, "main", None)), (
            f"{path.name} must define main()"
        )

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_main_guard_present(self, path):
        """Importing an example must not execute the workload."""
        tree = ast.parse(path.read_text(encoding="utf-8"))
        guards = [
            node
            for node in tree.body
            if isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and getattr(node.test.left, "id", "") == "__name__"
        ]
        assert guards, f"{path.name} lacks an if __name__ guard"

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_docstring_has_usage(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstring = ast.get_docstring(tree) or ""
        assert "Usage" in docstring, f"{path.name} docstring lacks Usage"
