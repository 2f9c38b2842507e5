"""The serving benchmarks' JSON perf-record file (``experiments.perf``)."""

import json

import numpy as np
import pytest

from repro.experiments.perf import default_perf_path, load_perf, record_perf


@pytest.fixture
def perf_file(tmp_path):
    return tmp_path / "perf.json"


class TestPath:
    def test_default_is_cwd_rooted(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_PATH", raising=False)
        assert str(default_perf_path()) == "BENCH_serving.json"

    def test_environment_overrides(self, monkeypatch, perf_file):
        monkeypatch.setenv("REPRO_PERF_PATH", str(perf_file))
        assert default_perf_path() == perf_file
        record_perf("bench", {"ms": 1.5})
        assert set(load_perf()) == {"bench"}
        assert perf_file.exists()


class TestLoad:
    def test_missing_file_reads_empty(self, perf_file):
        assert load_perf(perf_file) == {}

    @pytest.mark.parametrize(
        "content", ["{not json", "[1, 2, 3]", '"text"', ""],
        ids=["corrupt", "list", "string", "empty"],
    )
    def test_foreign_content_reads_empty(self, perf_file, content):
        perf_file.write_text(content)
        assert load_perf(perf_file) == {}

    def test_non_dict_records_are_dropped(self, perf_file):
        perf_file.write_text(json.dumps({"good": {"ms": 1}, "bad": [1]}))
        assert load_perf(perf_file) == {"good": {"ms": 1}}


class TestRecord:
    def test_stamps_and_returns_the_path(self, perf_file):
        assert record_perf("bench", {"ms": 2.0}, perf_file) == perf_file
        record = load_perf(perf_file)["bench"]
        assert record["ms"] == 2.0
        assert record["recorded_unix"] > 0

    def test_other_records_survive_and_named_one_is_replaced(self, perf_file):
        record_perf("a", {"ms": 1.0, "qps": 10.0}, perf_file)
        record_perf("b", {"ms": 5.0}, perf_file)
        record_perf("a", {"ms": 3.0}, perf_file)
        records = load_perf(perf_file)
        assert set(records) == {"a", "b"}
        assert "qps" not in records["a"]
        assert records["a"]["ms"] == 3.0
        assert records["b"]["ms"] == 5.0

    def test_numpy_scalars_become_plain_json(self, perf_file):
        record_perf(
            "bench",
            {"n": np.int64(7), "ms": np.float32(0.5), "ok": np.bool_(True),
             "label": "x", "none": None},
            perf_file,
        )
        record = json.loads(perf_file.read_text())["bench"]
        assert record["n"] == 7 and isinstance(record["n"], int)
        assert record["ms"] == 0.5
        assert record["ok"] is True
        assert record["label"] == "x"
        assert record["none"] is None

    def test_overwrites_a_corrupt_file(self, perf_file):
        perf_file.write_text("{broken")
        record_perf("bench", {"ms": 1.0}, perf_file)
        assert set(load_perf(perf_file)) == {"bench"}
