"""Tests of the benchmark itself (``python -m pytest bench/tests``).

Not collected by tier-1 (``testpaths = ["tests"]``): they time real
runs.  A gate that cannot fail is not a gate, so besides the shape of
the output they check that an injected slowdown is reported on the
predicted workload and metric, and on no workload that bypasses it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

SPEC = harness.load_benchmark_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def smoke_suite() -> dict:
    """One ``--smoke --trace`` suite run shared by the shape tests."""
    before = set(harness.RESULTS_DIR.glob("*-run.json"))
    start = time.perf_counter()
    done = bench("--smoke", "--trace", "--repeats", "2", "--seed", "3")
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    (path,) = set(harness.RESULTS_DIR.glob("*-run.json")) - before
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["elapsed_s"] = elapsed
    result["stdout"] = done.stdout
    return result


def test_smoke_emits_every_metric_with_unit(smoke_suite):
    assert smoke_suite["elapsed_s"] <= 60.0
    assert list(smoke_suite["workloads"]) == [
        w["name"] for w in SPEC["workloads"]
    ]
    for name, entry in smoke_suite["workloads"].items():
        assert entry["correct"], (name, entry["gates"])
        assert entry["failed_share"] == 0.0
        for kind, key in (("end_to_end", "median"), ("per_layer", "value")):
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert set(entry[kind]) == set(declared), (name, kind)
            for metric, got in entry[kind].items():
                assert NAME.match(metric), metric
                assert got["unit"] == declared[metric]
                assert isinstance(got[key], float)
                # Printed by name with its unit.
                assert re.search(
                    rf"{re.escape(metric)}\s+\S+ {re.escape(got['unit'])}",
                    smoke_suite["stdout"],
                ), metric
        for metric, got in entry["end_to_end"].items():
            assert got["median"] > 0.0, (name, metric)


def test_workload_separation_in_smoke(smoke_suite):
    layers = {
        name: {k: m["value"] for k, m in entry["per_layer"].items()}
        for name, entry in smoke_suite["workloads"].items()
    }
    assert layers["serve-distinct"]["serving.cache.hit_rate"] == 0.0
    assert layers["live-churn"]["serving.cache.hit_rate"] == 0.5
    assert layers["serve-zipf-open"]["serving.service.cache_served_share"] > 0
    assert layers["serve-process"]["cluster.transport.reconciles"] == 1.0
    assert layers["serve-process"]["serving.supervisor.respawns"] == 0.0
    assert layers["global-topk"]["core.batched.run_ms"] == 0.0
    assert layers["live-churn"]["live.service.refresh_span_coverage"] >= 0.9
    for name in ("global-topk", "serve-distinct", "serve-process", "live-churn"):
        assert layers[name]["serving.service.span_coverage"] >= 0.9, name


def test_contract_mode_last_line():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = bench(
            "--workload", "serve-distinct", "--seed", "5", "--seconds", "1",
            "--trace", trace, "--smoke",
        )
        assert done.returncode == 0, done.stdout + done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert last["attempted"] >= 1 and last["failed"] == 0
        assert set(last["metrics"]) == {m["name"] for m in SPEC[kind]}
        for metric in last["metrics"].values():
            assert set(metric) == {"value", "unit"}


def session_members(sid: int) -> list[str]:
    """Command lines of every process (zombies too) in session ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rpartition(")")[2].split()
            if int(fields[3]) == sid:
                found.append((entry / "cmdline").read_text() or fields[0])
        except OSError:
            continue
    return found


def test_process_workload_leaves_no_process_behind():
    """The pool's workers *and* multiprocessing's resource tracker (which
    by itself only ends after its parent has) are gone at exit."""
    child = subprocess.Popen(
        [*SPEC["command"], "--workload", "serve-process", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=180)
    left = session_members(child.pid)
    assert child.returncode == 0, stdout + stderr
    assert left == []


def test_stop_children_kills_and_reaps_a_straggler():
    straggler = subprocess.Popen([sys.executable, "-c",
                                  "import time; time.sleep(600)"])
    assert straggler.pid in harness.child_pids()
    assert harness.stop_children() == [straggler.pid]
    assert harness.child_pids() == []


def test_quiet_slice_statistics():
    quiet, burst = [10.0, 11.0] * 3, [15.0, 16.0] * 3
    # A burst over most of the window moves the median, not the value.
    window = quiet + burst * 3 + quiet
    assert harness.median(window) == 15.0
    assert harness.quiet_median(window) == 10.5
    # A slowdown of every op moves it in full.
    assert harness.quiet_median([v + 5.0 for v in window]) == 15.5
    # One fluke slice cannot set it.
    assert harness.quiet_median([1.0, 1.0] + window) == 10.5
    assert harness.quiet_median([]) == 0.0 and harness.quiet_median([4]) == 4.0
    ops = [(1.0, 16)] * 4 + [(2.0, 16)] * 8 + [(1.0, 16)] * 4
    assert harness.quiet_rate(ops) == 16.0


def test_no_result_without_the_program(tmp_path):
    """Only BENCHMARK.json + bench/: non-zero exit, no result line."""
    (tmp_path / "bench").mkdir()
    for source in BENCH.glob("*.py"):
        (tmp_path / "bench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    done = subprocess.run(
        [*SPEC["command"], "--workload", "global-topk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def descendants_self_sum(spans: list[Span], root: Span) -> float:
    own = self_times(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    total, stack = 0.0, [root]
    while stack:
        span = stack.pop()
        total += own[span.span_id]
        stack.extend(children.get(span.span_id, ()))
    return total


def test_self_times_sum_to_the_parent():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("op", op=0) as root:
        with tracer.span("a"):
            time.sleep(0.002)
            with tracer.span("a.inner"):
                time.sleep(0.001)
        time.sleep(0.001)
        with tracer.span("b"):
            time.sleep(0.002)
    own = self_times(tracer.spans)
    assert own[root.span_id] >= 0.001
    assert all(value >= 0.0 for value in own.values())
    assert descendants_self_sum(tracer.spans, root) == pytest.approx(
        root.duration, abs=1e-9
    )
    assert {span.op for span in tracer.spans} == {0}


def test_traced_ops_add_up(smoke_suite):
    """In a real trace, a closed-loop op's tree sums to the op's span."""
    path = harness.RESULTS_DIR / "trace-serve-distinct.jsonl"
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            spans.append(
                Span(row["id"], row["name"], row["start"], row["end"],
                     row["parent"], row["op"])
            )
    roots = [s for s in spans if s.name == "serving.service.op"]
    assert roots
    names = {s.name for s in spans}
    assert {"serving.cache.get", "serving.scheduler.dispatch",
            "serving.backend.run_batch", "core.batched.run",
            "core.estimator.topk"} <= names
    for root in roots:
        assert descendants_self_sum(spans, root) == pytest.approx(
            root.duration, abs=1e-9
        )
        assert all(
            s.op == root.op for s in spans
            if s.parent == root.span_id
        )


# ----------------------------------------------------------------------
# compare.py and the vacuity test
# ----------------------------------------------------------------------
def test_verdicts():
    base = [100.0, 101.0, 99.0]
    assert compare.verdict(base, [100.5, 99.5, 101.5], "lower", 0.1) == "unchanged"
    assert compare.verdict(base, [120.0, 121.0, 119.0], "lower", 0.1) == "regression"
    assert compare.verdict(base, [80.0, 81.0, 79.0], "lower", 0.1) == "improved"
    assert compare.verdict(base, [80.0, 81.0, 79.0], "higher", 0.1) == "regression"
    noisy = [100.0, 140.0, 70.0]
    assert compare.verdict(noisy, [105.0, 150.0, 60.0], "lower", 0.1) == "unresolved"
    # Noisy, but every run of B is worse than every run of A.
    assert compare.verdict(noisy, [200.0, 260.0, 150.0], "lower", 0.1) == "regression"


def suite_of(records: dict) -> dict:
    return {"workloads": run.aggregate(records, {}, SPEC)}


def test_injected_slowdown_is_reported_where_predicted(monkeypatch):
    """5 ms in ``TTLCache.get``: serve-zipf-open pays it on every query
    (prediction: ``latency_p50_ms`` regresses); global-topk runs no
    serving code (prediction: no change)."""
    from repro.serving import TTLCache

    names = ("serve-zipf-open", "global-topk")

    def runs() -> dict:
        return {
            name: [
                run.run_one(name, seed=7, seconds=1.0, trace=False, smoke=True)
                for _ in range(3)
            ]
            for name in names
        }

    before = runs()
    original = TTLCache.get

    def slow_get(self, key):
        time.sleep(0.005)
        return original(self, key)

    monkeypatch.setattr(TTLCache, "get", slow_get)
    after = runs()

    rows, failures = compare.compare(suite_of(before), suite_of(after), SPEC)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts[("serve-zipf-open", "latency_p50_ms")] == "regression"
    assert any("serve-zipf-open: latency_p50_ms" in f for f in failures)
    for metric in ("latency_p50_ms", "miss_latency_p50_ms", "throughput_qps",
                   "network_bytes_per_query", "topk_mass_captured"):
        assert verdicts[("global-topk", metric)] != "regression", metric
    # Same code, same seed: counts, accuracy and digests repeat exactly.
    for suite in (suite_of(before), suite_of(after)):
        for name in names:
            entry = suite["workloads"][name]
            assert entry["correct"], entry["gates"]
            for metric in ("network_bytes_per_query", "topk_mass_captured"):
                values = entry["end_to_end"][metric]["values"]
                assert len(set(values)) == 1, (name, metric, values)
