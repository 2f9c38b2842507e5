#!/usr/bin/env python3
"""One benchmark for the whole stack.

Two ways to run it, both from the repository root:

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``
    One workload in this process (the contract ``BENCHMARK.json``
    describes).  Prints every metric by name with its unit, runs the
    correctness gates, and ends with one JSON line: ``--trace 0`` gives
    the end-to-end metrics, ``--trace 1`` the per-layer metrics.

``python3 bench/run.py [--seed S] [--repeats 3] [--smoke] [--trace]``
    The whole suite: every workload in a fresh child process,
    interleaved ``W1..W5`` x repeats so host drift hits all workloads
    alike; medians with min/max, a cross-repeat answer-digest gate, a
    result file under ``bench/results/`` and one appended line in
    ``bench/trajectory.jsonl``.  ``--selfcheck`` runs two sets of the
    same code and feeds them to ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

# Whether the kernel can back numpy's large arrays with transparent huge
# pages differs from process to process and moved global-topk by +-9%
# between identical runs; without the madvise every run reads alike.
# Must be set before numpy is imported (workers inherit it).
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402

#: Systems built per run; ``setup_s`` is the median of their build times.
SETUP_REPEATS = 5


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, trace_path=None) -> dict:
    """Run one workload in this process; returns the full detail record."""
    import workloads  # imports the program: fails fast if src/ is absent

    rss_after_import_kb = harness.proc_status_kb("VmRSS")
    spec = harness.load_benchmark_spec()
    wl = workloads.WORKLOADS[name](seed, smoke)

    start = time.perf_counter()
    wl.generate()
    build_s = time.perf_counter() - start

    host_probe_ms = [harness.host_probe_ms()]
    setup_s = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - start)
        if attempt == 0:
            wl.reference = wl.reference_digest()
        if attempt < SETUP_REPEATS - 1:
            wl.teardown()
    try:
        wl.warmup()
        if trace:
            wl.measure(0.4 * seconds, wl.plain)
            wl.install_trace()
            wl.tracer.enabled = True
            try:
                wl.measure(0.6 * seconds, wl.traced)
            finally:
                wl.tracer.enabled = False
                wl.tracer.restore()
        else:
            wl.measure(seconds, wl.plain)
        wl.check()
        layer = {}
        if trace:
            layer = wl.per_layer()
            layer["graph.generators.build_s"] = build_s
            layer["bench.trace_overhead_share"] = wl.trace_overhead()
    finally:
        wl.teardown()
    if trace and trace_path is not None:
        wl.tracer.dump(trace_path)

    samples = [wl.plain, wl.traced]
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    if wl.gates:
        # A failed gate means the answers cannot be trusted: every op of
        # the run counts as failed.
        failed = attempted
    rss_growth_mb = (
        harness.proc_status_kb("VmHWM") - rss_after_import_kb
    ) / 1024.0
    host_probe_ms.append(harness.host_probe_ms())
    if trace:
        layer["bench.host_probe_ms"] = harness.median(host_probe_ms)

    if trace:
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        unknown = sorted(set(layer) - set(values))
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
        values.update(layer)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = wl.end_to_end(harness.median(setup_s), rss_growth_mb)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "workload": name,
        "trace": bool(trace),
        "seconds": seconds,
        "fingerprint": harness.fingerprint(seed, smoke),
        "correct": not wl.gates and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "gates": wl.gates,
        "errors": wl.errors,
        "digests": wl.digests,
        "setup_s": setup_s,
        # Before and after the run; 25 ms on the reference host when quiet.
        "host_probe_ms": host_probe_ms,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in values.items()
        },
    }


def print_metrics(record: dict) -> None:
    for key, metric in record["metrics"].items():
        print(f"{key:48s} {metric['value']:.6g} {metric['unit']}")
    before, after = record["host_probe_ms"]
    print(f"# host probe {before:.1f} ms before, {after:.1f} ms after "
          "(25 ms = reference host when quiet)")
    for message in record["gates"]:
        print(f"GATE FAILED: {message}")
    for error in record["errors"]:
        print(error)


def contract_main(args) -> int:
    """One workload; the last stdout line is the driver's JSON object."""
    trace_path = None
    if args.trace:
        harness.RESULTS_DIR.mkdir(exist_ok=True)
        trace_path = harness.RESULTS_DIR / f"trace-{args.workload}.jsonl"
    record = run_one(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, trace_path=trace_path,
    )
    print(json.dumps(record["fingerprint"]))
    print_metrics(record)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# Suite mode
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, detail: Path) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--detail", str(detail),
    ]
    if smoke:
        command.append("--smoke")
    # Its own process group, so a child that overruns is killed together
    # with the workers it started.
    child = subprocess.Popen(
        command, cwd=BENCH_DIR.parent, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=harness.CHILD_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except OSError:
            pass
        child.communicate()
        raise
    if not detail.exists():
        raise SystemExit(
            f"{workload} child exited {child.returncode} without a result:\n"
            f"{stdout}\n{stderr}"
        )
    with open(detail, encoding="utf-8") as handle:
        record = json.load(handle)
    detail.unlink()
    return record


def run_suite(args, tag: str) -> dict:
    """Interleaved repeats of every workload, aggregated per metric."""
    spec = harness.load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or (1.0 if args.smoke else spec["run_seconds"])
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{tag}"
    scratch = harness.RESULTS_DIR / f"{run_id}.child.json"

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:
            record = run_child(
                name, args.seed, seconds, False, args.smoke, scratch
            )
            runs[name].append(record)
            print(
                f"[{tag}] repeat {repeat + 1}/{args.repeats} {name}: "
                f"correct={record['correct']} failed={record['failed']}"
            )
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = run_child(
                name, args.seed, seconds, True, args.smoke, scratch
            )

    return {
        "run_id": run_id,
        "fingerprint": runs[names[0]][0]["fingerprint"],
        "seconds": seconds,
        "repeats": args.repeats,
        "workloads": aggregate(runs, traced, spec),
    }


def aggregate(runs: dict, traced: dict, spec: dict) -> dict:
    """Per workload: medians with min/max, the digest gate, the verdict.

    ``runs[name]`` are the untraced records of one workload (one per
    repeat), ``traced[name]`` its optional traced record.
    """
    out = {}
    for name, records in runs.items():
        gates = [g for r in records for g in r["gates"]]
        digests = {tuple(r["digests"]) for r in records}
        if len(digests) != 1:
            gates.append("answer digests differ between repeats")
        attempted = sum(r["attempted"] for r in records)
        failed = attempted if gates else sum(r["failed"] for r in records)
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            metrics[metric["name"]] = {
                "unit": metric["unit"],
                "median": harness.median(values),
                "min": min(values),
                "max": max(values),
                "values": values,
            }
        entry = {
            "correct": not gates and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "gates": gates,
            "digests": sorted(digests)[0],
            "end_to_end": metrics,
        }
        if name in traced:
            entry["per_layer"] = traced[name]["metrics"]
            entry["gates"] = gates + traced[name]["gates"]
            entry["correct"] = entry["correct"] and traced[name]["correct"]
        out[name] = entry
    return out


def print_suite(result: dict) -> None:
    print(json.dumps(result["fingerprint"]))
    for name, entry in result["workloads"].items():
        print(f"\n== {name}  correct={entry['correct']} "
              f"failed_share={entry['failed_share']:.4f}")
        for key, m in entry["end_to_end"].items():
            print(
                f"  {key:46s} {m['median']:.6g} {m['unit']} "
                f"(min {m['min']:.6g}, max {m['max']:.6g})"
            )
        for key, m in entry.get("per_layer", {}).items():
            print(f"  {key:46s} {m['value']:.6g} {m['unit']}")
        for message in entry["gates"]:
            print(f"  GATE FAILED: {message}")


def save_suite(result: dict) -> Path:
    path = harness.RESULTS_DIR / f"{result['run_id']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    line = {
        "run_id": result["run_id"],
        "fingerprint": result["fingerprint"],
        "seconds": result["seconds"],
        "repeats": result["repeats"],
        "workloads": {
            name: {
                "failed_share": entry["failed_share"],
                **{k: m["median"] for k, m in entry["end_to_end"].items()},
            }
            for name, entry in result["workloads"].items()
        },
    }
    if not result["fingerprint"]["smoke"]:
        # Smoke numbers say nothing about performance; keep them out of
        # the trajectory.
        with open(
            BENCH_DIR / "trajectory.jsonl", "a", encoding="utf-8"
        ) as handle:
            handle.write(json.dumps(line) + "\n")
    return path


def suite_main(args) -> int:
    import compare

    tags = ["A", "B"] if args.selfcheck else ["run"]
    paths = []
    ok = True
    for tag in tags:
        result = run_suite(args, tag)
        print_suite(result)
        paths.append(save_suite(result))
        print(f"\nwrote {paths[-1]}")
        ok = ok and all(e["correct"] for e in result["workloads"].values())
    if args.selfcheck:
        ok = compare.main([str(paths[0]), str(paths[1])]) == 0 and ok
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int,
        help="--trace 1 (or bare --trace): add the traced per-layer pass",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and short runs (tests only)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--detail", help="also write the full record here")
    args = parser.parse_args(argv)
    try:
        if args.workload:
            if args.seconds is None:
                args.seconds = harness.load_benchmark_spec()["run_seconds"]
            return contract_main(args)
        return suite_main(args)
    finally:
        # No process this run started may outlive it, on any path out.
        harness.stop_children()


if __name__ == "__main__":
    sys.exit(main())
