#!/usr/bin/env python3
"""Compare two suite results: ``python3 bench/compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (base: A), and a verdict against the bound
``BENCHMARK.json`` fixes for the metric.

* ``regression`` — B's median is worse than A's by more than the bound,
  and either the run-to-run spread is within the bound or every run of
  B reads worse than every run of A.
* ``improved`` — the mirror image.
* ``unresolved`` — the run-to-run spread exceeds the bound and the two
  sets of runs overlap: the pair is *not* reported as unchanged.
* ``unchanged`` — medians within the bound, spread within the bound.

Exits non-zero on any regression, on a higher ``failed_share``, or when
either result failed its own correctness gates.
"""

from __future__ import annotations

import json
import sys

import harness


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = harness.median(a), harness.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread = max(harness.relative_spread(a), harness.relative_spread(b))
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if worse_by > bound and (spread <= bound or all_worse):
        return "regression"
    if worse_by < -bound and (spread <= bound or all_better):
        return "improved"
    if spread > bound:
        return "unresolved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], list[str]]:
    """Rows for every shared (workload, metric), plus hard failures."""
    rows, failures = [], []
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for label, entry in (("A", wa), ("B", wb)):
            if not entry["correct"]:
                failures.append(f"{name}: {label} failed its gates")
        if wb["failed_share"] > wa["failed_share"]:
            failures.append(
                f"{name}: failed_share rose from {wa['failed_share']:.4f} "
                f"to {wb['failed_share']:.4f}"
            )
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va = wa["end_to_end"][key]["values"]
            vb = wb["end_to_end"][key]["values"]
            qa, qb = harness.quartiles(va), harness.quartiles(vb)
            rows.append(
                {
                    "workload": name,
                    "metric": key,
                    "unit": metric["unit"],
                    "a": qa,
                    "b": qb,
                    "ratio": qb[1] / qa[1] if qa[1] else float("nan"),
                    "bound": metric["bound"],
                    "verdict": verdict(
                        va, vb, metric["better"], metric["bound"]
                    ),
                }
            )
    failures.extend(
        f"{row['workload']}: {row['metric']} regressed "
        f"(B/A = {row['ratio']:.3f}, bound {row['bound']})"
        for row in rows
        if row["verdict"] == "regression"
    )
    return rows, failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    rows, failures = compare(a, b, harness.load_benchmark_spec())
    print(
        f"{'workload':16s} {'metric':26s} {'A q1/med/q3':>32s} "
        f"{'B q1/med/q3':>32s} {'B/A':>7s} {'bound':>6s}  verdict"
    )
    for row in rows:
        fa = "/".join(f"{v:.5g}" for v in row["a"])
        fb = "/".join(f"{v:.5g}" for v in row["b"])
        print(
            f"{row['workload']:16s} {row['metric']:26s} {fa:>32s} "
            f"{fb:>32s} {row['ratio']:7.3f} {row['bound']:6.3f}  "
            f"{row['verdict']}"
        )
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"\n{len(rows)} pairs, {unresolved} unresolved, "
          f"{len(failures)} failures (ratios are B/A, base A)")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
