#!/usr/bin/env python3
"""CI perf smoke gate: diff a fresh bench_micro --json run against the
committed BENCH_micro.json baseline.

Usage:
    tools/check_bench.py BASELINE.json FRESH.json [--threshold 0.25]
                         [--advisory]

Rows are keyed by (name, n, threads). Two row classes:
  * timed rows — ns_per_op is a median over timing windows
    (bench/harness.cpp measure_ns_per_op). The gate fails when the fresh
    median exceeds the baseline by more than --threshold (default +25%,
    wide enough to absorb shared-runner noise while catching real
    regressions like an accidentally serialized kernel).
  * counter rows (`"kind": "counter"`, written by bench/harness.cpp) —
    deterministic program facts, not timings. Any change at all fails: a
    new allocation on the steady-state path or a fatter tape is a
    regression regardless of speed.

Rows only present in one file are reported but never fail the gate —
benches grow new rows and retire old ones across PRs.

--advisory prints the same report but always exits 0 (the CI job runs in
this mode first; the flag is dropped once the runner noise floor is known).
"""

from __future__ import annotations

import argparse
import json
import sys


def is_counter(row: dict) -> bool:
    """A row is a counter iff it says so (`"kind": "counter"`)."""
    return row.get("kind") == "counter"


def load_rows(path: str) -> dict[tuple[str, int, int], dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"check_bench: cannot read {path}: {exc}")
    if not isinstance(rows, list):
        sys.exit(f"check_bench: {path}: expected a JSON array of rows")
    table: dict[tuple[str, int, int], dict] = {}
    for row in rows:
        key = (row["name"], int(row["n"]), int(row["threads"]))
        if key in table:
            sys.exit(f"check_bench: {path}: duplicate row {key}")
        table[key] = row
    return table


def fmt_key(key: tuple[str, int, int]) -> str:
    name, n, threads = key
    return f"{name} (n={n}, {threads}T)"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Fail on bench_micro perf regressions vs a baseline."
    )
    parser.add_argument("baseline", help="committed BENCH_micro.json")
    parser.add_argument("fresh", help="bench_micro --json output to check")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max allowed relative median slowdown (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--advisory",
        action="store_true",
        help="report regressions but always exit 0",
    )
    args = parser.parse_args()
    if args.threshold <= 0:
        parser.error("--threshold must be > 0")

    base = load_rows(args.baseline)
    fresh = load_rows(args.fresh)

    failures: list[str] = []
    improved = 0
    compared = 0
    for key in sorted(base.keys() & fresh.keys()):
        old = float(base[key]["ns_per_op"])
        new = float(fresh[key]["ns_per_op"])
        compared += 1
        if is_counter(base[key]) or is_counter(fresh[key]):
            if new != old:
                failures.append(
                    f"COUNTER CHANGED  {fmt_key(key)}: {old:g} -> {new:g}"
                )
            continue
        if old <= 0.0:  # degenerate baseline: nothing meaningful to gate on
            print(f"  skip (zero baseline)  {fmt_key(key)}")
            continue
        ratio = new / old
        if ratio > 1.0 + args.threshold:
            failures.append(
                f"REGRESSION  {fmt_key(key)}: {old:.0f} -> {new:.0f} ns/op "
                f"({(ratio - 1.0) * 100:+.1f}%, limit +{args.threshold * 100:.0f}%)"
            )
        elif ratio < 1.0 - args.threshold:
            improved += 1
            print(
                f"  improved  {fmt_key(key)}: {old:.0f} -> {new:.0f} ns/op "
                f"({(ratio - 1.0) * 100:+.1f}%)"
            )

    for key in sorted(base.keys() - fresh.keys()):
        print(f"  note: baseline-only row (retired?)  {fmt_key(key)}")
    for key in sorted(fresh.keys() - base.keys()):
        print(f"  note: new row (no baseline yet)     {fmt_key(key)}")

    print(
        f"check_bench: {compared} rows compared, {improved} improved, "
        f"{len(failures)} over threshold"
    )
    for line in failures:
        print(f"  {line}")
    if failures and args.advisory:
        print("check_bench: ADVISORY mode — regressions reported, exit 0")
        return 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
