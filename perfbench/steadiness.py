#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end benchmark.

Runs each workload once per seed (untraced) and prints, per end-to-end
metric, the median, the quartiles and the relative spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json. A spread
at or above a third of the bound is flagged; so is one above the bound,
which is what rejects a benchmark. setup_s is reported but not judged on
its spread. With --sets 2 the whole sweep runs twice and the second median
of every metric is compared with the first against the bound.

    python3 perfbench/steadiness.py                      # every workload, 10 seeds
    python3 perfbench/steadiness.py --workloads serve_stream --seeds 5

Run from the repository root. Raw results go to
.bench_build/perfbench/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    last = done.stdout.rstrip("\n").split("\n")[-1] if done.stdout else ""
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}")
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    raw = {}
    medians = {}
    ok = True
    for s in range(args.sets):
        for w in args.workloads:
            runs = []
            for k in range(args.seeds):
                seed = args.first_seed + k + s * 1000
                runs.append(run_once(w, seed, args.seconds))
                print(f"  set {s + 1} {w} seed {seed}: done", file=sys.stderr, flush=True)
            raw[f"set{s + 1}/{w}"] = runs
            print(f"\n{w} (set {s + 1}, {args.seeds} seeds, {args.seconds} s runs)")
            print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6}  verdict")
            for name, m in metrics.items():
                med, q1, q3, spread = summarize([r[name] for r in runs])
                medians.setdefault((w, name), []).append(med)
                if name == "setup_s":
                    verdict = "(not judged on spread)"
                elif spread > m["bound"]:
                    verdict, ok = "OVER BOUND", False
                elif spread >= m["bound"] / 3:
                    verdict = "above a third of the bound"
                else:
                    verdict = "ok"
                print(f"  {name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.3f} {m['bound']:>6.2f}  {verdict}")
    if args.sets == 2:
        print("\nsecond set against the first (share worse, bound)")
        for (w, name), (a, b) in medians.items():
            m = metrics[name]
            worse = worse_by(a, b, m["better"])
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok = ok and worse <= m["bound"]
            print(f"  {w:<14} {name:<18} {a:>12.5g} -> {b:>12.5g}  "
                  f"{worse:+.3f} / {m['bound']:.2f}  {verdict}")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench", "steadiness.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
