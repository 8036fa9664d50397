#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

The first run configures and compiles perfbench (and the repository's
libraries from ./src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Later runs reuse the
build. The benchmark's stdout is passed through; its last line is the JSON
result. Exits non-zero, without a result line, when the sources are missing
or the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("repository sources (src/CMakeLists.txt) not found; run from the repo root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} did not finish: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} failed ({done.returncode})")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def expected_metrics(root, trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    if "--trace" not in args:
        fail("--trace <0|1> is required")
    trace = args[args.index("--trace") + 1:][:1] == ["1"]
    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(root, build_dir)
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    env = dict(os.environ, RIHGCN_THREADS="2")
    env.pop("RIHGCN_SERVE_WORKERS", None)
    with subprocess.Popen([binary, *args, "--out-dir", out_dir], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    want = expected_metrics(root, trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")


if __name__ == "__main__":
    main()
