#!/usr/bin/env python3
"""The Ψ engine's serving benchmark: one command per workload run.

    python3 perfbench/run.py --workload nfv-serve [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. It builds the engine library with the
repository's own CMake project (Release) and the benchmark against it,
checks the benchmark's arithmetic, computes or reuses the reference answers
for (workload, seed), then measures in one or more processes (see
PROCESSES). The last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}, each metric the median over processes. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones; a traced run also writes a Chrome trace under the build
directory. See perfbench/README.md for the workloads and metrics.

Exit codes: 0 ok, 1 a wrong answer, 2 bad usage or environment,
3 build or run failure.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20171017
HOLDOUT_SEED = 4242  # reserved for checking later claims; see README.md
# Measuring processes per end-to-end run; each measures --seconds / N and
# run.py reports the median of their metrics. Where the VM places a
# process's threads persists for the process's life: on these two
# workloads it moved qps by up to 20% between otherwise identical processes,
# against about 5% between segments of one process. nfv-stragglers stays in
# one process so that each run walks its whole fixed query set.
PROCESSES = {"nfv-serve": 3, "nfv-stragglers": 1, "ftv-collection": 3}
BUILD_TIMEOUT_S = 840
REFERENCE_TIMEOUT_S = 120
RUN_GRACE_S = 120


def fail(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout, log):
    """Runs cmd with output appended to `log`; fails on error or timeout."""
    with open(log, "a") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            fail(3, f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        tail = pathlib.Path(log).read_text(errors="replace")[-3000:]
        fail(3, f"failed ({proc.returncode}): {' '.join(map(str, cmd))}\n"
                f"{tail}")


def build(build_dir):
    """Builds libpsi.a with the repository's CMake project, then psibench."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(3, f"no engine sources next to {HERE.name}/ (expected "
                "CMakeLists.txt and src/ at the repository root)")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    lib_dir = build_dir / "engine"
    bench_dir = build_dir / "psibench"
    build_type = "Release"
    if not (lib_dir / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(ROOT), "-B", str(lib_dir),
                     f"-DCMAKE_BUILD_TYPE={build_type}",
                     "-DPSI_BUILD_BENCHES=OFF", "-DPSI_BUILD_EXAMPLES=OFF"],
                    BUILD_TIMEOUT_S, log)
    run_checked(["cmake", "--build", str(lib_dir), "--target", "psi",
                 "-j", jobs], BUILD_TIMEOUT_S, log)
    lib = lib_dir / "libpsi.a"
    if not (bench_dir / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(bench_dir),
                     f"-DCMAKE_BUILD_TYPE={build_type}",
                     f"-DPSI_BUILD_TYPE={build_type}",
                     f"-DPSI_LIBRARY={lib}"], BUILD_TIMEOUT_S, log)
    run_checked(["cmake", "--build", str(bench_dir), "-j", jobs],
                BUILD_TIMEOUT_S, log)
    return bench_dir


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["nfv-serve", "nfv-stragglers",
                                 "ftv-collection"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail(2, "--seconds must be > 0 and --seed >= 0")

    knobs = sorted(k for k in os.environ if k.startswith("PSI_"))
    if knobs:
        fail(2, "refusing to measure a non-default program; unset "
                + ", ".join(knobs))

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bench_dir = build(build_dir)
    selftest = subprocess.run([str(bench_dir / "psibench_selftest")],
                              capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        fail(3, "the benchmark's arithmetic self-test failed:\n"
                + selftest.stderr)

    print(f"seed: {args.seed} (default {DEFAULT_SEED}, held out "
          f"{HOLDOUT_SEED})", flush=True)
    refs_dir = build_dir / "refs"
    refs_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--refs", str(refs_dir)]
    binary = str(bench_dir / "psibench")
    ref = subprocess.run([binary, "reference"] + common,
                         timeout=REFERENCE_TIMEOUT_S, check=False)
    if ref.returncode != 0:
        fail(3, "computing the reference answers failed")

    parts = 1 if args.trace else PROCESSES[args.workload]
    cmd = [binary, "run"] + common + ["--seconds", str(args.seconds / parts),
                                      "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-{args.seed}.json")]
    results = []
    for part in range(parts):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S, check=False)
        lines = proc.stdout.splitlines()
        print(f"process {part + 1}/{parts}:")
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            fail(3, f"psibench exited with {proc.returncode}")
        results.append(json.loads(lines[-1]))

    wanted = declared_metrics(args.trace)
    metrics = {}
    for name, unit in wanted.items():
        values = []
        for raw in results:
            if name not in raw["metrics"]:
                fail(3, f"psibench did not report {name}")
            value, got_unit = raw["metrics"][name]
            if got_unit != unit:
                fail(3, f"{name}: unit {got_unit}, BENCHMARK.json says {unit}")
            values.append(value)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    correct = all(raw["correct"] for raw in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
