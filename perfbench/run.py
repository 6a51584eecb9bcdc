#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1|infer|serving --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record      # re-baseline the references

It builds the benchmark (perfbench/CMakeLists.txt) into .bench_build, checks
the committed inputs against perfbench/data/MANIFEST.json, and runs the
driver in a pinned environment: OMP_NUM_THREADS=1, every ADARNET_* variable
cleared, and ADARNET_TUNE_CACHE pointed at a fresh path so no GEMM tuning
cache left by another program changes the kernels. The driver's report is
printed as is; its last line is the result JSON. The exit code is the
driver's: 0 when every output matched its reference.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DATA = HERE / "data"
WORKLOADS = ("table1", "infer", "serving")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build(targets):
    """Configures and builds the benchmark package; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def inputs_intact():
    """Checks every committed input against its recorded SHA-256."""
    manifest = json.loads((DATA / "MANIFEST.json").read_text())
    for name, entry in manifest["files"].items():
        path = DATA / name
        if not path.is_file():
            log(f"missing input {path}")
            return False
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            log(f"input {name} does not match MANIFEST.json; regenerate it "
                f"with: {entry['command']}")
            return False
    return True


def pinned_env(tag):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ADARNET_")}
    env["OMP_NUM_THREADS"] = "1"
    run_dir = BUILD / "runs" / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env["ADARNET_TUNE_CACHE"] = str(run_dir / "tuning.json")
    return env, run_dir


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, stdout lines)."""
    env, run_dir = pinned_env(f"{workload}-{seed}-{int(trace)}")
    results = run_dir / "results.json"
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--data", str(DATA),
           "--results", str(results), *extra]
    if trace:
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(BUILD / "traces" / f"{workload}-seed{seed}.json")]
    print(f"# env: nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"OMP_NUM_THREADS=1 ADARNET_*=cleared "
          f"ADARNET_TUNE_CACHE={env['ADARNET_TUNE_CACHE']}", flush=True)
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return 3, []
    lines = done.stdout.splitlines()
    if results.exists():
        last = BUILD / f"last-{workload}-trace{int(trace)}.json"
        shutil.copyfile(results, last)
    shutil.rmtree(run_dir, ignore_errors=True)
    return done.returncode, lines


def check_result_line(lines, trace):
    """The last line must carry exactly the metrics BENCHMARK.json names."""
    e2e, layer = declared_metrics()
    result = json.loads(lines[-1])
    want = layer if trace else e2e
    if sorted(result["metrics"]) != sorted(want):
        log("result metrics differ from BENCHMARK.json")
        return False
    return True


def tracing_overhead(workload):
    """Traced minus untraced end-to-end values of the last two runs."""
    paths = [BUILD / f"last-{workload}-trace{t}.json" for t in (0, 1)]
    if not all(p.exists() for p in paths):
        return
    plain, traced = (json.loads(p.read_text())["end_to_end"] for p in paths)
    for name, m in traced.items():
        delta = m["value"] - plain[name]["value"]
        print(f"# tracing overhead {name}: {delta:+.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true",
                      help="run every workload, untraced then traced")
    mode.add_argument("--selftest", action="store_true",
                      help="build and run the benchmark's self-tests")
    mode.add_argument("--record", action="store_true",
                      help="rewrite the stored output references")
    args = ap.parse_args()
    if not (args.workload or args.all or args.selftest or args.record):
        ap.error("one of --workload, --all, --selftest, --record is needed")

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 2
        return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
    if not inputs_intact() or not build(["perfbench"]):
        return 2

    if args.record:
        for w in WORKLOADS:
            out = DATA / f"reference_{w}.json"
            code, lines = run_workload(w, args.seed, args.seconds, False,
                                       ["--record", str(out)])
            print("\n".join(lines))
            if code != 0:
                return code
        return 0

    if args.workload:
        code, lines = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
        if not lines or not lines[-1].startswith("{"):
            return code or 2
        if not check_result_line(lines, bool(args.trace)):
            return 2
        print("\n".join(lines), flush=True)
        return code

    worst = 0
    for w in WORKLOADS:
        for trace in (False, True):
            code, lines = run_workload(w, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            worst = max(worst, code)
        tracing_overhead(w)
    return worst


if __name__ == "__main__":
    sys.exit(main())
