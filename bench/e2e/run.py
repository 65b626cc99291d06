#!/usr/bin/env python3
"""End-to-end benchmark of flexrel: builds the benchmark program and runs workloads.

Run from the root of a source checkout:

  python3 bench/e2e/run.py                  every workload once (untraced),
                                            prints each end-to-end metric and
                                            writes build-e2e/results.json
  python3 bench/e2e/run.py --trace OUT/     the traced run of every workload:
                                            OUT/<workload>/spans.jsonl and
                                            registry.json, per-layer metrics
  python3 bench/e2e/run.py compare A.json B.json
                                            fails when any (workload, metric)
                                            of B is worse than A by more than
                                            its bound in BENCHMARK.json
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                            one run; its last stdout line is
                                            the JSON result object

The benchmark builds into build-e2e/ (CMake, Release) on first use. See
bench/e2e/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "flexrel_e2e"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ["migrate", "index-read", "analytic", "mutate-read"]
DEFAULT_SEED = 1
# One run must end within 180 s; the build is not part of it.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def build():
    """Configures (once) and builds flexrel_e2e; build output goes to stderr
    only when a step fails, so stdout stays the result channel."""
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit(f"build failed: {' '.join(cmd)}")


def run_once(workload, seed, seconds, trace_dir=None):
    """Runs flexrel_e2e once; returns (exit code, stdout)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace_dir else "0"]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def parse(stdout):
    """The result object (last line) and the E2E_INFO object before it."""
    lines = stdout.strip().splitlines()
    info = {}
    for line in lines:
        if line.startswith("E2E_INFO "):
            info = json.loads(line[len("E2E_INFO "):])
    return json.loads(lines[-1]), info


def load_spec():
    with open(BENCHMARK) as f:
        return json.load(f)


def trace_root(arg):
    """--trace 0: untraced; 1: traced into build-e2e/trace; else that dir."""
    if arg == "0":
        return None
    return BUILD / "trace" if arg == "1" else pathlib.Path(arg)


def run_all(args):
    root = trace_root(args.trace)
    traced = root is not None
    results = {}
    ok = True
    for workload in WORKLOADS:
        trace_dir = root / workload if traced else None
        code, stdout = run_once(workload, args.seed, args.seconds, trace_dir)
        try:
            result, info = parse(stdout)
        except (ValueError, IndexError):
            print(f"{workload}: no result (exit {code})")
            ok = False
            continue
        ok = ok and code == 0 and result["correct"]
        results[workload] = {"correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": result["metrics"], "info": info}
        ops = info.get("traced_ops" if traced else "ops")
        for name, m in result["metrics"].items():
            n = info.get("setup_runs") if name == "setup_s" else ops
            print(f"{workload} {name} {m['value']:.6g} {m['unit']} (n={n})")
        print(f"{workload} error_rate {result['failed']}/"
              f"{result['attempted']} input_digest={info.get('input_digest')} "
              f"state_digest={info.get('state_digest')}")
    if not traced:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                   "workloads": results}, indent=2) + "\n")
        print(f"wrote {out}")
    return 0 if ok else 1


def compare(path_a, path_b, spec):
    """B against A: each end-to-end metric of each workload may be worse by
    at most its bound (a share of A's value); digests must match when both
    sets ran the same seed."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    failures = []
    for workload in WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            failures.append(f"{workload}: missing from one result set")
            continue
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = ma[name]["value"], mb[name]["value"]
            worse = (vb - va) / va if metric["better"] == "lower" else \
                (va - vb) / va
            verdict = "OK" if worse <= metric["bound"] else "WORSE"
            print(f"{workload:12s} {name:12s} {va:12.4f} {vb:12.4f} "
                  f"{worse * 100:+7.2f}% (bound {metric['bound'] * 100:.0f}%)"
                  f"  {verdict}")
            if verdict != "OK":
                failures.append(f"{workload} {name} worse by "
                                f"{worse * 100:.1f}%")
        if a.get("seed") == b.get("seed"):
            ia = a["workloads"][workload]["info"]
            ib = b["workloads"][workload]["info"]
            for key in ("input_digest", "state_digest"):
                if ia.get(key) != ib.get(key):
                    failures.append(f"{workload} {key} differs")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(sys.argv[2], sys.argv[3], load_spec())

    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", default="0",
                        help="0, 1, or a directory to hold the traced run's "
                             "<workload>/spans.jsonl and registry.json")
    parser.add_argument("--out", default=str(BUILD / "results.json"),
                        help="results file of a run over every workload")
    args = parser.parse_args()

    build()
    if args.workload is None:
        return run_all(args)
    root = trace_root(args.trace)
    trace_dir = root / args.workload if root is not None else None
    code, stdout = run_once(args.workload, args.seed, args.seconds, trace_dir)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
