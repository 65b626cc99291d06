#!/usr/bin/env python3
"""CI perf smoke: the engine paths must still beat their oracles.

Runs bench_pli's mutate-then-query sweep, bench_join_prune's pair join and
bench_discovery's engine-vs-brute-force pair at reduced sizes, writes the
raw google-benchmark JSON next to the results
(uploaded as a workflow artifact beside the checked-in BENCH_*.json), and
hard-fails on any inversion:

  * incremental mutate-then-query slower than the
    rebuild-after-invalidate oracle at any swept mutation ratio;
  * the PLI-backed pair join slower than the naive nested-loop join;
  * the counting-sort partition build over a code column
    (BM_PliBuildSingleAttrCoded, the cache's build) slower than the hashed
    from-scratch build it replaces (BM_PliBuildSingleAttr);
  * engine discovery (BM_DiscoveryEngine/1000) slower than the brute-force
    reference of core/discovery.h (BM_DiscoveryBruteForce/1000).

Each run also enables the engine telemetry plane (--metrics_json=PATH, see
src/telemetry/) and writes the per-binary metrics dump into the out dir
(uploaded with the rest of the artifacts). The dump is then validated for
counter inversions — identities the instrumentation guarantees by
construction and work-ratio bounds the engine exists to provide:

  * engine.pli_cache.hits + misses == lookups (every Get takes one arm);
  * the per-arm flush counters (flush.batched + flush.dropped) sum to
    engine.pli_cache.flushes, and flushes > 0 — the sweep actually
    exercised the flush policy;
  * eval.join.hash_probes stays >= 100x below
    eval.join.hash_pair_candidates (the naive pair count for the same
    joins): the hashed path must probe orders fewer pairs than |L|x|R|;
  * fault.injected_total and the engine.exec.{cancelled,deadline_exceeded}
    trips read 0 in every dump: fault injection and execution control are
    off in bench runs.

Counter checks are exact or ratio-based on deterministic counts, so they
are immune to runner noise. Timing thresholds stay deliberately loose
(>= 1.0x, i.e. inversion only): shared CI runners are noisy, and the
margins these assert on are 3x-200x locally. On top of that, each
benchmark runs three repetitions and the comparison uses the medians, so a
single noisy-neighbor spike cannot invert a ratio and fail an unrelated
PR.

Bench-trajectory regression gate
--------------------------------

Beyond the pairwise inversions above, the run is diffed against the
committed baselines BENCH_incremental.json (a full bench_pli recording),
BENCH_eval.json (a full bench_join_prune recording) and
BENCH_discovery.json (a full bench_discovery recording): every benchmark
whose exact name/shape appears in both this run's medians and a baseline
is compared as fresh_median / baseline_median (a baseline recorded
without repetitions contributes its single time instead). The CI runner and the
machine that recorded the baselines differ in raw speed, so each ratio is
normalized by the fleet median ratio across all shared entries — a
uniformly 2x-slower runner shifts every ratio identically and cancels
out, while a single benchmark drifting relative to the rest does not. Any
entry whose normalized ratio exceeds 1.25 (a >25% wall-time regression
against the trajectory of the rest of the suite) hard-fails the job.
Entries only on one side (new benchmarks, reduced-size smoke shapes the
baselines don't record) are skipped. The smoke runs use google-benchmark's
default min_time (plus 3 repetitions) for exactly this gate: the baselines
are recorded at
defaults, and the mutate-heavy shapes report materially different
steady-state costs under shortened runs, so both sides must measure in the
same regime.

Re-recording the baselines after an intentional perf change is one
command against a Release build tree:

    python3 scripts/perf_smoke.py --build-dir build-rel \
        --out-dir /tmp/perf --record-baselines

which re-runs the three full suites (three repetitions, aggregates only,
google-benchmark defaults otherwise) and overwrites BENCH_incremental.json
/ BENCH_eval.json / BENCH_discovery.json in the repo root (--baseline-dir
to redirect), so both
sides of the gate are medians of three. Commit the refreshed files with a
note of what moved and why.
"""

import argparse
import json
import pathlib
import subprocess
import sys

# Telemetry dumps the counter invariants read, by file name.
PLI_METRICS = "perf_smoke_pli_metrics.json"
JOIN_METRICS = "perf_smoke_join_metrics.json"

# (benchmark binary, filter, output file, metrics file). Reduced sizes: 10k
# rows for the mutation sweep, the 10000-row arg for the join, 1000 rows
# for discovery — big enough that the engine's asymptotic edge dominates
# noise, small enough for a smoke job.
RUNS = [
    (
        "bench_pli",
        "BM_MutateThenQuery(Incremental|Batched"
        "|Rebuild)/rows:10000/|BM_PliLevelSweep/10000$"
        "|BM_CacheBatchedFlush/"
        "|BM_PliBuildSingleAttr(Coded)?/10000$"
        "|BM_PliCacheLevelSweep/10000$",
        "perf_smoke_pli.json",
        PLI_METRICS,
    ),
    (
        "bench_join_prune",
        "BM_PairJoin(Naive|Pli)/10000$",
        "perf_smoke_join.json",
        JOIN_METRICS,
    ),
    (
        "bench_discovery",
        "BM_Discovery(Engine|BruteForce)/1000$",
        "perf_smoke_discovery.json",
        "perf_smoke_discovery_metrics.json",
    ),
]

# Hard wall-clock ceiling per benchmark invocation, enforced twice: the
# binary's own --wall_timeout_s watchdog (exits 124 with a message naming
# the binary) and a subprocess timeout out here in case the binary is too
# wedged even for its watchdog. A hung benchmark then fails the job in
# minutes with a readable message instead of eating the workflow's global
# timeout and dying opaque.
RUN_TIMEOUT_S = 600

# Committed full-suite baselines the trajectory gate diffs against, and the
# normalized wall-time ratio past which a shared entry fails the run.
BASELINES = ["BENCH_incremental.json", "BENCH_eval.json",
             "BENCH_discovery.json"]
TRAJECTORY_TOLERANCE = 1.25
# Below this many shared entries the fleet-median normalization has nothing
# to anchor on — treat it as a harness bug rather than silently passing.
MIN_TRAJECTORY_ENTRIES = 5


def run_bench(build_dir, out_dir, binary, bench_filter, out_name,
              metrics_name):
    out_path = out_dir / out_name
    # Deliberately NO --benchmark_min_time override: the trajectory gate
    # compares these medians against baselines recorded at google-benchmark
    # defaults, and the mutate-heavy shapes are measurement-regime
    # sensitive — at min_time=0.1 the same binary reports ~1.7x the
    # steady-state cost for BM_MutateThenQueryBatched/muts:64 because the
    # short run never amortizes per-repetition cache state. Identical
    # regimes on both sides keep the gate about the code, not the flags.
    cmd = [
        str(build_dir / binary),
        f"--benchmark_filter={bench_filter}",
        "--benchmark_repetitions=3",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
        f"--metrics_json={out_dir / metrics_name}",
        f"--wall_timeout_s={RUN_TIMEOUT_S}",
    ]
    print("+", " ".join(cmd), flush=True)
    try:
        # The outer timeout is a belt over the binary's own watchdog
        # (slightly longer so the watchdog's message wins when both fire).
        subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S + 60)
    except subprocess.TimeoutExpired:
        sys.exit(f"PERF SMOKE FAILED: {binary} "
                 f"(filter {bench_filter!r}) exceeded the "
                 f"{RUN_TIMEOUT_S}s wall-clock ceiling and was killed — "
                 f"a benchmark is hanging; reproduce locally with the "
                 f"printed command")
    except subprocess.CalledProcessError as e:
        if e.returncode == 124:
            sys.exit(f"PERF SMOKE FAILED: {binary} "
                     f"(filter {bench_filter!r}) hit its internal "
                     f"--wall_timeout_s={RUN_TIMEOUT_S} watchdog — a "
                     f"benchmark is hanging; reproduce locally with the "
                     f"printed command")
        raise
    with open(out_path) as f:
        data = json.load(f)
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    # Compare the median across repetitions: a single noisy-neighbor spike
    # on a shared runner then cannot invert a healthy ratio. run_name is
    # the undecorated benchmark name the aggregate was computed for.
    return {
        b["run_name"]: b["real_time"] * scale[b.get("time_unit", "ns")]
        for b in data["benchmarks"]
        if b.get("aggregate_name") == "median"
    }


def expect_faster(times, fast, slow, failures):
    if fast not in times or slow not in times:
        failures.append(f"missing benchmark: {fast} vs {slow}")
        return
    ratio = times[slow] / times[fast]
    verdict = "OK" if ratio >= 1.0 else "INVERSION"
    print(f"  {fast}: {times[fast] / 1e3:9.1f} us  vs  "
          f"{slow}: {times[slow] / 1e3:9.1f} us  -> {ratio:5.2f}x  {verdict}")
    if ratio < 1.0:
        failures.append(f"{fast} is slower than {slow} ({ratio:.2f}x)")


def load_counters(out_dir, metrics_name, failures):
    path = out_dir / metrics_name
    if not path.is_file():
        failures.append(f"missing telemetry dump: {path}")
        return {}
    with open(path) as f:
        return json.load(f).get("counters", {})


def check_metric_invariants(out_dir, failures):
    """Counter inversions the telemetry dump must not show (exact
    identities plus work-ratio bounds; all counts are deterministic)."""
    print("\ntelemetry counter invariants:")

    pli = load_counters(out_dir, PLI_METRICS, failures)
    lookups = pli.get("engine.pli_cache.lookups", 0)
    hits = pli.get("engine.pli_cache.hits", 0)
    misses = pli.get("engine.pli_cache.misses", 0)
    ok = lookups > 0 and hits + misses == lookups
    print(f"  pli_cache hits+misses == lookups: {hits} + {misses} "
          f"== {lookups}  {'OK' if ok else 'VIOLATED'}")
    if not ok:
        failures.append(
            f"pli_cache accounting: hits({hits}) + misses({misses}) "
            f"!= lookups({lookups}), or no lookups recorded")

    flushes = pli.get("engine.pli_cache.flushes", 0)
    arms = (pli.get("engine.pli_cache.flush.batched", 0) +
            pli.get("engine.pli_cache.flush.dropped", 0))
    ok = flushes > 0 and arms == flushes
    print(f"  pli_cache per-arm flushes sum to total: {arms} "
          f"== {flushes}  {'OK' if ok else 'VIOLATED'}")
    if not ok:
        failures.append(
            f"pli_cache flush arms: batched+dropped({arms}) "
            f"!= flushes({flushes}), or no flushes recorded")

    # Fault injection and execution control are both off in every bench
    # run, so their counters must read zero across every dump — a nonzero
    # value means the robustness plane is leaking work into the hot paths
    # (the ≤1% overhead contract starts here).
    for idx, (_, _, _, metrics_name) in enumerate(RUNS):
        dump = load_counters(out_dir, metrics_name, failures)
        injected = dump.get("fault.injected_total", 0)
        tripped = (dump.get("engine.exec.cancelled", 0) +
                   dump.get("engine.exec.deadline_exceeded", 0))
        ok = injected == 0 and tripped == 0
        if idx == 0 or not ok:
            print(f"  robustness plane quiescent in {metrics_name}: "
                  f"faults={injected} exec_trips={tripped}"
                  f"  {'OK' if ok else 'VIOLATED'}")
        if not ok:
            failures.append(
                f"{metrics_name}: fault injection / exec trips active in a "
                f"bench run (faults={injected}, exec_trips={tripped}) — "
                f"both must be 0 when the features are disabled")

    join = load_counters(out_dir, JOIN_METRICS, failures)
    probes = join.get("eval.join.hash_probes", 0)
    pairs = join.get("eval.join.hash_pair_candidates", 0)
    ok = pairs > 0 and probes * 100 <= pairs
    print(f"  hash-join probes 100x below naive pairs: {probes} * 100 "
          f"<= {pairs}  {'OK' if ok else 'VIOLATED'}")
    if not ok:
        failures.append(
            f"hash-join work bound: probes({probes}) not 100x below "
            f"naive pair candidates({pairs})")


def load_baseline_times(baseline_dir, failures):
    """Benchmark name -> wall time (ns) from the committed full-suite
    recordings: the median aggregate where the recording has repetitions,
    else the plain single-run entry."""
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    baseline = {}
    for name in BASELINES:
        path = baseline_dir / name
        if not path.is_file():
            failures.append(f"missing committed baseline: {path}")
            continue
        with open(path) as f:
            data = json.load(f)
        medians = {}
        for b in data.get("benchmarks", []):
            time = b["real_time"] * scale[b.get("time_unit", "ns")]
            aggregate = b.get("aggregate_name")
            if aggregate == "median":
                medians[b["run_name"]] = time
            elif not aggregate:
                baseline[b["name"]] = time
        baseline.update(medians)
    return baseline


def check_trajectory(times, baseline_dir, failures):
    """Fail any same-shape entry that regressed >TRAJECTORY_TOLERANCE
    against the committed baselines, after normalizing out runner speed by
    the fleet median ratio (see the module docstring)."""
    print("\nbench-trajectory regression gate "
          f"(>{(TRAJECTORY_TOLERANCE - 1) * 100:.0f}% over fleet median "
          "fails):")
    baseline = load_baseline_times(baseline_dir, failures)
    shared = sorted(set(times) & set(baseline))
    if len(shared) < MIN_TRAJECTORY_ENTRIES:
        failures.append(
            f"trajectory gate found only {len(shared)} benchmark(s) shared "
            f"with the committed baselines (need {MIN_TRAJECTORY_ENTRIES}); "
            f"re-record them via --record-baselines")
        return
    ratios = {name: times[name] / baseline[name] for name in shared}
    ordered = sorted(ratios.values())
    mid = len(ordered) // 2
    fleet = (ordered[mid] if len(ordered) % 2 else
             (ordered[mid - 1] + ordered[mid]) / 2)
    print(f"  fleet median speed ratio (this runner vs baseline recorder): "
          f"{fleet:.3f}x over {len(shared)} shared entries")
    for name in shared:
        normalized = ratios[name] / fleet
        verdict = "OK" if normalized <= TRAJECTORY_TOLERANCE else "REGRESSED"
        print(f"  {name}: {times[name] / 1e3:11.1f} us  vs  baseline "
              f"{baseline[name] / 1e3:11.1f} us  -> {normalized:5.2f}x "
              f"normalized  {verdict}")
        if normalized > TRAJECTORY_TOLERANCE:
            failures.append(
                f"{name} regressed {normalized:.2f}x against the committed "
                f"baseline trajectory (tolerance {TRAJECTORY_TOLERANCE}x); "
                f"if intentional, re-record with --record-baselines")


def record_baselines(build_dir, out_dir, baseline_dir):
    """--record-baselines: re-run the three full suites and overwrite the
    committed BENCH_*.json (three repetitions, aggregates only — the
    medians the trajectory gate compares against)."""
    for binary, out_name in (("bench_pli", "BENCH_incremental.json"),
                             ("bench_join_prune", "BENCH_eval.json"),
                             ("bench_discovery", "BENCH_discovery.json")):
        out_path = baseline_dir / out_name
        cmd = [
            str(build_dir / binary),
            "--benchmark_repetitions=3",
            "--benchmark_report_aggregates_only=true",
            f"--benchmark_out={out_path}",
            "--benchmark_out_format=json",
            f"--metrics_json={out_dir / ('record_' + binary + '_metrics.json')}",
        ]
        print("+", " ".join(cmd), flush=True)
        subprocess.run(cmd, check=True)
        print(f"recorded {out_path}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", required=True, type=pathlib.Path)
    parser.add_argument("--out-dir", required=True, type=pathlib.Path)
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="where the committed BENCH_*.json live (default: repo root)")
    parser.add_argument(
        "--record-baselines", action="store_true",
        help="re-run the full suites and overwrite the committed baselines "
             "instead of gating (see module docstring)")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    if args.record_baselines:
        return record_baselines(args.build_dir, args.out_dir,
                                args.baseline_dir)

    times = {}
    for binary, bench_filter, out_name, metrics_name in RUNS:
        times.update(
            run_bench(args.build_dir, args.out_dir, binary, bench_filter,
                      out_name, metrics_name))

    failures = []
    print("\nengine vs rebuild oracle (mutate-then-query, 10k rows):")
    for muts in (1, 8, 64):
        expect_faster(
            times,
            f"BM_MutateThenQueryIncremental/rows:10000/muts:{muts}",
            f"BM_MutateThenQueryRebuild/rows:10000/muts:{muts}",
            failures,
        )
    print("PLI pair join vs naive:")
    expect_faster(times, "BM_PairJoinPli/10000", "BM_PairJoinNaive/10000",
                  failures)
    print("counting-sort build over a code column vs hash build:")
    expect_faster(
        times,
        "BM_PliBuildSingleAttrCoded/10000",
        "BM_PliBuildSingleAttr/10000",
        failures,
    )
    print("engine discovery vs brute force (1000 rows):")
    expect_faster(times, "BM_DiscoveryEngine/1000",
                  "BM_DiscoveryBruteForce/1000", failures)

    check_metric_invariants(args.out_dir, failures)
    check_trajectory(times, args.baseline_dir, failures)

    if failures:
        print("\nPERF SMOKE FAILED:")
        for f in failures:
            print(" -", f)
        return 1
    print("\nperf smoke passed: no inversions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
