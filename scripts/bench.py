#!/usr/bin/env python3
"""Benchmark-regression baseline runner.

Builds the benches in Release mode, runs the microbenchmarks
(google-benchmark JSON) plus the fig/tab scenario benches, and writes a
machine-readable summary so later changes can be diffed against a committed
baseline (BENCH_perf.json at the repo root).

Per-scenario records hold the wall-clock seconds and a sha256 over stdout:
the scenario output is fully deterministic (virtual times, bytes, modeled
metrics), so the hash doubles as a fingerprint of the simulated results —
a perf-only change must keep every stdout_sha256 stable while moving only
wall_seconds.

The full mode runs every scenario at IMC_THREADS=1 (the sequential path)
and then at each sweep width in SWEEP_SCALING_THREADS, asserts the stdout
hashes are byte-identical at every width, and records the per-thread
scaling table (derived.sweep_scaling) plus `sweep_speedup`, the entry for
the width closest to the machine's core count. Smoke mode runs once under
whatever IMC_THREADS the caller set (recorded in the report) so CI can
diff the hashes across thread counts.

Modes:
  full (default)   all benches; writes BENCH_perf.json at the repo root
  --smoke          CI gate: hot-path microbenches + five fast scenarios,
                   asserts everything runs and emits valid JSON; writes
                   into the build directory only

Usage: scripts/bench.py [--smoke] [--build-dir DIR] [--out FILE]
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCENARIOS = [
    "bench_fig2_end_to_end",
    "bench_fig3_problem_size",
    "bench_fig4_rdma_limits",
    "bench_fig5_memory_timeline",
    "bench_fig6_index_cost",
    "bench_fig7_memory_breakdown",
    "bench_fig8_data_layout",
    "bench_fig9_layout_impact",
    "bench_fig10_transport",
    "bench_fig11_decaf_servers",
    "bench_fig12_ds_servers",
    "bench_fig13_shared_memory",
    "bench_tab1_configurations",
    "bench_tab3_usability",
    "bench_tab4_robustness",
    "bench_tab5_findings",
    "bench_ablation",
    "bench_ext_gpu",
    "bench_ext_chaos",
]
# bench_fig10_transport runs synthetic writers into readers under the
# staging libraries' materialize cap, so the smoke hash diff across thread
# counts covers the lazy one-definition reader assembly (nda::assemble).
# bench_fig3_problem_size's 256^2 and 512^2 rows stage tiled Laplace writer
# slabs, so the same diff covers tiled writers and the one-tiling reader
# assembly; it runs in about a second since writers stopped expanding.
# bench_fig2_end_to_end is the only scenario that runs all seven methods at
# paper scale, so the diff covers every library's staging path there.
SMOKE_SCENARIOS = ["bench_tab1_configurations", "bench_fig6_index_cost",
                   "bench_fig10_transport", "bench_fig3_problem_size",
                   "bench_fig2_end_to_end"]

# Full-mode sweep widths: every scenario re-runs at each width and the
# speedup over the sequential pass lands in derived.sweep_scaling. The
# table is honest about the host — on a single-core box every entry sits
# near (or below) 1.0 and that is the correct measurement, not a failure.
SWEEP_SCALING_THREADS = (2, 4, 8)

MICRO_FILTER = ("BM_BoxQuery|BM_SlabCopy|BM_SlabFillSynthetic|"
                "BM_EngineSameInstantChurn|BM_EngineEventThroughput|"
                "BM_TraceSpan|BM_ProfTimer|BM_MomentAnalysis")

# (derived key, numerator bench, denominator bench): speedup = num / den.
SPEEDUPS = [
    ("box_query_speedup", "BM_BoxQueryScan", "BM_BoxQueryIndex"),
    ("slab_copy_speedup", "BM_SlabCopyNaive/64", "BM_SlabCopyStrided/64"),
    ("slab_fill_synthetic_speedup", "BM_SlabFillSyntheticNaive/64",
     "BM_SlabFillSyntheticStrided/64"),
]

# Disabled-hook overhead guards: each probe bench times one unbound hook
# (TRACE_SPAN with no recorder, PROF_TIMER with no meter — a thread-local
# null check, single-digit ns, near-zero variance); the guard asserts that
# cost stays under the budget relative to each hot kernel — the ratio
# models a disabled hook wrapped around every kernel invocation.
# Differencing two separately-timed ~200 µs kernel runs (the Traced /
# Profiled micro variants, kept for eyeballing) cannot resolve 2% on a
# shared machine whose run-to-run jitter exceeds 10%.
OVERHEAD_KERNELS = [
    ("box_query", "BM_BoxQueryIndex"),
    ("slab_copy", "BM_SlabCopyStrided/64"),
]
OVERHEAD_GUARDS = [
    ("trace_off_overhead", "BM_TraceSpanDisabled"),
    ("prof_off_overhead", "BM_ProfTimerDisabled"),
]
OVERHEAD_LIMIT = 1.02
OVERHEAD_FILTER = ("BM_TraceSpanDisabled$|BM_ProfTimerDisabled$|"
                   "BM_BoxQueryIndex$|BM_SlabCopyStrided/64$")

# Scenarios re-run with IMC_TRACE on at each of these thread counts in full
# mode; the exported metric digests must be byte-identical across the set.
# Must be benches that actually run workflows (a binary that never fires a
# trace hook never instantiates the env sink, so no file is written).
# The per-run event cap bounds the fig2 artifact to tens of MB; the cap
# feeds the digest, so it is pinned here rather than inherited.
TRACE_DIGEST_SCENARIOS = ["bench_tab4_robustness", "bench_fig11_decaf_servers",
                          "bench_fig2_end_to_end", "bench_ext_chaos"]
TRACE_DIGEST_THREADS = (1, 2, 8)
TRACE_DIGEST_EVENT_CAP = "4096"


# bench_ext_chaos emits one machine-parseable line per (method, plan) cell;
# the per-scenario recovery metrics (retries ridden out, injected faults,
# MPI-IO fallback activations, virtual time-to-recover) land in the report
# next to the stdout hash so chaos-recovery regressions diff like perf ones.
RECOVERY_LINE = re.compile(rb"^recovery: (.+)$", re.MULTILINE)
# bench_ext_chaos' replication sweep emits one `durability:` line per
# (factor, crash plan) cell: objects lost, degraded gets, resilver volume,
# and time-to-restore-redundancy — the durability metrics of DESIGN.md §15,
# recorded so replication regressions diff like perf ones.
DURABILITY_LINE = re.compile(rb"^durability: (.+)$", re.MULTILINE)
CHAOS_DIGEST_LINE = re.compile(rb"^chaos-invariant-digest: (0x[0-9a-f]+)$",
                               re.MULTILINE)


def parse_kv_lines(stdout, pattern):
    """Parses `<prefix>: k=v ...` lines into a list of typed records."""
    records = []
    for match in pattern.finditer(stdout):
        record = {}
        for pair in match.group(1).decode().split():
            key, _, value = pair.partition("=")
            try:
                record[key] = int(value)
            except ValueError:
                try:
                    record[key] = float(value)
                except ValueError:
                    record[key] = value
        records.append(record)
    return records


def parse_recovery(stdout):
    return parse_kv_lines(stdout, RECOVERY_LINE)


def parse_durability(stdout):
    return parse_kv_lines(stdout, DURABILITY_LINE)


def host_info():
    """Host descriptor recorded into every report (mirrors prof::host()).

    Committed numbers are only interpretable against the machine that
    produced them — the committed sweep_scaling table came from a 1-core
    box, and without this block nobody could tell. imc-report.py keys its
    per-host regression history on (cpu_model, cores).
    """
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        page_size = 0
    return {
        "cores": os.cpu_count() or 0,
        "cpu_model": cpu_model,
        "page_size": page_size,
        "platform": sys.platform,
    }


def run(cmd, **kwargs):
    print("+", " ".join(cmd), flush=True)
    return subprocess.run(cmd, check=True, **kwargs)


def configure_and_build(build_dir, targets, jobs):
    configure = [
        "cmake", "-B", build_dir, "-S", REPO,
        "-DCMAKE_BUILD_TYPE=Release", "-DIMC_CHECK=OFF",
    ]
    generator = os.environ.get("CMAKE_GENERATOR")
    if generator:
        configure += ["-G", generator]
    run(configure, stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "-j", str(jobs), "--target"] + targets)


def run_micro(build_dir, smoke, timeout, bench_filter=None, min_time=None):
    cmd = [os.path.join(build_dir, "bench", "bench_micro"),
           "--benchmark_format=json"]
    if smoke:
        bench_filter = bench_filter or MICRO_FILTER
        min_time = min_time or 0.05
    if bench_filter:
        cmd.append("--benchmark_filter=" + bench_filter)
    if min_time:
        cmd.append(f"--benchmark_min_time={min_time}")
    out = run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
              timeout=timeout).stdout
    report = json.loads(out)  # raises on malformed output: the smoke gate
    micro = {}
    for entry in report.get("benchmarks", []):
        record = {"real_time_ns": entry["real_time"],
                  "cpu_time_ns": entry["cpu_time"]}
        for extra in ("items_per_second", "bytes_per_second"):
            if extra in entry:
                record[extra] = entry[extra]
        micro[entry["name"]] = record
    return micro


def derive(micro):
    derived = {}
    for key, numerator, denominator in SPEEDUPS:
        if numerator in micro and denominator in micro:
            derived[key] = round(
                micro[numerator]["real_time_ns"] /
                micro[denominator]["real_time_ns"], 2)
    throughput = micro.get("BM_EngineEventThroughput/100000")
    if throughput and "items_per_second" in throughput:
        derived["event_throughput_items_per_s"] = round(
            throughput["items_per_second"])
    churn = micro.get("BM_EngineSameInstantChurn/4096")
    if churn and "items_per_second" in churn:
        derived["same_instant_items_per_s"] = round(churn["items_per_second"])
    for prefix, probe in OVERHEAD_GUARDS:
        if probe not in micro:
            continue
        probe_ns = micro[probe]["real_time_ns"]
        for suffix, kernel in OVERHEAD_KERNELS:
            if kernel in micro:
                derived[f"{prefix}_{suffix}"] = round(
                    (micro[kernel]["real_time_ns"] + probe_ns) /
                    micro[kernel]["real_time_ns"], 3)
    return derived


def check_disabled_overhead(build_dir, micro, timeout, attempts=3):
    """Asserts every disabled-hook overhead stays under the budget.

    Ratio per (probe, kernel): (kernel + disabled hook) / kernel, both
    taken from the same micro pass so kernel jitter cancels. On a miss the
    probe and kernel benches are re-timed with a longer min_time and the
    per-bench minimum across runs is kept (the minimum is the noise-free
    estimate). Returns the final ratios, or None if the budget still fails.
    """
    names = ([probe for _, probe in OVERHEAD_GUARDS] +
             [k for _, k in OVERHEAD_KERNELS])
    times = {name: micro[name]["real_time_ns"]
             for name in names if name in micro}

    def ratios():
        out = {}
        for prefix, probe in OVERHEAD_GUARDS:
            if probe not in times:
                return {}
            for suffix, kernel in OVERHEAD_KERNELS:
                if kernel in times:
                    out[f"{prefix}_{suffix}"] = \
                        (times[kernel] + times[probe]) / times[kernel]
        return out

    for attempt in range(attempts):
        current = ratios()
        if current and all(r <= OVERHEAD_LIMIT for r in current.values()):
            return current
        print(f"  disabled-hook overhead above {OVERHEAD_LIMIT}: "
              f"{current} (retry {attempt + 1}/{attempts - 1})", flush=True)
        rerun = run_micro(build_dir, smoke=False, timeout=timeout,
                          bench_filter=OVERHEAD_FILTER, min_time=0.5)
        for name, record in rerun.items():
            times[name] = min(times.get(name, record["real_time_ns"]),
                              record["real_time_ns"])
    current = ratios()
    if current and all(r <= OVERHEAD_LIMIT for r in current.values()):
        return current
    return None


def run_scenarios(build_dir, names, timeout, threads=None):
    """Runs each scenario bench; threads pins IMC_THREADS for the run."""
    env = dict(os.environ)
    if threads is not None:
        env["IMC_THREADS"] = str(threads)
    label = f" [IMC_THREADS={threads}]" if threads is not None else ""
    results = {}
    for name in names:
        path = os.path.join(build_dir, "bench", name)
        start = time.monotonic()
        proc = run([path], stdout=subprocess.PIPE,
                   stderr=subprocess.DEVNULL, timeout=timeout, env=env)
        elapsed = time.monotonic() - start
        results[name] = {
            "wall_seconds": round(elapsed, 3),
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stdout_lines": proc.stdout.count(b"\n"),
        }
        recovery = parse_recovery(proc.stdout)
        if recovery:
            results[name]["recovery"] = recovery
            digest = CHAOS_DIGEST_LINE.search(proc.stdout)
            if digest:
                results[name]["chaos_invariant_digest"] = \
                    digest.group(1).decode()
        durability = parse_durability(proc.stdout)
        if durability:
            results[name]["durability"] = durability
        print(f"  {name}{label}: {elapsed:.2f}s, "
              f"{results[name]['stdout_lines']} lines", flush=True)
    return results


def run_trace_digests(build_dir, names, timeout):
    """Runs scenarios with IMC_TRACE on across thread counts; returns
    per-scenario records, or None if any digest differs between counts.

    The exported metric digest is the determinism fingerprint of the trace
    layer: byte-identical simulated-time streams at every sweep width.
    """
    results = {}
    for name in names:
        path = os.path.join(build_dir, "bench", name)
        digests = {}
        runs = 0
        for threads in TRACE_DIGEST_THREADS:
            trace_path = os.path.join(build_dir,
                                      f"{name}.trace.t{threads}.json")
            env = dict(os.environ)
            env["IMC_THREADS"] = str(threads)
            env["IMC_TRACE"] = trace_path
            env["IMC_TRACE_EVENTS"] = TRACE_DIGEST_EVENT_CAP
            run([path], stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=timeout, env=env)
            with open(trace_path, encoding="utf-8") as f:
                trace = json.load(f)
            digests[threads] = trace["imc"]["digest"]
            runs = len(trace["imc"]["runs"])
            os.remove(trace_path)
        if len(set(digests.values())) != 1:
            print(f"FAIL: {name} trace digest differs across "
                  f"IMC_THREADS={TRACE_DIGEST_THREADS}: {digests}",
                  file=sys.stderr)
            return None
        results[name] = {"trace_digest": digests[TRACE_DIGEST_THREADS[0]],
                         "trace_runs": runs}
        print(f"  {name}: trace digest {results[name]['trace_digest']} "
              f"({runs} runs), identical at IMC_THREADS="
              f"{'/'.join(str(t) for t in TRACE_DIGEST_THREADS)}", flush=True)
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI gate: microbench subset + two scenarios")
    parser.add_argument("--build-dir",
                        default=os.path.join(REPO, "build-bench"))
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_perf.json at "
                             "the repo root, or the build dir for --smoke)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    args = parser.parse_args()

    scenarios = SMOKE_SCENARIOS if args.smoke else SCENARIOS
    per_bench_timeout = 120 if args.smoke else 600
    out_path = args.out or (
        os.path.join(args.build_dir, "BENCH_smoke.json") if args.smoke
        else os.path.join(REPO, "BENCH_perf.json"))

    configure_and_build(args.build_dir, ["bench_micro"] + scenarios,
                        args.jobs)
    micro = run_micro(args.build_dir, args.smoke, per_bench_timeout)
    derived = derive(micro)

    if args.smoke:
        # One pass under the caller's IMC_THREADS (recorded below so CI can
        # run the gate at several thread counts and diff the hashes).
        scenario_results = run_scenarios(args.build_dir, scenarios,
                                         per_bench_timeout)
        sweep_threads = os.environ.get("IMC_THREADS", "default")
    else:
        # Sequential pass, then one sweep-pool pass per scaling width;
        # stdout must be byte-identical at every width (the determinism
        # contract of src/sweep/) and each wall-clock ratio lands in the
        # per-thread scaling table. `sweep_speedup` reports the width
        # closest to (but not above) the machine's core count.
        cores = max(2, os.cpu_count() or 2)
        sweep_threads = max(
            (t for t in SWEEP_SCALING_THREADS if t <= cores),
            default=SWEEP_SCALING_THREADS[0])
        scenario_results = run_scenarios(args.build_dir, scenarios,
                                         per_bench_timeout, threads=1)
        seq_total = sum(scenario_results[n]["wall_seconds"]
                        for n in scenarios)
        scaling = {}
        for threads in SWEEP_SCALING_THREADS:
            threaded = run_scenarios(args.build_dir, scenarios,
                                     per_bench_timeout, threads=threads)
            mismatched = [n for n in scenarios
                          if scenario_results[n]["stdout_sha256"]
                          != threaded[n]["stdout_sha256"]]
            if mismatched:
                print(f"FAIL: stdout differs between IMC_THREADS=1 and "
                      f"IMC_THREADS={threads}: {mismatched}",
                      file=sys.stderr)
                return 1
            par_total = sum(threaded[n]["wall_seconds"] for n in scenarios)
            scaling[str(threads)] = round(seq_total / par_total, 2) \
                if par_total > 0 else 0.0
            if threads == sweep_threads:
                for name in scenarios:
                    scenario_results[name]["wall_seconds_threaded"] = \
                        threaded[name]["wall_seconds"]
        derived["sweep_threads"] = sweep_threads
        derived["sweep_scaling"] = scaling
        derived["sweep_speedup"] = scaling[str(sweep_threads)]

        ratios = check_disabled_overhead(args.build_dir, micro,
                                         per_bench_timeout)
        if ratios is None:
            print(f"FAIL: disabled-hook overhead exceeds "
                  f"{OVERHEAD_LIMIT} after retries", file=sys.stderr)
            return 1
        derived.update({k: round(v, 3) for k, v in ratios.items()})

        trace_digests = run_trace_digests(args.build_dir,
                                          TRACE_DIGEST_SCENARIOS,
                                          per_bench_timeout)
        if trace_digests is None:
            return 1
        for name, record in trace_digests.items():
            scenario_results[name].update(record)

    report = {
        "schema": "imc-bench-perf-v1",
        "mode": "smoke" if args.smoke else "full",
        "build_type": "Release",
        "host": host_info(),
        "sweep_threads": sweep_threads,
        "derived": derived,
        "micro": micro,
        "scenarios": scenario_results,
    }
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}")

    if not micro:
        print("FAIL: no microbenchmark results", file=sys.stderr)
        return 1
    if args.smoke:
        missing = [k for k, _, _ in SPEEDUPS if k not in derived]
        if missing:
            print(f"FAIL: missing derived metrics: {missing}",
                  file=sys.stderr)
            return 1
        # Round-trip the file to prove the artifact itself is valid JSON.
        with open(out_path, encoding="utf-8") as f:
            json.load(f)
    for key, value in sorted(derived.items()):
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
