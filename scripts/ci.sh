#!/usr/bin/env bash
# CI entry point: hardened Debug build (ASan+UBSan, -Werror), full test
# suite (includes the determinism harness, leak auditors, style lint, and
# the imc-analyze semantic gate as ctest entries), plus clang-tidy over
# changed files when available.
#
# Usage: scripts/ci.sh [build-dir]     (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"

echo "==> configure (Debug, ASan+UBSan, -Werror)"
cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DIMC_CHECK=ON \
  -DIMC_SANITIZE="address;undefined" \
  -DCMAKE_CXX_FLAGS="-Werror" \
  ${CMAKE_GENERATOR:+-G "$CMAKE_GENERATOR"}

echo "==> build"
cmake --build "$build" -j "$(nproc)"

echo "==> test (unit + determinism harness + leak audits + lint)"
ctest --test-dir "$build" -j "$(nproc)" --output-on-failure

echo "==> style lint (standalone, full tree)"
python3 "$repo/scripts/lint.py" "$repo/src" "$repo/bench" "$repo/tests" \
  "$repo/examples"

# Semantic gate: imc-analyze enforces the determinism & coroutine-safety
# invariants (see DESIGN.md §12) against the committed baseline, and emits
# a SARIF report for code-scanning upload.
echo "==> imc-analyze (baseline gate + SARIF export)"
python3 "$repo/scripts/imc-analyze" \
  --baseline "$repo/analyze-baseline.json" \
  --sarif "$build/imc-analyze.sarif" \
  "$repo/src" "$repo/bench" "$repo/tests" "$repo/examples"

# clang-tidy on files changed relative to the default branch; advisory if the
# toolchain only ships gcc.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> clang-tidy (changed files)"
  base="$(git -C "$repo" merge-base HEAD origin/main 2>/dev/null ||
          git -C "$repo" rev-list --max-parents=0 HEAD | tail -1)"
  changed="$(git -C "$repo" diff --name-only "$base" -- 'src/*.cpp' || true)"
  if [ -n "$changed" ]; then
    (cd "$repo" && clang-tidy -p "$build" $changed)
  else
    echo "no changed sources"
  fi
else
  echo "==> clang-tidy not installed; skipping (gcc-only toolchain)"
fi

# ThreadSanitizer pass over the sweep pool: the scenario fan-out and the
# determinism harness run their worker threads under TSan, which would flag
# any cross-world shared state the per-thread World missed. The pooled trace
# and prof tests cover the World's chunk capture and lane meter on every
# worker, and the replication determinism tests run replicated, crashing
# DataSpaces and DIMES worlds on the pool.
echo "==> TSan (sweep + check tests, pooled trace + prof + repl tests)"
tsan_build="$repo/build-tsan"
cmake -B "$tsan_build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DIMC_CHECK=ON \
  -DIMC_SANITIZE="thread" \
  ${CMAKE_GENERATOR:+-G "$CMAKE_GENERATOR"}
cmake --build "$tsan_build" -j "$(nproc)" \
  --target test_sweep test_check test_trace test_prof test_repl
IMC_THREADS=8 "$tsan_build/tests/test_sweep"
IMC_THREADS=8 "$tsan_build/tests/test_check"
IMC_THREADS=8 "$tsan_build/tests/test_trace" \
  --gtest_filter='TraceDeterminism.*:TraceRouting.*'
IMC_THREADS=8 "$tsan_build/tests/test_prof" \
  --gtest_filter='ProfSweep.*:ProfDigestExclusion.*'
IMC_THREADS=8 "$tsan_build/tests/test_repl" \
  --gtest_filter='ReplDeterminism.*'

# Release-mode bench smoke: builds the benches without sanitizers, runs the
# hot-path microbench subset plus five fast scenarios, and asserts the run
# emits valid JSON with every derived speedup present. Time-bounded by the
# reduced --benchmark_min_time and per-bench timeouts inside bench.py.
# The gate runs twice — sequential and on the sweep pool — and the scenario
# stdout hashes must not depend on the thread count.
echo "==> bench smoke (Release, scripts/bench.py --smoke, IMC_THREADS=1)"
IMC_THREADS=1 python3 "$repo/scripts/bench.py" --smoke \
  --build-dir "$repo/build-bench-smoke" \
  --out "$repo/build-bench-smoke/BENCH_smoke_t1.json"

echo "==> bench smoke (Release, scripts/bench.py --smoke, IMC_THREADS=2)"
IMC_THREADS=2 python3 "$repo/scripts/bench.py" --smoke \
  --build-dir "$repo/build-bench-smoke" \
  --out "$repo/build-bench-smoke/BENCH_smoke_t2.json"

echo "==> bench smoke: diff stdout hashes across thread counts"
python3 - "$repo/build-bench-smoke/BENCH_smoke_t1.json" \
          "$repo/build-bench-smoke/BENCH_smoke_t2.json" <<'EOF'
import json, sys
a, b = (json.load(open(p))["scenarios"] for p in sys.argv[1:3])
bad = [n for n in a if a[n]["stdout_sha256"] != b[n]["stdout_sha256"]]
if bad:
    sys.exit(f"FAIL: scenario stdout depends on IMC_THREADS: {bad}")
print("stdout hashes identical at IMC_THREADS=1 and 2:",
      ", ".join(sorted(a)))
EOF

# The smoke's results must also equal the committed record, so a change that
# moves simulated results the same way at every thread count still fails
# here. A change that moves them on purpose re-records BENCH_perf.json.
echo "==> bench smoke: compare stdout hashes with BENCH_perf.json"
python3 - "$repo/BENCH_perf.json" "$repo/build-bench-smoke/BENCH_smoke_t1.json" <<'EOF'
import json, sys
record, smoke = (json.load(open(p))["scenarios"] for p in sys.argv[1:3])
bad = [n for n in smoke
       if smoke[n]["stdout_sha256"] != record[n]["stdout_sha256"]]
if bad:
    sys.exit(f"FAIL: scenario stdout differs from BENCH_perf.json: {bad}")
print("stdout hashes equal BENCH_perf.json:", ", ".join(sorted(smoke)))
EOF
# check_recorded <value> <scenario> <field>: fails unless BENCH_perf.json
# records <value> as the scenario's field.
check_recorded() {
  python3 - "$repo/BENCH_perf.json" "$@" <<'EOF'
import json, sys
path, got, scenario, field = sys.argv[1:5]
want = json.load(open(path))["scenarios"][scenario][field]
if got != want:
    sys.exit(f"FAIL: {scenario} {field} {got} differs from "
             f"BENCH_perf.json's {want}")
print(f"{scenario} {field} equals BENCH_perf.json: {got}")
EOF
}

# Sweep perf gate: the pool must actually speed the smoke sweep up. The two
# smoke runs above produced sequential (t1) and pooled (t2) wall clocks for
# the same scenarios; their ratio is the measured speedup. The verdict is
# history-aware (imc-report gate): it hard-fails only when the committed
# BENCH_history.json proves a same-host/same-core-count run met the 1.3x
# floor before — an unknown host, a single core, a host class that never
# met the floor, or IMC_PERF_GATE_SOFT=1 all degrade to a warning.
echo "==> sweep perf gate (history-aware, smoke sweep_speedup at IMC_THREADS=2)"
speedup="$(python3 - "$repo/build-bench-smoke/BENCH_smoke_t1.json" \
                     "$repo/build-bench-smoke/BENCH_smoke_t2.json" <<'EOF'
import json, sys
a, b = (json.load(open(p))["scenarios"] for p in sys.argv[1:3])
seq = sum(r["wall_seconds"] for r in a.values())
par = sum(r["wall_seconds"] for r in b.values())
print(f"{seq / par if par > 0 else 0.0:.3f}")
EOF
)"
echo "smoke sweep_speedup at IMC_THREADS=2: $speedup"
python3 "$repo/scripts/imc-report.py" gate --speedup "$speedup" --threads 2 \
  --history "$repo/BENCH_history.json"

# Run digests must not depend on IMC_CHECK. The smoke build is Release with
# the auditors compiled out (scripts/bench.py configures IMC_CHECK=OFF), so
# the golden run table and the workflow tests run here a second time
# without them. The table compares every field but the leak lines, which
# an unaudited build leaves empty.
echo "==> run digests without IMC_CHECK (golden table + workflow tests)"
smoke="$repo/build-bench-smoke"
cmake --build "$smoke" -j "$(nproc)" --target test_workflow_golden test_workflow
(cd "$smoke/tests" && ./test_workflow_golden && ./test_workflow)

# Trace smoke: a Fig. 2 run with IMC_TRACE must produce a Perfetto-loadable
# export carrying spans from the fabric, memory, DataSpaces, and workflow
# layers, and the trace file must not depend on the sweep width: the t1
# and t2 files are compared byte for byte. The event cap bounds the
# artifact size; it is part of the digest input, so both runs use the same
# cap. The t2 file stays for the prof gate below.
echo "==> trace smoke (IMC_TRACE export + thread-count byte diff)"
cmake --build "$smoke" -j "$(nproc)" --target bench_fig2_end_to_end
IMC_THREADS=1 IMC_TRACE_EVENTS=4096 IMC_TRACE="$smoke/fig2.trace.t1.json" \
  "$smoke/bench/bench_fig2_end_to_end" >/dev/null
IMC_THREADS=2 IMC_TRACE_EVENTS=4096 IMC_TRACE="$smoke/fig2.trace.t2.json" \
  "$smoke/bench/bench_fig2_end_to_end" >/dev/null
python3 "$repo/scripts/check_trace.py" "$smoke/fig2.trace.t1.json" \
  --require fabric --require mem --require ds --require workflow
if ! cmp -s "$smoke/fig2.trace.t1.json" "$smoke/fig2.trace.t2.json"; then
  echo "FAIL: trace file depends on IMC_THREADS (t1 vs t2)" >&2
  exit 1
fi
d1="$(python3 "$repo/scripts/check_trace.py" "$smoke/fig2.trace.t1.json" \
  --print-digest)"
echo "trace files identical at IMC_THREADS=1 and 2, digest $d1"
check_recorded "$d1" bench_fig2_end_to_end trace_digest
rm -f "$smoke/fig2.trace.t1.json"

# The two other recorded trace digests. tab4 is the only recorded trace
# whose runs fail on purpose (RDMA memory, 32-bit dims, Decaf OOM, sockets,
# DRC), so its failed ranks unwind under the run's World; fig11 is Decaf's.
echo "==> trace digests (tab4, fig11: thread-count diff + recorded value)"
cmake --build "$smoke" -j "$(nproc)" \
  --target bench_tab4_robustness bench_fig11_decaf_servers
for scenario in bench_tab4_robustness bench_fig11_decaf_servers; do
  for t in 1 2; do
    IMC_THREADS=$t IMC_TRACE_EVENTS=4096 \
      IMC_TRACE="$smoke/$scenario.trace.t$t.json" \
      "$smoke/bench/$scenario" >/dev/null
  done
  s1="$(python3 "$repo/scripts/check_trace.py" \
    "$smoke/$scenario.trace.t1.json" --print-digest)"
  s2="$(python3 "$repo/scripts/check_trace.py" \
    "$smoke/$scenario.trace.t2.json" --print-digest)"
  if [ "$s1" != "$s2" ]; then
    echo "FAIL: $scenario trace digest depends on IMC_THREADS: $s1 vs $s2" >&2
    exit 1
  fi
  check_recorded "$s1" "$scenario" trace_digest
  rm -f "$smoke/$scenario.trace.t1.json" "$smoke/$scenario.trace.t2.json"
done

# Prof digest-exclusion gate: IMC_PROF is observability, never input. A
# Fig. 2 run with the profiler on must leave stdout and the trace file
# byte-identical to the runs without it, while the standalone report
# materialises. The width-2/4/8 prof reports feed the imc-report artifact.
echo "==> prof digest-exclusion gate (IMC_PROF on/off: stdout + trace bytes)"
IMC_THREADS=2 "$smoke/bench/bench_fig2_end_to_end" >"$smoke/fig2.plain.out"
IMC_THREADS=2 IMC_TRACE_EVENTS=4096 IMC_TRACE="$smoke/fig2.trace.prof.json" \
  IMC_PROF="$smoke/fig2.prof.w2.json" \
  "$smoke/bench/bench_fig2_end_to_end" >"$smoke/fig2.prof.out"
if ! cmp -s "$smoke/fig2.plain.out" "$smoke/fig2.prof.out"; then
  echo "FAIL: fig2 stdout depends on IMC_PROF" >&2
  diff "$smoke/fig2.plain.out" "$smoke/fig2.prof.out" >&2 || true
  exit 1
fi
echo "fig2 stdout identical with IMC_PROF on and off"
if ! cmp -s "$smoke/fig2.trace.t2.json" "$smoke/fig2.trace.prof.json"; then
  echo "FAIL: trace file depends on IMC_PROF" >&2
  exit 1
fi
echo "fig2 trace file identical with IMC_PROF on and off"
if [ ! -s "$smoke/fig2.prof.w2.json" ]; then
  echo "FAIL: IMC_PROF did not write a report" >&2
  exit 1
fi
rm -f "$smoke/fig2.trace.t2.json" "$smoke/fig2.trace.prof.json" \
      "$smoke/fig2.plain.out" "$smoke/fig2.prof.out"

# Dashboard artifact: fig2 prof reports at sweep widths 2/4/8 merged with
# the committed perf baseline and per-host history into imc-report.md
# (uploaded by the workflow; also the local profiling entry point).
echo "==> imc-report (markdown dashboard artifact)"
for w in 4 8; do
  IMC_THREADS=$w IMC_PROF="$smoke/fig2.prof.w$w.json" \
    "$smoke/bench/bench_fig2_end_to_end" >/dev/null
done
python3 "$repo/scripts/imc-report.py" report \
  --perf "$repo/BENCH_perf.json" \
  --prof "fig2-w2=$smoke/fig2.prof.w2.json" \
  --prof "fig2-w4=$smoke/fig2.prof.w4.json" \
  --prof "fig2-w8=$smoke/fig2.prof.w8.json" \
  --history "$repo/BENCH_history.json" \
  --out "$build/imc-report.md"

# Chaos smoke: the fault-injection sweep must be deterministic two ways.
# Across IMC_THREADS the whole stdout (tables, recovery + durability lines,
# digest) and the trace digest are byte-identical; across IMC_SCHEDULE
# tie-break policies the chaos-invariant-digest line (outcomes + recovery
# counts + durability counts + sorted failures) is byte-identical while raw
# span timings may legitimately shift (see src/check/check.h on
# same-instant contention). bench_ext_chaos includes the replicated
# durability sweep (factor x crash count, DESIGN.md §15), so this one gate
# also pins replica placement, failover routing, and resilver copy counts
# against schedule and thread-count perturbation, and the trace must carry
# the fault.* and repl.* spans/counters the Perfetto walkthrough documents.
echo "==> chaos smoke (bench_ext_chaos: thread/schedule determinism + fault trace)"
cmake --build "$smoke" -j "$(nproc)" --target bench_ext_chaos
chaos="$smoke/bench/bench_ext_chaos"
IMC_THREADS=1 IMC_TRACE_EVENTS=4096 IMC_TRACE="$smoke/chaos.trace.t1.json" \
  "$chaos" >"$smoke/chaos.t1.out"
IMC_THREADS=2 IMC_TRACE_EVENTS=4096 IMC_TRACE="$smoke/chaos.trace.t2.json" \
  "$chaos" >"$smoke/chaos.t2.out"
if ! cmp -s "$smoke/chaos.t1.out" "$smoke/chaos.t2.out"; then
  echo "FAIL: chaos stdout depends on IMC_THREADS" >&2
  diff "$smoke/chaos.t1.out" "$smoke/chaos.t2.out" >&2 || true
  exit 1
fi
echo "chaos stdout identical at IMC_THREADS=1 and 2"
python3 "$repo/scripts/check_trace.py" "$smoke/chaos.trace.t1.json" \
  --require fault --require workflow --require repl
c1="$(python3 "$repo/scripts/check_trace.py" "$smoke/chaos.trace.t1.json" \
  --print-digest)"
c2="$(python3 "$repo/scripts/check_trace.py" "$smoke/chaos.trace.t2.json" \
  --print-digest)"
if [ "$c1" != "$c2" ]; then
  echo "FAIL: chaos trace digest depends on IMC_THREADS: $c1 vs $c2" >&2
  exit 1
fi
echo "chaos trace digests identical at IMC_THREADS=1 and 2: $c1"
check_recorded "$c1" bench_ext_chaos trace_digest
fifo_digest="$(grep '^chaos-invariant-digest:' "$smoke/chaos.t1.out")"
for sched in lifo shuffle; do
  sched_digest="$(IMC_SCHEDULE=$sched IMC_THREADS=2 "$chaos" |
    grep '^chaos-invariant-digest:')"
  if [ "$fifo_digest" != "$sched_digest" ]; then
    echo "FAIL: chaos outcomes depend on IMC_SCHEDULE=$sched:" \
         "$fifo_digest vs $sched_digest" >&2
    exit 1
  fi
done
echo "chaos invariant digest identical across fifo/lifo/shuffle:" \
     "${fifo_digest#chaos-invariant-digest: }"
check_recorded "${fifo_digest#chaos-invariant-digest: }" bench_ext_chaos \
  chaos_invariant_digest
rm -f "$smoke/chaos.trace.t1.json" "$smoke/chaos.trace.t2.json" \
      "$smoke/chaos.t1.out" "$smoke/chaos.t2.out"

# TSan over the chaos sweep: fault injection reaches per-world injector
# state through the same per-thread World as audit/trace; the chaos run on
# the sweep pool is where a missed binding would race.
echo "==> TSan (chaos sweep)"
cmake --build "$tsan_build" -j "$(nproc)" --target bench_ext_chaos
IMC_THREADS=8 "$tsan_build/bench/bench_ext_chaos" >/dev/null

# Repository benchmark: wfbench/ is a CMake project of its own that links
# the src/ libraries, so no target above builds it. Build it with its
# self-tests, then run each workload for one short pass: every Spec run must
# match the committed wfbench/reference/*.ref with a clean leak ledger. A
# second, traced pass replays DataSpaces, DIMES, Flexpath and Decaf put/get
# directly; its parity guards abort the run when the replay's server count,
# server peak or fabric bytes drift from workflow::run.
echo "==> wfbench (build + self-tests + reference check per workload)"
wfb="$repo/.bench_build/wfbench"
cmake -S "$repo/wfbench" -B "$wfb" -DCMAKE_BUILD_TYPE=Release \
  ${CMAKE_GENERATOR:+-G "$CMAKE_GENERATOR"}
cmake --build "$wfb" -j "$(nproc)" --target wfbench wfbench_test
ctest --test-dir "$wfb" --output-on-failure
for trace in 0 1; do
  for workload in laplace-content lammps-staging sweep-mixed; do
    result="$(python3 "$repo/wfbench/run.py" --workload "$workload" \
      --seconds 1 --trace "$trace" | tail -n 1)"
    echo "$workload (trace $trace): $result"
    python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["failed"] > 0)' \
      "$result"
  done
done

echo "==> CI OK"
