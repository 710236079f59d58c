// Extension experiment: chaos sweep — fault injection and recovery across
// all five in-memory methods.
//
// The paper's Table IV catalogues how the staging libraries die when a
// resource runs out; this bench injects the *operational* failures the
// paper's production context implies (staging-server crash, lossy or
// degraded links, transient RDMA registration flaps) and measures what the
// recovery machinery in imc::fault buys: typed failures instead of aborts,
// ridden-out transients, and graceful degradation to the MPI-IO file path
// when a staging method loses its servers mid-run.
//
// Every fault decision is a pure function of (IMC_FAULT_SEED, operation
// identity, attempt) — never of the event schedule or clock — so stdout and
// trace digests are byte-identical at every IMC_THREADS, and the
// chaos-invariant-digest (outcomes + recovery counts + failures) is
// byte-identical under every IMC_SCHEDULE (fifo / lifo / shuffle). The CI
// chaos gate diffs exactly those two.
//
// The second sweep measures what replicated staging (imc::repl, DESIGN.md
// §15) buys on identical fault plans: replication factor x crash count on
// DataSpaces-native, against the MPI-IO fallback as the R=1 baseline. The
// payload is sized so factor 3 fits under Titan's registered-memory cap —
// at the paper's full 20 MB/proc, R=3 trips the Fig. 4 RDMA wall, which is
// the durability-vs-memory trade-off in one number.
//
// Knobs: IMC_FAULT_SEED (plan seed), IMC_FAULT_BACKOFF (transport retry
// initial backoff, seconds), IMC_SCHEDULE (tie-break policy).
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "fault/fault.h"

using namespace imc;
using workflow::MethodSel;

namespace {

struct PlanRow {
  const char* name;
  fault::Plan plan;
  bool fallback;
};

sim::Schedule schedule_from_env() {
  const std::string which = env::str_or_die("IMC_SCHEDULE", "fifo");
  sim::Schedule schedule;
  if (which == "fifo") {
    schedule.tie_break = sim::TieBreak::kFifo;
  } else if (which == "lifo") {
    schedule.tie_break = sim::TieBreak::kLifo;
  } else if (which == "shuffle") {
    schedule.tie_break = sim::TieBreak::kSeededShuffle;
    schedule.seed = 0x9e3779b97f4a7c15ull;
  } else {
    std::fprintf(stderr,
                 "imc: IMC_SCHEDULE=%s invalid (want fifo|lifo|shuffle)\n",
                 which.c_str());
    std::exit(2);
  }
  return schedule;
}

}  // namespace

int main() {
  bench::print_banner("Extension: chaos sweep",
                      "fault injection + recovery across the five methods");

  const auto seed = static_cast<std::uint64_t>(
      env::int_or_die("IMC_FAULT_SEED", 0x5eedfa17, 1, 1ll << 62));
  const double backoff =
      env::double_or_die("IMC_FAULT_BACKOFF", 5e-4, 1e-6, 1.0);
  const sim::Schedule schedule = schedule_from_env();

  const MethodSel kMethods[] = {MethodSel::kMpiIo,
                                MethodSel::kDataspacesNative,
                                MethodSel::kDimesNative, MethodSel::kFlexpath,
                                MethodSel::kDecaf};

  // The three chaos plans. Times are virtual seconds into the run.
  PlanRow plans[3];
  plans[0].name = "server-crash";
  plans[0].plan.server_crashes = {{0.0123, 0}};  // before the first publish
  plans[0].fallback = true;  // degrade to MPI-IO when staging dies
  plans[1].name = "link-loss";
  plans[1].plan.packet_loss = 0.15;
  plans[1].plan.link_degrade = {0.05, 0.4, 0.5};  // half bandwidth window
  plans[1].fallback = false;
  plans[2].name = "rdma-flap";
  plans[2].plan.rdma_flap = 0.25;
  plans[2].fallback = false;
  for (PlanRow& row : plans) {
    row.plan.seed = seed;
    row.plan.transport_retry.initial_backoff = backoff;
    row.plan.transport_retry.max_attempts = 6;
  }

  std::printf("\nLAMMPS+MSD, (32,16), Titan, 20 MB/proc/step, seed=0x%llx\n",
              static_cast<unsigned long long>(seed));
  std::printf("%-20s %14s %14s %14s\n", "method", plans[0].name,
              plans[1].name, plans[2].name);

  std::vector<workflow::Spec> specs;
  for (MethodSel method : kMethods) {
    for (const PlanRow& row : plans) {
      workflow::Spec spec;
      spec.app = workflow::AppSel::kLammps;
      spec.method = method;
      spec.machine = hpc::titan();
      spec.nsim = 32;
      spec.nana = 16;
      spec.steps = 3;
      spec.schedule = schedule;
      spec.fault = row.plan;
      spec.fallback.to_mpi_io = row.fallback;
      specs.push_back(spec);
    }
  }
  const auto results = bench::run_all(specs);

  std::size_t i = 0;
  for (MethodSel method : kMethods) {
    std::printf("%-20s", std::string(workflow::to_string(method)).c_str());
    for (std::size_t p = 0; p < 3; ++p) {
      const auto& result = results[i + p];
      if (result.ok && result.fault.fallback_activated) {
        std::printf(" %12s", "RECOVERED");
      } else if (result.ok) {
        std::printf(" %12.2fs", result.end_to_end);
      } else {
        std::printf(" %13s", bench::cell(result).c_str() + 2);
      }
    }
    std::printf("\n");
    std::fflush(stdout);
    i += 3;
  }

  // Machine-parseable per-scenario recovery metrics (scripts/bench.py folds
  // these into BENCH_perf.json). Counts are schedule-invariant by the
  // determinism contract; times are deterministic per schedule.
  std::printf("\n");
  i = 0;
  for (MethodSel method : kMethods) {
    for (std::size_t p = 0; p < 3; ++p) {
      const auto& r = results[i + p];
      std::printf(
          "recovery: method=%s plan=%s ok=%d fallback=%d "
          "time_to_recover=%.6f retries=%llu injected=%llu dropped=%llu "
          "timeouts=%llu crashes=%llu node_deaths=%llu failures=%zu "
          "end_to_end=%.6f\n",
          std::string(workflow::to_string(method)).c_str(), plans[p].name,
          r.ok ? 1 : 0, r.fault.fallback_activated ? 1 : 0,
          r.fault.time_to_recover,
          static_cast<unsigned long long>(r.fault.retries),
          static_cast<unsigned long long>(r.fault.injected),
          static_cast<unsigned long long>(r.fault.dropped_ops),
          static_cast<unsigned long long>(r.fault.timeouts),
          static_cast<unsigned long long>(r.fault.server_crashes),
          static_cast<unsigned long long>(r.fault.node_deaths),
          r.failures.size(), r.end_to_end);
    }
    i += 3;
  }
  std::fflush(stdout);

  // ---- Durability sweep: replication factor x crash count ----------------
  //
  // DataSpaces-native, 6 staging servers, crashes mid-run (after step-0
  // puts, before the step-2 reads). The 2-crash plan kills servers 0 and 1
  // half a virtual second apart, so the second crash races the first
  // crash's resilver — and wipes the whole R=2 version board (members are
  // servers 0..R-1), which is the one plan where factor 2 still has to
  // fall back while factor 3 rides it out on board member 2.
  struct CrashCol {
    const char* name;
    std::vector<fault::Plan::ServerCrash> crashes;
  };
  const CrashCol kCrashCols[] = {
      {"1-crash", {{2.5, 0}}},
      {"2-crash", {{2.5, 0}, {3.0, 1}}},
  };
  const int kFactors[] = {1, 2, 3};

  std::printf("\nDurability: LAMMPS+MSD, (32,16), 10 MB/proc/step, "
              "6 servers, MPI-IO fallback armed\n");
  std::printf("%-10s %14s %14s\n", "factor", kCrashCols[0].name,
              kCrashCols[1].name);

  std::vector<workflow::Spec> repl_specs;
  for (int factor : kFactors) {
    for (const CrashCol& col : kCrashCols) {
      workflow::Spec spec;
      spec.app = workflow::AppSel::kLammps;
      spec.method = MethodSel::kDataspacesNative;
      spec.machine = hpc::titan();
      spec.nsim = 32;
      spec.nana = 16;
      spec.steps = 3;
      spec.lammps_atoms_per_proc = 256000;  // 10 MB/proc: R=3 fits the cap
      spec.num_servers = 6;
      spec.schedule = schedule;
      spec.fault.seed = seed;
      spec.fault.server_crashes = col.crashes;
      spec.fault.transport_retry.initial_backoff = backoff;
      spec.fallback.to_mpi_io = true;
      spec.repl.factor = factor;
      repl_specs.push_back(spec);
    }
  }
  const auto repl_results = bench::run_all(repl_specs);

  i = 0;
  for (int factor : kFactors) {
    std::printf("R=%-8d", factor);
    for (std::size_t c = 0; c < 2; ++c) {
      const auto& result = repl_results[i + c];
      if (result.ok && !result.fault.fallback_activated &&
          result.repl.objects_lost == 0 && factor > 1) {
        std::printf(" %9.2fs SRV", result.end_to_end);  // survived in place
      } else if (result.ok && result.fault.fallback_activated) {
        std::printf(" %12s", "RECOVERED");
      } else if (result.ok) {
        std::printf(" %12.2fs", result.end_to_end);
      } else {
        std::printf(" %13s", bench::cell(result).c_str() + 2);
      }
    }
    std::printf("\n");
    std::fflush(stdout);
    i += 2;
  }

  // Machine-parseable durability metrics (scripts/bench.py folds these into
  // BENCH_perf.json next to the recovery records). Counts are
  // schedule-invariant; times are deterministic per schedule.
  std::printf("\n");
  i = 0;
  for (int factor : kFactors) {
    for (std::size_t c = 0; c < 2; ++c) {
      const auto& r = repl_results[i + c];
      std::printf(
          "durability: factor=%d plan=%s ok=%d fallback=%d "
          "objects_lost=%llu degraded_gets=%llu under_replicated=%llu "
          "replica_puts=%llu replica_bytes=%llu resilver_copies=%llu "
          "resilver_bytes=%llu resilver_failures=%llu restores=%llu "
          "time_to_restore=%.6f end_to_end=%.6f\n",
          factor, kCrashCols[c].name, r.ok ? 1 : 0,
          r.fault.fallback_activated ? 1 : 0,
          static_cast<unsigned long long>(r.repl.objects_lost),
          static_cast<unsigned long long>(r.repl.degraded_gets),
          static_cast<unsigned long long>(r.repl.under_replicated),
          static_cast<unsigned long long>(r.repl.replica_puts),
          static_cast<unsigned long long>(r.repl.replica_bytes),
          static_cast<unsigned long long>(r.repl.resilver_copies),
          static_cast<unsigned long long>(r.repl.resilver_bytes),
          static_cast<unsigned long long>(r.repl.resilver_failures),
          static_cast<unsigned long long>(r.repl.restores),
          r.repl.time_to_restore, r.end_to_end);
    }
    i += 2;
  }
  std::fflush(stdout);

  // Fold the schedule-invariant facts of every scenario into one digest:
  // outcomes, recovery counts, and sorted failure texts — everything the
  // fault determinism contract pins. Raw span timings are excluded; under
  // contention the engine's same-instant service order legitimately shifts
  // them by microseconds across tie-break policies (see src/check/check.h).
  // CI diffs this line across IMC_SCHEDULE=fifo/lifo/shuffle and the whole
  // stdout across IMC_THREADS.
  std::uint64_t invariant = 0x1b873593u;
  auto fold = [&invariant](std::uint64_t v) {
    invariant = splitmix64(invariant ^ v);
  };
  auto fold_run = [&fold](const workflow::RunResult& r) {
    fold(r.ok ? 1 : 0);
    fold(r.fault.fallback_activated ? 1 : 0);
    fold(r.fault.retries);
    fold(r.fault.injected);
    fold(r.fault.dropped_ops);
    fold(r.fault.timeouts);
    fold(r.fault.server_crashes);
    fold(r.fault.node_deaths);
    fold(r.transfers);
    std::vector<std::string> failures = r.failures;
    std::sort(failures.begin(), failures.end());
    for (const auto& f : failures) {
      for (unsigned char c : f) fold(c);
    }
  };
  for (const auto& r : results) fold_run(r);
  for (const auto& r : repl_results) {
    fold_run(r);
    // Durability counts are part of the invariant contract too: replica
    // placement, failover routing, and resilver copy counts are pure
    // functions of object identity, never of the schedule. time_to_restore
    // is excluded like every raw timing.
    fold(r.repl.replica_puts);
    fold(r.repl.replica_bytes);
    fold(r.repl.degraded_gets);
    fold(r.repl.under_replicated);
    fold(r.repl.objects_lost);
    fold(r.repl.resilver_copies);
    fold(r.repl.resilver_bytes);
    fold(r.repl.resilver_failures);
    fold(r.repl.restores);
  }
  std::printf("\nchaos-invariant-digest: 0x%016llx\n",
              static_cast<unsigned long long>(invariant));

  // Zero-abort contract: a chaos run either completes, recovers through the
  // fallback, or reports typed failures — it never dies silently.
  for (const auto& r : results) {
    if (!r.ok && r.failures.empty()) {
      std::printf("ABORT: a chaos run failed without a typed failure\n");
      return 1;
    }
  }
  for (const auto& r : repl_results) {
    if (!r.ok && r.failures.empty()) {
      std::printf("ABORT: a durability run failed without a typed failure\n");
      return 1;
    }
  }
  // Durability contract: with R >= 2 and a single crash, replicated staging
  // must absorb the failure in place — zero lost objects and no fallback.
  for (std::size_t f = 0; f < 3; ++f) {
    const auto& r = repl_results[f * 2];  // the 1-crash column
    const int factor = kFactors[f];
    if (factor >= 2 &&
        (!r.ok || r.fault.fallback_activated || r.repl.objects_lost > 0)) {
      std::printf("ABORT: R=%d failed to absorb a single server crash\n",
                  factor);
      return 1;
    }
  }
  return 0;
}
