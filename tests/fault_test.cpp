// imc::fault: seeded-jitter determinism, backoff bounds, timeout
// surfacing, crash recovery, MPI-IO fallback equivalence, and
// schedule/thread-count invariance of chaos runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "check/check.h"
#include "fault/fault.h"
#include "sim/engine.h"
#include "sweep/sweep.h"
#include "workflow/workflow.h"

namespace imc::fault {
namespace {

TEST(FaultPlan, AnyDetectsEachKnob) {
  EXPECT_FALSE(Plan{}.any());
  Plan crash;
  crash.server_crashes = {{0.5, 0}};
  EXPECT_TRUE(crash.any());
  Plan death;
  death.node_death.at = 0.5;
  death.node_death.node = 3;
  EXPECT_TRUE(death.any());
  Plan link;
  link.link_degrade = {0.1, 0.2, 0.25};
  EXPECT_TRUE(link.any());
  Plan mds;
  mds.mds_slowdown = {0.1, 0.2, 10.0};
  EXPECT_TRUE(mds.any());
  Plan straggle;
  straggle.straggler = {4, 2.0};
  EXPECT_TRUE(straggle.any());
  Plan loss;
  loss.packet_loss = 0.01;
  EXPECT_TRUE(loss.any());
  Plan flap;
  flap.rdma_flap = 0.01;
  EXPECT_TRUE(flap.any());
}

TEST(FaultPlan, CrashScheduleMergesLegacyAndListSorted) {
  Plan plan;
  plan.server_crashes.push_back({0.5, 2});
  plan.server_crashes.push_back({0.1, 3});
  plan.server_crashes.push_back({0.5, 1});
  plan.server_crashes.push_back({-1.0, 4});  // disabled — filtered out
  const auto schedule = plan.crash_schedule();
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule[0].server, 3);  // sorted by (time, server)
  EXPECT_DOUBLE_EQ(schedule[0].at, 0.1);
  EXPECT_EQ(schedule[1].server, 1);
  EXPECT_EQ(schedule[2].server, 2);
  EXPECT_FALSE(Plan{}.any());
  EXPECT_TRUE(Plan{}.crash_schedule().empty());
}

TEST(FaultBackoff, GrowsGeometricallyAndCapsWithinJitterBounds) {
  RetryPolicy policy;
  policy.initial_backoff = 1e-3;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 4e-3;
  policy.jitter = 0.25;
  policy.seed = 42;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double base =
        std::min(policy.initial_backoff *
                     std::pow(policy.backoff_multiplier, attempt),
                 policy.max_backoff);
    const double b = policy.backoff(attempt, /*op_key=*/7);
    EXPECT_GE(b, base * (1.0 - policy.jitter)) << attempt;
    EXPECT_LE(b, base * (1.0 + policy.jitter)) << attempt;
  }
}

TEST(FaultBackoff, JitterIsSeededAndDeterministic) {
  RetryPolicy policy;
  policy.seed = 7;
  const double a = policy.backoff(2, 99);
  EXPECT_EQ(a, policy.backoff(2, 99));  // pure function, byte-identical
  EXPECT_NE(a, policy.backoff(3, 99));  // attempt feeds the hash
  EXPECT_NE(a, policy.backoff(2, 98));  // so does the op key
  RetryPolicy other = policy;
  other.seed = 8;
  EXPECT_NE(a, other.backoff(2, 99));  // and the seed
  policy.jitter = 0;
  EXPECT_EQ(policy.backoff(0, 1), policy.backoff(0, 2));  // no jitter: exact
}

TEST(FaultInjector, OpKeysArePerPairCountersAndReproducible) {
  Plan plan;
  plan.packet_loss = 0.5;
  Injector a(plan);
  Injector b(plan);
  // Same issue order -> same key stream, regardless of injector instance.
  EXPECT_EQ(a.op_key(1, 2), b.op_key(1, 2));
  EXPECT_EQ(a.op_key(1, 2), b.op_key(1, 2));
  // Distinct pairs draw from independent streams.
  EXPECT_NE(a.op_key(1, 3), b.op_key(1, 2));
  // Ordered pairs: (1,2) and (2,1) are different operations.
  Injector c(plan);
  Injector d(plan);
  EXPECT_NE(c.op_key(1, 2), d.op_key(2, 1));
}

TEST(FaultInjector, FiresIsPureAndCountsInjections) {
  Plan plan;
  plan.seed = 0xfeed;
  Injector a(plan);
  Injector b(plan);
  int fired = 0;
  for (int i = 0; i < 256; ++i) {
    const auto key = static_cast<std::uint64_t>(i);
    const bool fa = a.fires(0.3, key, 0, Kind::kPacketLoss);
    EXPECT_EQ(fa, b.fires(0.3, key, 0, Kind::kPacketLoss));
    fired += fa ? 1 : 0;
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 256);
  EXPECT_EQ(a.stats().injected, static_cast<std::uint64_t>(fired));
  EXPECT_FALSE(a.fires(0.0, 1, 0, Kind::kPacketLoss));
}

TEST(FaultInjector, WindowsStragglersAndNodeDeathFollowThePlan) {
  Plan plan;
  plan.link_degrade = {1.0, 2.0, 0.25};
  plan.mds_slowdown = {3.0, 4.0, 10.0};
  plan.straggler = {4, 3.0};
  plan.node_death.at = 5.0;
  plan.node_death.node = 2;
  Injector injector(plan);
  EXPECT_EQ(injector.link_factor(0.5), 1.0);
  EXPECT_EQ(injector.link_factor(1.5), 0.25);
  EXPECT_EQ(injector.link_factor(2.0), 1.0);  // [from, until)
  EXPECT_EQ(injector.mds_factor(3.5), 10.0);
  EXPECT_EQ(injector.straggler_factor(0), 3.0);
  EXPECT_EQ(injector.straggler_factor(1), 1.0);
  EXPECT_EQ(injector.straggler_factor(4), 3.0);
  EXPECT_FALSE(injector.node_dead(2, 4.9));
  EXPECT_TRUE(injector.node_dead(2, 5.0));
  EXPECT_FALSE(injector.node_dead(1, 5.0));
}

// retry(): drive a failing op to exhaustion inside a real engine.
sim::Task<Status> failing_op(int* calls, ErrorCode code) {
  ++*calls;
  co_return make_error(code, "synthetic failure");
}

sim::Task<Status> flaky_op(int* calls, int succeed_on) {
  ++*calls;
  if (*calls >= succeed_on) co_return Status::ok();
  co_return make_error(ErrorCode::kOutOfRdmaMemory, "not yet");
}

TEST(FaultRetry, ExhaustionSurfacesTimeoutWrappingLastError) {
  sim::Engine engine;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.jitter = 0;
  int calls = 0;
  Status got;
  engine.spawn([](sim::Engine& eng, RetryPolicy pol, int* cnt,
                  Status* out) -> sim::Task<> {
    *out = co_await retry(eng, pol, /*op_key=*/1, "test op", [cnt](int) {
      return failing_op(cnt, ErrorCode::kOutOfRdmaMemory);
    });
  }(engine, policy, &calls, &got));
  engine.run();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(got.code(), ErrorCode::kTimeout);
  // The underlying cause stays visible in failure summaries.
  EXPECT_NE(got.message().find("OUT_OF_RDMA_MEMORY"), std::string::npos)
      << got.to_string();
  EXPECT_NE(got.message().find("test op"), std::string::npos);
}

TEST(FaultRetry, NonRetryableErrorSurfacesImmediately) {
  sim::Engine engine;
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  Status got;
  engine.spawn([](sim::Engine& eng, RetryPolicy pol, int* cnt,
                  Status* out) -> sim::Task<> {
    *out = co_await retry(eng, pol, 1, "hard op", [cnt](int) {
      return failing_op(cnt, ErrorCode::kNotFound);
    });
  }(engine, policy, &calls, &got));
  engine.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got.code(), ErrorCode::kNotFound);
}

TEST(FaultRetry, TransientFailureRecoversAndSleepsBetweenAttempts) {
  sim::Engine engine;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = 1e-3;
  policy.jitter = 0;
  int calls = 0;
  Status got;
  engine.spawn([](sim::Engine& eng, RetryPolicy pol, int* cnt,
                  Status* out) -> sim::Task<> {
    *out = co_await retry(eng, pol, 1, "flaky op",
                          [cnt](int) { return flaky_op(cnt, 3); });
  }(engine, policy, &calls, &got));
  engine.run();
  EXPECT_TRUE(got.is_ok()) << got.to_string();
  EXPECT_EQ(calls, 3);
  // Two backoff sleeps elapsed (1 ms, then 2 ms).
  EXPECT_DOUBLE_EQ(engine.now(), 3e-3);
}

TEST(FaultRetry, OpTimeoutBoundsTheVirtualTimeBudget) {
  sim::Engine engine;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = 0.25;
  policy.backoff_multiplier = 1.0;
  policy.max_backoff = 0.25;
  policy.jitter = 0;
  policy.op_timeout = 0.6;  // admits attempt 0, 1 (0.25 s), 2 (0.5 s)
  int calls = 0;
  Status got;
  engine.spawn([](sim::Engine& eng, RetryPolicy pol, int* cnt,
                  Status* out) -> sim::Task<> {
    *out = co_await retry(eng, pol, 1, "slow op", [cnt](int) {
      return failing_op(cnt, ErrorCode::kOutOfRdmaMemory);
    });
  }(engine, policy, &calls, &got));
  engine.run();
  EXPECT_EQ(got.code(), ErrorCode::kTimeout);
  EXPECT_EQ(calls, 3);
  EXPECT_LE(engine.now(), 0.8);
}

sim::Task<Status> slow_failing_op(sim::Engine& engine, int* calls,
                                  double cost) {
  ++*calls;
  co_await engine.sleep(cost);
  co_return make_error(ErrorCode::kOutOfRdmaMemory, "synthetic failure");
}

TEST(FaultRetry, OpTimeoutIsCheckedBeforeIssuingTheNextAttempt) {
  // Regression: the budget used to be examined only after the backoff
  // sleep, so an op that burnt the whole budget by itself still slept one
  // full backoff (10 s here) before retry() noticed exhaustion. The
  // exhaustion timestamp must be the op's own cost, nothing more.
  sim::Engine engine;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = 10.0;
  policy.backoff_multiplier = 1.0;
  policy.max_backoff = 10.0;
  policy.jitter = 0;
  policy.op_timeout = 0.6;
  int calls = 0;
  Status got;
  engine.spawn([](sim::Engine& eng, RetryPolicy pol, int* cnt,
                  Status* out) -> sim::Task<> {
    *out = co_await retry(eng, pol, 1, "slow op", [&eng, cnt](int) {
      return slow_failing_op(eng, cnt, 0.7);
    });
  }(engine, policy, &calls, &got));
  engine.run();
  EXPECT_EQ(calls, 1);  // attempt 0 alone exceeded the budget
  EXPECT_EQ(got.code(), ErrorCode::kTimeout);
  EXPECT_DOUBLE_EQ(engine.now(), 0.7);  // no backoff slept past exhaustion
}

TEST(FaultRideOut, CertainFaultExhaustsAndZeroProbabilityIsFree) {
  sim::Engine engine;
  Plan plan;
  plan.transport_retry.max_attempts = 3;
  plan.transport_retry.jitter = 0;
  Injector injector(plan);
  BindWorld bind({.fault = &injector});
  Status certain;
  Status never;
  engine.spawn([](sim::Engine& eng, Status* c, Status* n) -> sim::Task<> {
    *c = co_await ride_out(eng, 1.0, /*op_key=*/5, Kind::kRdmaFlap, "flap");
    *n = co_await ride_out(eng, 0.0, 5, Kind::kRdmaFlap, "flap");
  }(engine, &certain, &never));
  engine.run();
  EXPECT_EQ(certain.code(), ErrorCode::kTimeout);
  EXPECT_TRUE(never.is_ok());
  EXPECT_EQ(injector.stats().injected, 3u);
  EXPECT_EQ(injector.stats().retries, 2u);
  EXPECT_EQ(injector.stats().timeouts, 1u);
  EXPECT_EQ(injector.stats().dropped_ops, 1u);
}

// ------------------------------------------------------------ workflow ----

workflow::Spec chaos_spec(workflow::MethodSel method) {
  workflow::Spec spec;
  spec.app = workflow::AppSel::kLaplace;
  spec.method = method;
  spec.machine = hpc::titan();
  spec.nsim = 8;
  spec.nana = 4;
  spec.steps = 2;
  spec.laplace_rows = 64;
  spec.laplace_cols_per_proc = 64;
  return spec;
}

TEST(FaultWorkflow, TransientFlapsAndLossAreRiddenOutToCompletion) {
  workflow::Spec spec = chaos_spec(workflow::MethodSel::kDataspacesNative);
  spec.fault.rdma_flap = 0.2;
  spec.fault.packet_loss = 0.1;
  spec.fault.transport_retry.max_attempts = 6;
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_GT(result.fault.injected, 0u);
  EXPECT_GT(result.fault.retries, 0u);
  EXPECT_EQ(result.fault.timeouts, 0u);
  EXPECT_FALSE(result.fault.fallback_activated);
  // A fault-free run of the same spec computes the same analysis value.
  workflow::Spec clean = chaos_spec(workflow::MethodSel::kDataspacesNative);
  workflow::RunResult baseline = workflow::run(clean);
  ASSERT_TRUE(baseline.ok) << baseline.failure_summary();
  EXPECT_DOUBLE_EQ(result.sample_analysis_value,
                   baseline.sample_analysis_value);
}

TEST(FaultWorkflow, ServerCrashSurfacesTypedFailuresWithoutFallback) {
  workflow::Spec spec = chaos_spec(workflow::MethodSel::kDataspacesNative);
  spec.fault.server_crashes = {{1e-3, 0}};
  workflow::RunResult result = workflow::run(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.fault.server_crashes, 1u);
  EXPECT_FALSE(result.fault.fallback_activated);
  ASSERT_FALSE(result.failures.empty());
  bool typed = false;
  for (const auto& f : result.failures) {
    if (f.find("CONNECTION_FAILED") != std::string::npos) typed = true;
  }
  EXPECT_TRUE(typed) << result.failure_summary();
}

TEST(FaultWorkflow, MpiIoFallbackRecoversTheAnalysis) {
  workflow::Spec spec = chaos_spec(workflow::MethodSel::kDataspacesNative);
  spec.fault.server_crashes = {{1e-3, 0}};
  spec.fallback.to_mpi_io = true;
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_TRUE(result.fault.fallback_activated);
  EXPECT_GT(result.fault.time_to_recover, 0.0);
  EXPECT_FALSE(result.recovered_failures.empty());

  // Fallback equivalence: the replay computes exactly what a fault-free
  // MPI-IO run of the same workflow computes.
  workflow::RunResult direct =
      workflow::run(chaos_spec(workflow::MethodSel::kMpiIo));
  ASSERT_TRUE(direct.ok) << direct.failure_summary();
  EXPECT_DOUBLE_EQ(result.sample_analysis_value,
                   direct.sample_analysis_value);
  EXPECT_GT(result.end_to_end, direct.end_to_end);  // crash time + replay
}

TEST(FaultWorkflow, DimesMetadataCrashFailsTypedAndFallsBack) {
  workflow::Spec spec = chaos_spec(workflow::MethodSel::kDimesNative);
  spec.fault.server_crashes = {{1e-3, 0}};
  spec.fallback.to_mpi_io = true;
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_TRUE(result.fault.fallback_activated);
  EXPECT_EQ(result.fault.server_crashes, 1u);
  EXPECT_FALSE(result.recovered_failures.empty());
}

TEST(FaultWorkflow, StragglerPlanSlowsTheMarkedRanks) {
  workflow::Spec spec = chaos_spec(workflow::MethodSel::kMpiIo);
  workflow::RunResult baseline = workflow::run(spec);
  ASSERT_TRUE(baseline.ok) << baseline.failure_summary();
  spec.fault.straggler = {4, 3.0};  // ranks 0 and 4 compute 3x slower
  workflow::RunResult straggled = workflow::run(spec);
  ASSERT_TRUE(straggled.ok) << straggled.failure_summary();
  EXPECT_GT(straggled.sim_compute, baseline.sim_compute);
  EXPECT_GE(straggled.end_to_end, baseline.end_to_end);
}

TEST(FaultWorkflow, FaultFreeSpecBindsNoInjector) {
  workflow::Spec spec = chaos_spec(workflow::MethodSel::kDataspacesNative);
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_EQ(result.fault.injected, 0u);
  EXPECT_EQ(result.fault.retries, 0u);
  EXPECT_FALSE(result.fault.fallback_activated);
}

TEST(FaultWorkflow, FailureSummaryFormatsAllThreeOutcomes) {
  workflow::RunResult ok;
  ok.ok = true;
  EXPECT_EQ(ok.failure_summary(), "ok");
  workflow::RunResult hang;
  hang.ok = false;
  EXPECT_EQ(hang.failure_summary(), "failed (hang)");
  workflow::RunResult failed;
  failed.ok = false;
  failed.failures = {"CONNECTION_FAILED: staging server 0 crashed",
                     "TIMEOUT: dimes put_meta gave up"};
  // The summary leads with the first (root-cause) failure; the full list
  // stays in RunResult::failures for the harnesses.
  EXPECT_EQ(failed.failure_summary(),
            "CONNECTION_FAILED: staging server 0 crashed");
}

// ------------------------------------------------- determinism harness ----

TEST(FaultDeterminism, TransientChaosIsScheduleInvariant) {
  workflow::Spec spec = chaos_spec(workflow::MethodSel::kDataspacesNative);
  spec.fault.rdma_flap = 0.2;
  spec.fault.packet_loss = 0.1;
  spec.fault.transport_retry.max_attempts = 6;
  check::Options options;
  options.repeats = 2;
  check::Report report = check::run_deterministic(spec, options);
  EXPECT_TRUE(report.deterministic) << report.to_string();
}

TEST(FaultDeterminism, CrashAndFallbackAreScheduleInvariant) {
  workflow::Spec spec = chaos_spec(workflow::MethodSel::kDataspacesNative);
  spec.fault.server_crashes = {{1e-3, 0}};
  spec.fallback.to_mpi_io = true;
  check::Options options;
  options.repeats = 2;
  check::Report report = check::run_deterministic(spec, options);
  EXPECT_TRUE(report.deterministic) << report.to_string();
}

TEST(FaultDeterminism, ChaosRunIsThreadCountInvariantOnTheSweepPool) {
  // The same chaos spec run twice on pools of different widths must report
  // byte-identical sorted failure sets (multi-failure ordering stability).
  workflow::Spec spec = chaos_spec(workflow::MethodSel::kDataspacesNative);
  spec.fault.server_crashes = {{1e-3, 0}};
  auto sorted_failures = [&spec](int threads) {
    std::vector<std::function<workflow::RunResult()>> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.emplace_back([&spec] { return workflow::run(spec); });
    }
    auto results = sweep::Pool(threads).run_ordered(std::move(jobs));
    std::vector<std::string> all;
    for (auto& r : results) {
      std::vector<std::string> f = r.failures;
      std::sort(f.begin(), f.end());
      all.insert(all.end(), f.begin(), f.end());
    }
    return all;
  };
  const auto serial = sorted_failures(1);
  const auto parallel = sorted_failures(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace imc::fault
