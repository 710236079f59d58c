#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/env.h"
#include "common/log.h"
#include "check/check.h"
#include "sweep/sweep.h"
#include "workflow/workflow.h"

namespace imc {
namespace {

using workflow::RunResult;
using workflow::Spec;

// ---------------------------------------------------------------------------
// Env-knob parsing (the hardened readers behind IMC_THREADS and
// IMC_FULL_SCALE).

TEST(EnvParse, FlagAcceptsDocumentedForms) {
  EXPECT_TRUE(env::parse_flag("X", nullptr, true).value());
  EXPECT_FALSE(env::parse_flag("X", nullptr, false).value());
  EXPECT_FALSE(env::parse_flag("X", "", false).value());
  EXPECT_FALSE(env::parse_flag("X", "0", true).value());
  EXPECT_TRUE(env::parse_flag("X", "1", false).value());
}

TEST(EnvParse, FlagRejectsGarbageLoudly) {
  for (const char* bad : {"yes", "true", "2", " 1", "01 "}) {
    auto r = env::parse_flag("IMC_FULL_SCALE", bad, false);
    ASSERT_FALSE(r.has_value()) << bad;
    EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument) << bad;
    // The message must name the variable so the user can find the typo.
    EXPECT_NE(r.status().message().find("IMC_FULL_SCALE"), std::string::npos)
        << r.status().message();
  }
}

TEST(EnvParse, IntAcceptsRangeAndFallsBack) {
  EXPECT_EQ(env::parse_int("X", nullptr, 7, 1, 512).value(), 7);
  EXPECT_EQ(env::parse_int("X", "", 7, 1, 512).value(), 7);
  EXPECT_EQ(env::parse_int("X", "42", 7, 1, 512).value(), 42);
  EXPECT_EQ(env::parse_int("X", "1", 7, 1, 512).value(), 1);
  EXPECT_EQ(env::parse_int("X", "512", 7, 1, 512).value(), 512);
}

TEST(EnvParse, IntRejectsJunkAndOutOfRange) {
  for (const char* bad : {"12abc", "abc", "4.5", "0", "513", "-1",
                          "99999999999999999999999999"}) {
    auto r = env::parse_int("IMC_THREADS", bad, 1, 1, 512);
    ASSERT_FALSE(r.has_value()) << bad;
    EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("IMC_THREADS"), std::string::npos)
        << r.status().message();
  }
}

// ---------------------------------------------------------------------------
// Pool mechanics.

TEST(SweepPool, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(sweep::default_threads(), 1);
  EXPECT_EQ(sweep::Pool(0).threads(), sweep::default_threads());
  EXPECT_EQ(sweep::Pool(3).threads(), 3);
}

TEST(SweepPool, RunOrderedReturnsSubmissionOrderAtEveryWidth) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 20; ++i) {
      jobs.emplace_back([i] { return i * i; });
    }
    auto results = sweep::Pool(threads).run_ordered(std::move(jobs));
    ASSERT_EQ(results.size(), 20u) << threads;
    for (int i = 0; i < 20; ++i) EXPECT_EQ(results[i], i * i) << threads;
  }
}

TEST(SweepPool, EmptySweepIsANoOp) {
  std::vector<std::function<int()>> none;
  EXPECT_TRUE(sweep::Pool(4).run_ordered(std::move(none)).empty());
}

TEST(SweepPool, EveryJobRunsExactlyOnce) {
  std::atomic<int> runs{0};
  sweep::Pool(8).run_indexed(100, [&runs](std::size_t) {
    runs.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(runs.load(), 100);
}

// ---------------------------------------------------------------------------
// Per-world isolation: each job sees its own auditor, leak reports stay
// attributed per job, and the caller's binding is untouched.

TEST(SweepPool, JobsGetIsolatedAuditorBindings) {
  audit::Auditor outer;
  BindWorld outer_scope({.auditor = &outer});
  const audit::Auditor* outer_addr = &audit::global();

  for (int threads : {1, 2, 8}) {
    std::vector<std::function<std::vector<std::string>()>> jobs;
    for (int i = 0; i < 8; ++i) {
      jobs.emplace_back([i] {
        // Leak one descriptor under a per-job owner; the leak must land in
        // this job's auditor and nobody else's.
        audit::global().acquire(audit::Resource::kSockets,
                                "job" + std::to_string(i), 1);
        return audit::global().leaks();
      });
    }
    auto leak_reports = sweep::Pool(threads).run_ordered(std::move(jobs));
    ASSERT_EQ(leak_reports.size(), 8u);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(leak_reports[i].size(), 1u) << threads;
      EXPECT_NE(leak_reports[i][0].find("job" + std::to_string(i)),
                std::string::npos)
          << leak_reports[i][0];
    }
  }

  // The sweep never touched the caller's binding or ledger.
  EXPECT_EQ(&audit::global(), outer_addr);
  EXPECT_TRUE(outer.clean());
}

TEST(SweepPool, LogOutputIsCapturedPerJob) {
  // A job's IMC_LOG lines go to its buffered sink, not whatever sink the
  // submitting thread has bound.
  LogText outer;
  BindWorld capture({.log = &outer});
  sweep::Pool(2).run_indexed(4, [](std::size_t i) {
    log_message(LogLevel::kWarn, "job " + std::to_string(i) + " speaking");
  });
  EXPECT_EQ(outer.str(), "");
}

// ---------------------------------------------------------------------------
// WorldContext reuse: the pool's per-worker context must make a reused
// world observably identical to a fresh one (DESIGN.md §13).

TEST(WorldContext, RunResetsLedgerAndLogCaptureBetweenJobs) {
  sweep::WorldContext world;
  world.run([] {
    audit::global().acquire(audit::Resource::kSockets, "leaky-job", 1);
    log_message(LogLevel::kWarn, "first job speaking");
  });
  EXPECT_FALSE(world.auditor().clean());
  EXPECT_NE(world.take_logs().str().find("first job speaking"),
            std::string::npos);

  // The next job starts from a clean ledger and an empty capture buffer —
  // nothing from the leaky job bleeds through.
  world.run([] { EXPECT_TRUE(audit::global().leaks().empty()); });
  EXPECT_TRUE(world.auditor().clean());
  EXPECT_TRUE(world.take_logs().empty());
}

TEST(WorldContext, CapturesAreRetainedWhenTheJobThrows) {
  sweep::WorldContext world;
  try {
    world.run([] {
      log_message(LogLevel::kWarn, "about to explode");
      throw std::runtime_error("boom");
    });
    FAIL() << "expected the job exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_NE(world.take_logs().str().find("about to explode"),
            std::string::npos);
}

TEST(WorldContext, ArenaIsReusedAcrossWorkflowJobs) {
  // Coroutine frames of a workflow run allocate from the context's arena;
  // after the first job warmed the pool, later identical jobs are served
  // from free-list hits and the chunk footprint stops growing.
  Spec spec;
  spec.app = workflow::AppSel::kSynthetic;
  spec.method = workflow::MethodSel::kDataspacesNative;
  spec.machine = hpc::titan();
  spec.nsim = 4;
  spec.nana = 2;
  spec.steps = 1;
  spec.synthetic_elements_per_proc = 1'000;

  sweep::WorldContext world;
  world.run([&spec] { workflow::run(spec); });
  EXPECT_GT(world.arena().allocations(), 0u);
  EXPECT_EQ(world.arena().outstanding(), 0u);
  const std::size_t warm_reserved = world.arena().reserved_bytes();
  const auto warm_hits = world.arena().pool_hits();

  world.run([&spec] { workflow::run(spec); });
  EXPECT_EQ(world.arena().outstanding(), 0u);
  EXPECT_GT(world.arena().pool_hits(), warm_hits);
  EXPECT_EQ(world.arena().reserved_bytes(), warm_reserved);
}

// ---------------------------------------------------------------------------
// Determinism: a ladder of synthetic workflows produces identical results,
// digests, and leak reports at every thread count.

std::vector<Spec> synthetic_ladder() {
  std::vector<Spec> specs;
  for (auto [nsim, nana] : {std::pair{4, 2}, {8, 4}, {16, 8}}) {
    for (auto method : {workflow::MethodSel::kDataspacesNative,
                        workflow::MethodSel::kDimesNative,
                        workflow::MethodSel::kFlexpath}) {
      Spec spec;
      spec.app = workflow::AppSel::kSynthetic;
      spec.method = method;
      spec.machine = hpc::titan();
      spec.nsim = nsim;
      spec.nana = nana;
      spec.steps = 2;
      spec.synthetic_elements_per_proc = 10'000;
      specs.push_back(spec);
    }
  }
  return specs;
}

std::vector<RunResult> run_ladder(int threads) {
  auto specs = synthetic_ladder();
  std::vector<std::function<RunResult()>> jobs;
  for (const auto& spec : specs) {
    jobs.emplace_back([&spec] { return workflow::run(spec); });
  }
  return sweep::Pool(threads).run_ordered(std::move(jobs));
}

TEST(SweepDeterminism, LadderIsIdenticalAtThreads128) {
  const auto base = run_ladder(1);
  ASSERT_FALSE(base.empty());
  for (const auto& r : base) EXPECT_TRUE(r.ok) << r.failure_summary();

  for (int threads : {2, 8}) {
    const auto got = run_ladder(threads);
    ASSERT_EQ(got.size(), base.size()) << threads;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i].run_digest, base[i].run_digest) << threads << " " << i;
      EXPECT_EQ(got[i].events_processed, base[i].events_processed)
          << threads << " " << i;
      EXPECT_EQ(got[i].end_to_end, base[i].end_to_end) << threads << " " << i;
      EXPECT_EQ(got[i].server_peak, base[i].server_peak)
          << threads << " " << i;
      EXPECT_EQ(got[i].leaks, base[i].leaks) << threads << " " << i;
    }
  }
}

TEST(SweepDeterminism, ReusedWorldsMatchFreshRunsUnderEverySchedule) {
  // The decisive reset-reuse check: run a ladder directly (fresh world per
  // workflow::run, no pool) and compare against pooled runs at widths
  // 1/2/8, where each worker funnels several jobs through one reused
  // WorldContext — under every tie-break policy. Digests, event counts,
  // and leak audits must be invariant.
  const sim::Schedule schedules[] = {
      {sim::TieBreak::kFifo, 0},
      {sim::TieBreak::kLifo, 0},
      {sim::TieBreak::kSeededShuffle, 0x5eed5eed},
  };
  for (const auto& schedule : schedules) {
    std::vector<Spec> specs;
    for (auto method : {workflow::MethodSel::kDataspacesNative,
                        workflow::MethodSel::kDimesNative,
                        workflow::MethodSel::kFlexpath}) {
      Spec spec;
      spec.app = workflow::AppSel::kSynthetic;
      spec.method = method;
      spec.machine = hpc::titan();
      spec.nsim = 4;
      spec.nana = 2;
      spec.steps = 1;
      spec.synthetic_elements_per_proc = 2'000;
      spec.schedule = schedule;
      // Three copies of each method so every pooled worker reuses its
      // context at least once even at width 8 (9 jobs total).
      for (int copy = 0; copy < 3; ++copy) specs.push_back(spec);
    }

    std::vector<RunResult> fresh;
    for (const auto& spec : specs) fresh.push_back(workflow::run(spec));

    for (int threads : {1, 2, 8}) {
      std::vector<std::function<RunResult()>> jobs;
      for (const auto& spec : specs) {
        jobs.emplace_back([&spec] { return workflow::run(spec); });
      }
      const auto reused = sweep::Pool(threads).run_ordered(std::move(jobs));
      ASSERT_EQ(reused.size(), fresh.size());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(reused[i].run_digest, fresh[i].run_digest)
            << "tie_break=" << static_cast<int>(schedule.tie_break)
            << " threads=" << threads << " job=" << i;
        EXPECT_EQ(reused[i].events_processed, fresh[i].events_processed)
            << threads << " " << i;
        EXPECT_EQ(reused[i].leaks, fresh[i].leaks) << threads << " " << i;
      }
    }
  }
}

TEST(SweepDeterminism, CheckHarnessReportIsThreadCountInvariant) {
  // The schedules x repeats sweep inside run_deterministic must reach the
  // same verdict (and render the same report) at any width.
  auto scenario = [](const sim::Schedule& schedule) {
    Spec spec;
    spec.app = workflow::AppSel::kSynthetic;
    spec.method = workflow::MethodSel::kDataspacesNative;
    spec.machine = hpc::titan();
    spec.nsim = 4;
    spec.nana = 2;
    spec.steps = 1;
    spec.synthetic_elements_per_proc = 1'000;
    spec.schedule = schedule;
    auto result = workflow::run(spec);
    check::Outcome out;
    out.digest = result.run_digest;
    out.events = result.events_processed;
    out.metrics = {{"end_to_end", result.end_to_end}};
    return out;
  };
  std::string base;
  for (int threads : {1, 2, 8}) {
    check::Options options;
    options.threads = threads;
    auto report =
        check::run_deterministic("sweep-invariance", scenario, options);
    EXPECT_TRUE(report.deterministic) << report.to_string();
    if (threads == 1) {
      base = report.to_string();
    } else {
      EXPECT_EQ(report.to_string(), base) << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Failure propagation: a mid-sweep exception reaches the submitter, the
// pool drains (no dangling workers), and ambient bindings are restored.

TEST(SweepFailure, MidSweepExceptionReachesCaller) {
  audit::Auditor outer;
  BindWorld outer_scope({.auditor = &outer});
  const audit::Auditor* outer_addr = &audit::global();

  for (int threads : {1, 2, 8}) {
    std::atomic<int> completed{0};
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 16; ++i) {
      jobs.emplace_back([i, &completed]() -> int {
        if (i == 3) throw std::runtime_error("scenario 3 exploded");
        if (i == 11) throw std::runtime_error("scenario 11 exploded");
        completed.fetch_add(1, std::memory_order_relaxed);
        return i;
      });
    }
    try {
      sweep::Pool(threads).run_ordered(std::move(jobs));
      FAIL() << "expected the job-3 exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      // The lowest-index recorded failure wins, at every width.
      EXPECT_STREQ(e.what(), "scenario 3 exploded") << threads;
    }
    // Workers joined before the rethrow: nothing can still be running, so
    // the completion count is final (and at most the submitted job count).
    EXPECT_LE(completed.load(), 14) << threads;

    // The failing sweep left the caller's auditor binding in place, and the
    // pool is immediately reusable.
    EXPECT_EQ(&audit::global(), outer_addr) << threads;
    std::vector<std::function<int()>> retry;
    for (int i = 0; i < 4; ++i) retry.emplace_back([i] { return i; });
    auto ok = sweep::Pool(threads).run_ordered(std::move(retry));
    ASSERT_EQ(ok.size(), 4u);
    EXPECT_EQ(ok[3], 3);
  }
  EXPECT_TRUE(outer.clean());
}

}  // namespace
}  // namespace imc
