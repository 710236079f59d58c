// imc::prof: lane binding through the current World, meter aggregation, collector fold/export — and the contract that makes
// the whole layer admissible: profiling is strictly digest-excluded, so
// run digests, trace digests, exports, and chaos invariants are
// byte-identical with the collector installed or absent at every thread
// count and schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "hpc/machine.h"
#include "prof/prof.h"
#include "sweep/sweep.h"
#include "trace/trace.h"
#include "workflow/workflow.h"

namespace imc {
namespace {

using workflow::RunResult;
using workflow::Spec;

// ---------------------------------------------------------------------------
// Host descriptor and rusage plumbing (shape only — values are host facts).

TEST(ProfHost, DescriptorIsPopulatedAndCached) {
  const prof::HostInfo& info = prof::host();
  EXPECT_GE(info.cores, 1);
  EXPECT_GT(info.page_size, 0);
  EXPECT_FALSE(info.cpu_model.empty());
  EXPECT_EQ(&prof::host(), &info);  // cached, one read per process
}

TEST(ProfHost, RusageReadsOnPosixHosts) {
  const prof::Rusage usage = prof::read_rusage();
  ASSERT_TRUE(usage.ok);
  EXPECT_GT(usage.max_rss_kb, 0);
}

TEST(ProfHost, WallSecondsIsMonotonic) {
  const double a = prof::wall_seconds();
  const double b = prof::wall_seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

#if IMC_PROF_ENABLED

// ---------------------------------------------------------------------------
// Lane binding: unbound hooks are inert, bound ones attribute to the
// innermost lane.

TEST(ProfBinding, UnboundHooksAreInert) {
  ASSERT_EQ(prof::meter(), nullptr);
  prof::Timer timer = prof::timer("test.unbound");
  EXPECT_FALSE(timer.active());
  timer.stop();  // no-op, must not crash
  prof::count("test.unbound");
  prof::sample("test.unbound", 3.0);
}

TEST(ProfBinding, HooksAttributeToTheInnermostLane) {
  prof::Meter outer("outer");
  prof::Meter inner("inner");
  BindWorld bind_outer({.meter = &outer});
  {
    BindWorld bind_inner({.meter = &inner});
    prof::count("test.mark");
  }
  prof::count("test.mark", 2.0);
  EXPECT_DOUBLE_EQ(inner.stats().at("test.mark").sum, 1.0);
  EXPECT_DOUBLE_EQ(outer.stats().at("test.mark").sum, 2.0);
}

// ---------------------------------------------------------------------------
// Meter aggregation and the RAII timer.

TEST(ProfMeter, TimingCountSampleFoldByKind) {
  prof::Meter m("lane");
  m.timing("phase", 0.5);
  m.timing("phase", 1.5);
  m.count("jobs");
  m.count("jobs", 2.0);
  m.sample("level", 7.0);
  m.sample("level", 3.0);

  const trace::Stat& phase = m.stats().at("phase");
  EXPECT_EQ(phase.kind, 'h');
  EXPECT_EQ(phase.count, 2u);
  EXPECT_DOUBLE_EQ(phase.sum, 2.0);
  EXPECT_DOUBLE_EQ(phase.min, 0.5);
  EXPECT_DOUBLE_EQ(phase.max, 1.5);

  const trace::Stat& jobs = m.stats().at("jobs");
  EXPECT_EQ(jobs.kind, 'c');
  EXPECT_DOUBLE_EQ(jobs.sum, 3.0);

  const trace::Stat& level = m.stats().at("level");
  EXPECT_EQ(level.kind, 'g');
  EXPECT_DOUBLE_EQ(level.min, 3.0);
  EXPECT_DOUBLE_EQ(level.max, 7.0);
  EXPECT_DOUBLE_EQ(level.last, 3.0);
}

TEST(ProfMeter, TimerRecordsOncePerPhaseAndStopsEarly) {
  prof::Meter m("lane");
  BindWorld bind({.meter = &m});
  {
    prof::Timer t = prof::timer("phase.scoped");
    EXPECT_TRUE(t.active());
  }
  prof::Timer early = prof::timer("phase.early");
  early.stop();
  early.stop();  // idempotent
  EXPECT_FALSE(early.active());

  EXPECT_EQ(m.stats().at("phase.scoped").count, 1u);
  EXPECT_EQ(m.stats().at("phase.early").count, 1u);
  EXPECT_GE(m.stats().at("phase.scoped").sum, 0.0);
}

TEST(ProfMeter, TimerMoveTransfersTheObligation) {
  prof::Meter m("lane");
  BindWorld bind({.meter = &m});
  {
    prof::Timer a = prof::timer("phase.moved");
    prof::Timer b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.active());
  }
  // Exactly one recording despite two Timer objects.
  EXPECT_EQ(m.stats().at("phase.moved").count, 1u);
}

// ---------------------------------------------------------------------------
// Collector: fold, lane merge, and the JSON report.

TEST(ProfCollector, FoldMergesLanesByName) {
  prof::Collector collector;
  prof::Meter first("worker0");
  first.timing("job.run", 1.0);
  first.count("jobs");
  prof::Meter second("worker0");
  second.timing("job.run", 3.0);
  second.count("jobs", 2.0);
  prof::Meter other("caller");
  other.sample("pool.width", 4.0);

  collector.fold(first);
  collector.fold(second);
  collector.fold(other);

  EXPECT_EQ(collector.lane_count(), 2u);
  const auto lanes = collector.lanes();
  const trace::Stat& run = lanes.at("worker0").at("job.run");
  EXPECT_EQ(run.count, 2u);
  EXPECT_DOUBLE_EQ(run.sum, 4.0);
  EXPECT_DOUBLE_EQ(run.min, 1.0);
  EXPECT_DOUBLE_EQ(run.max, 3.0);
  EXPECT_DOUBLE_EQ(lanes.at("worker0").at("jobs").sum, 3.0);
  EXPECT_DOUBLE_EQ(lanes.at("caller").at("pool.width").last, 4.0);
}

TEST(ProfCollector, ToJsonCarriesSchemaHostRusageAndLanes) {
  prof::Collector collector;
  prof::Meter m("worker0");
  m.timing("job.run", 0.25);
  m.timing("job.run", 0.5);
  collector.fold(m);
  prof::Meter caller("caller");
  caller.count("jobs", 2.0);
  caller.sample("pool.width", 4.0);
  collector.fold(caller);
  const std::string json = collector.to_json();
  for (const char* needle :
       {"\"schema\":\"imc-prof-v1\"", "\"host\"", "\"cores\"",
        "\"page_size\"", "\"build_type\"", "\"rusage\"", "\"max_rss_kb\"",
        "\"process\"", "\"log_flushed_bytes\"", "\"lanes\"", "\"worker0\"",
        "\"job.run\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // The lanes block is a pure function of the folded stats: lanes and
  // stats in name order, one stat object per line.
  const std::size_t lanes = json.find("\"lanes\"");
  ASSERT_NE(lanes, std::string::npos);
  EXPECT_EQ(json.substr(lanes), R"json("lanes":{
"caller":{
"jobs":{"kind":"c","count":1,"sum":2,"min":2,"max":2,"last":2},
"pool.width":{"kind":"g","count":1,"sum":4,"min":4,"max":4,"last":4}},
"worker0":{
"job.run":{"kind":"h","count":2,"sum":0.75,"min":0.25,"max":0.5,"last":0.5}}}}
)json");
}

// ---------------------------------------------------------------------------
// Sweep integration: lanes populate, and profiling never perturbs results.

std::vector<Spec> ladder_with_chaos() {
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
    spec.steps = 2;
    spec.synthetic_elements_per_proc = 5'000;
    specs.push_back(spec);
  }
  // One faulted world: transient flaps ridden out by retries, so the run
  // stays ok while exercising the fault counters under profiling.
  Spec chaos;
  chaos.app = workflow::AppSel::kLaplace;
  chaos.method = workflow::MethodSel::kDataspacesNative;
  chaos.machine = hpc::titan();
  chaos.nsim = 8;
  chaos.nana = 4;
  chaos.steps = 2;
  chaos.laplace_rows = 64;
  chaos.laplace_cols_per_proc = 64;
  chaos.fault.rdma_flap = 0.2;
  chaos.fault.packet_loss = 0.1;
  chaos.fault.transport_retry.max_attempts = 6;
  specs.push_back(chaos);
  return specs;
}

struct SweepOutcome {
  std::vector<std::uint64_t> run_digests;
  std::vector<double> analysis_values;
  std::uint64_t trace_digest = 0;
  std::string trace_json;
};

// Runs the ladder through a pool at `threads`, with an optional prof
// collector installed, and returns everything the byte-identity contracts
// cover. The trace sink is always installed so the comparison includes the
// full export. With `spread`, the first two jobs each wait until both have
// started, so each worker of a width-2 pool takes at least one job.
SweepOutcome run_ladder(int threads, sim::Schedule schedule,
                        prof::Collector* collector, bool spread = false) {
  SweepOutcome out;
  trace::Sink sink;
  trace::Sink* previous_sink = trace::set_global_sink(&sink);
  prof::Collector* previous_collector =
      collector != nullptr ? prof::set_global_collector(collector) : nullptr;

  std::vector<Spec> specs = ladder_with_chaos();
  for (Spec& spec : specs) spec.schedule = schedule;
  std::atomic<int> started{0};
  std::vector<std::function<RunResult()>> jobs;
  for (const Spec& spec : specs) {
    jobs.emplace_back([&spec, &started, spread] {
      if (spread && started.fetch_add(1) < 2) {
        while (started.load() < 2) std::this_thread::yield();
      }
      return workflow::run(spec);
    });
  }
  std::vector<RunResult> results =
      sweep::Pool(threads).run_ordered(std::move(jobs));

  if (collector != nullptr) prof::set_global_collector(previous_collector);
  trace::set_global_sink(previous_sink);

  for (const RunResult& r : results) {
    EXPECT_TRUE(r.ok) << r.failure_summary();
    out.run_digests.push_back(r.run_digest);
    out.analysis_values.push_back(r.sample_analysis_value);
  }
  out.trace_digest = sink.digest();
  out.trace_json = sink.to_json();
  return out;
}

TEST(ProfSweep, LanesPopulateAcrossPoolPaths) {
  // Sequential path (width 1).
  prof::Collector sequential;
  run_ladder(1, sim::Schedule{}, &sequential);
  auto seq_lanes = sequential.lanes();
  ASSERT_TRUE(seq_lanes.contains("sequential"));
  const auto& lane = seq_lanes.at("sequential");
  EXPECT_DOUBLE_EQ(lane.at("jobs").sum, 4.0);
  for (const char* stat :
       {"job.run", "job.flush", "worker.span", "engine.run",
        "engine.teardown", "arena.reserved_bytes", "trace.chunks",
        "log.captured_bytes", "fault.injected", "fault.retries"}) {
    EXPECT_TRUE(lane.contains(stat)) << stat;
  }
  // The faulted world recorded retries into the lane it ran on.
  EXPECT_GT(lane.at("fault.retries").sum, 0.0);

  // Threaded path (width 2): caller + workers, jobs conserved.
  prof::Collector threaded;
  run_ladder(2, sim::Schedule{}, &threaded, /*spread=*/true);
  auto pool_lanes = threaded.lanes();
  ASSERT_TRUE(pool_lanes.contains("caller"));
  ASSERT_TRUE(pool_lanes.contains("worker0"));
  ASSERT_TRUE(pool_lanes.contains("worker1"));
  const auto& caller = pool_lanes.at("caller");
  for (const char* stat :
       {"pool.dispatch", "pool.join", "pool.flush", "job.flush",
        "pool.width"}) {
    EXPECT_TRUE(caller.contains(stat)) << stat;
  }
  double jobs = 0.0;
  for (const auto& [name, stats] : pool_lanes) {
    if (stats.contains("jobs")) jobs += stats.at("jobs").sum;
    if (!name.starts_with("worker")) continue;
    // Pool occupancy per worker: the gap before each job, each job, and
    // the worker's whole life.
    for (const char* stat : {"idle", "job.run", "worker.span"}) {
      EXPECT_TRUE(stats.contains(stat)) << name << " " << stat;
    }
  }
  EXPECT_DOUBLE_EQ(jobs, 4.0);
}

TEST(ProfDigestExclusion, CollectorNeverPerturbsResultsOrTraces) {
  // The admissibility proof: run digests, analysis values, the trace chain
  // digest, and the full trace JSON are byte-identical with profiling off
  // vs. on, at IMC_THREADS=1/2/8, across FIFO / LIFO / seeded-shuffle
  // schedules — including the chaos (fault-injected) world.
  const std::vector<sim::Schedule> schedules = {
      {sim::TieBreak::kFifo, 0},
      {sim::TieBreak::kLifo, 0},
      {sim::TieBreak::kSeededShuffle, 7},
  };
  for (const sim::Schedule& schedule : schedules) {
    const SweepOutcome base = run_ladder(1, schedule, nullptr);
    ASSERT_EQ(base.run_digests.size(), 4u);
    for (int threads : {1, 2, 8}) {
      prof::Collector collector;
      const SweepOutcome got = run_ladder(threads, schedule, &collector);
      EXPECT_GE(collector.lane_count(), 1u);
      EXPECT_EQ(got.run_digests, base.run_digests)
          << to_string(schedule.tie_break) << " threads=" << threads;
      EXPECT_EQ(got.analysis_values, base.analysis_values)
          << to_string(schedule.tie_break) << " threads=" << threads;
      EXPECT_EQ(got.trace_digest, base.trace_digest)
          << to_string(schedule.tie_break) << " threads=" << threads;
      EXPECT_EQ(got.trace_json, base.trace_json)
          << to_string(schedule.tie_break) << " threads=" << threads;
    }
  }
}

TEST(ProfDigestExclusion, DisabledCollectorRecruitsNoLanes) {
  // With no collector installed the pool must not bind meters at all —
  // prof::enabled() is the runtime gate.
  ASSERT_EQ(prof::set_global_collector(nullptr), nullptr)
      << "IMC_PROF must be unset when running the test suite";
  EXPECT_FALSE(prof::enabled());
  run_ladder(2, sim::Schedule{}, nullptr);  // asserts results internally
}

#endif  // IMC_PROF_ENABLED

}  // namespace
}  // namespace imc
