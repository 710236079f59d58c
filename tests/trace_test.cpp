// imc::trace: canonical serialization, per-world binding, event caps,
// chunk routing, and the two determinism contracts — byte-identical
// exports across same-instant tie-break schedules (engine level) and
// across sweep thread counts (workflow level).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/engine.h"
#include "sim/task.h"
#include "sweep/sweep.h"
#include "trace/trace.h"
#include "workflow/workflow.h"

namespace imc {
namespace {

using workflow::RunResult;
using workflow::Spec;

// ---------------------------------------------------------------------------
// Canonical serialization helpers.

TEST(TraceFormat, IntegralNumbersPrintWithoutDecimalPoint) {
  EXPECT_EQ(trace::format_number(0.0), "0");
  EXPECT_EQ(trace::format_number(3.0), "3");
  EXPECT_EQ(trace::format_number(-2.0), "-2");
  EXPECT_EQ(trace::format_number(1048576.0), "1048576");
}

TEST(TraceFormat, NonIntegralNumbersRoundTripExactly) {
  for (double v : {0.5, 1e-6, 3.141592653589793, -0.125, 1e18}) {
    const std::string text = trace::format_number(v);
    EXPECT_EQ(std::stod(text), v) << text;
  }
}

// The exporter's exact bytes for one run: process/thread names, an X span
// with args, one without, a C counter, and one metric of each kind.
TEST(TraceFormat, SinkJsonBytesArePinned) {
  sim::Engine engine;
  trace::Recorder recorder(engine, "pin", 16);
  recorder.record_span(trace::SpanEvent{"fabric.transfer", trace::Track{1, 0},
                                        0.5, 1.25, {{"bytes", 4096.0}}});
  recorder.record_span(
      trace::SpanEvent{"ds.put", trace::Track{2, 7}, 1.0, 1.000002, {}});
  recorder.gauge("mem.used", trace::Track{-1, 0}, 1.5);
  recorder.count("ds.puts", 1.0);
  recorder.count("ds.puts", 2.0);
  trace::Sink sink;
  sink.add(recorder.take_chunk());
  EXPECT_EQ(sink.to_json(), R"json({"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"run0 metrics"}},
{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"run0 node1"}},
{"ph":"M","pid":3,"tid":0,"name":"process_name","args":{"name":"run0 node2"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"node"}},
{"ph":"M","pid":2,"tid":0,"name":"thread_name","args":{"name":"node"}},
{"ph":"M","pid":3,"tid":7,"name":"thread_name","args":{"name":"pid 7"}},
{"ph":"X","pid":2,"tid":0,"ts":500000,"dur":750000,"name":"fabric.transfer","cat":"fabric","args":{"bytes":4096}},
{"ph":"X","pid":3,"tid":7,"ts":1000000,"dur":2,"name":"ds.put","cat":"ds","args":{}},
{"ph":"C","pid":0,"tid":0,"ts":0,"name":"mem.used","args":{"value":1.5}}],
"imc":{"schema":"imc-trace-v1","runs":[
{"label":"pin","digest":"7bd50a6f386daccb","dropped_events":0,"metrics":{
"ds.puts":{"kind":"c","count":2,"sum":3,"min":1,"max":2,"last":2},
"mem.used":{"kind":"g","count":1,"sum":1.5,"min":1.5,"max":1.5,"last":1.5},
"span.ds.put":{"kind":"h","count":1,"sum":2.0000000000575113e-06,"min":2.0000000000575113e-06,"max":2.0000000000575113e-06,"last":2.0000000000575113e-06},
"span.fabric.transfer":{"kind":"h","count":1,"sum":0.75,"min":0.75,"max":0.75,"last":0.75}}}],"digest":"74d0412057934c45"}}
)json");
}

TEST(TraceDigest, Fnv1aChainsAndDiscriminates) {
  EXPECT_EQ(trace::fnv1a(""), 1469598103934665603ULL);
  EXPECT_EQ(trace::fnv1a("ab"), trace::fnv1a("b", trace::fnv1a("a")));
  EXPECT_NE(trace::fnv1a("a"), trace::fnv1a("b"));
  EXPECT_NE(trace::fnv1a("x", 1), trace::fnv1a("x", 2));
}

#if IMC_TRACE_ENABLED

// ---------------------------------------------------------------------------
// Recorder binding: with no recorder in the current World, hooks are inert.

TEST(TraceBinding, UnboundHooksAreInert) {
  ASSERT_EQ(trace::global(), nullptr);
  // None of these may crash or allocate into a recorder.
  trace::Span span = trace::span("test.unbound", trace::Track{1, 2});
  EXPECT_FALSE(span.active());
  span.arg("ignored", 1.0);
  trace::count("test.unbound");
  trace::value("test.unbound", 3.0);
  trace::gauge("test.unbound", trace::Track{}, 4.0);
}

// ---------------------------------------------------------------------------
// Span timing and metric folding.

TEST(TraceRecorder, SpanCoversSimulatedSleep) {
  sim::Engine engine;
  trace::Recorder recorder(engine, "spans", 64);
  BindWorld bind({.recorder = &recorder});
  engine.spawn([](sim::Engine& e) -> sim::Task<> {
    trace::Span span = trace::span("test.work", trace::Track{5, 7});
    span.arg("bytes", 4096.0);
    co_await e.sleep(1.5);
    span.end();
    co_await e.sleep(1.0);  // outside the span
  }(engine));
  engine.run();

  trace::RunChunk chunk = recorder.take_chunk();
  ASSERT_EQ(chunk.spans.size(), 1u);
  const trace::SpanEvent& event = chunk.spans[0];
  EXPECT_EQ(event.name, "test.work");
  EXPECT_EQ(event.track.node, 5);
  EXPECT_EQ(event.track.tid, 7);
  EXPECT_DOUBLE_EQ(event.start, 0.0);
  EXPECT_DOUBLE_EQ(event.end, 1.5);
  ASSERT_EQ(event.args.size(), 1u);
  EXPECT_EQ(event.args[0].first, "bytes");

  // The duration folded into the span.<name> histogram.
  ASSERT_TRUE(chunk.metrics.contains("span.test.work"));
  const trace::Stat& stat = chunk.metrics.at("span.test.work");
  EXPECT_EQ(stat.kind, 'h');
  EXPECT_EQ(stat.count, 1u);
  EXPECT_DOUBLE_EQ(stat.sum, 1.5);
}

TEST(TraceRecorder, EventCapDropsDeterministicallyButKeepsMetrics) {
  sim::Engine engine;
  trace::Recorder recorder(engine, "capped", 2);
  for (int i = 0; i < 5; ++i) {
    recorder.record_span(trace::SpanEvent{"test.a", {}, 0.0, 1.0, {}});
  }
  recorder.record_span(trace::SpanEvent{"test.pinned", {}, 0.0, 2.0, {}},
                       /*pinned=*/true);
  trace::RunChunk chunk = recorder.take_chunk();

  // Two retained + one pinned (leading); three dropped, visibly.
  ASSERT_EQ(chunk.spans.size(), 3u);
  EXPECT_EQ(chunk.spans[0].name, "test.pinned");
  EXPECT_EQ(chunk.dropped_events, 3u);
  ASSERT_TRUE(chunk.metrics.contains("trace.dropped_events"));
  // Metrics see every event regardless of the cap.
  EXPECT_EQ(chunk.metrics.at("span.test.a").count, 5u);
  EXPECT_NE(chunk.metrics_text.find("span.test.a h 5 5 1 1 1\n"),
            std::string::npos)
      << chunk.metrics_text;
}

// ---------------------------------------------------------------------------
// Chunk routing: the current World's capture takes each chunk; with none
// bound, chunks go to the sink.

trace::RunChunk labeled_chunk(const std::string& label) {
  sim::Engine engine;
  trace::Recorder recorder(engine, label, 16);
  recorder.count("test.mark");
  return recorder.take_chunk();
}

TEST(TraceRouting, InnermostCaptureTakesEachChunk) {
  std::vector<trace::RunChunk> outer;
  std::vector<trace::RunChunk> inner;
  BindWorld bind_outer({.chunks = &outer});
  {
    BindWorld bind_inner({.chunks = &inner});
    trace::emit_chunk(labeled_chunk("first"));
  }
  trace::emit_chunk(labeled_chunk("second"));
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0].label, "first");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0].label, "second");
}

TEST(TraceRouting, SinkReceivesChunksWhenNoBufferIsBound) {
  trace::Sink sink;
  trace::Sink* previous = trace::set_global_sink(&sink);
  trace::emit_chunk(labeled_chunk("direct"));
  trace::set_global_sink(previous);
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_NE(sink.to_json().find("\"direct\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism contract 1: same scenario, different same-instant tie-break
// schedules. With all events at distinct instants the recorded stream is a
// pure function of simulated time, so digest and JSON must be identical
// bytes under FIFO, LIFO, and seeded-shuffle scheduling.

std::pair<std::uint64_t, std::string> run_engine_scenario(
    sim::Schedule schedule) {
  sim::Engine engine(schedule);
  trace::Recorder recorder(engine, "schedule-invariance", 1024);
  BindWorld bind({.recorder = &recorder});
  for (int p = 0; p < 4; ++p) {
    engine.spawn([](sim::Engine& e, int p) -> sim::Task<> {
      for (int i = 0; i < 5; ++i) {
        trace::Span span = trace::span("test.step", trace::Track{p, 0});
        span.arg("iter", static_cast<double>(i));
        // (10 + p) * k products are pairwise distinct for p in 0..3 and
        // k in 1..5, so no two events ever share an instant.
        co_await e.sleep(1e-3 + static_cast<double>(p) * 1e-4);
        trace::count("test.ops");
        trace::gauge("test.level", trace::Track{p, 0},
                     static_cast<double>(i));
      }
    }(engine, p));
  }
  engine.run();
  trace::Sink sink;
  sink.add(recorder.take_chunk());
  return {sink.digest(), sink.to_json()};
}

TEST(TraceDeterminism, ExportIsScheduleInvariantAtDistinctInstants) {
  const auto base = run_engine_scenario({sim::TieBreak::kFifo, 0});
  EXPECT_NE(base.second.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(base.second.find("\"ph\":\"C\""), std::string::npos);
  const std::vector<sim::Schedule> others = {
      {sim::TieBreak::kLifo, 0},
      {sim::TieBreak::kSeededShuffle, 1},
      {sim::TieBreak::kSeededShuffle, 99},
  };
  for (const auto& schedule : others) {
    const auto got = run_engine_scenario(schedule);
    EXPECT_EQ(got.first, base.first) << to_string(schedule.tie_break);
    EXPECT_EQ(got.second, base.second) << to_string(schedule.tie_break);
  }
}

// ---------------------------------------------------------------------------
// Determinism contract 2: a workflow sweep traces identically at every
// sweep width — chunks arrive at the sink in submission order and each
// run's digest is a pure function of its world.

std::vector<Spec> small_ladder() {
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
  return specs;
}

struct SweepTrace {
  std::vector<RunResult> results;
  std::uint64_t digest = 0;
  std::string json;
};

SweepTrace run_traced_sweep(int threads) {
  SweepTrace out;
  trace::Sink sink;
  trace::Sink* previous = trace::set_global_sink(&sink);
  const auto specs = small_ladder();
  std::vector<std::function<RunResult()>> jobs;
  for (const auto& spec : specs) {
    jobs.emplace_back([&spec] { return workflow::run(spec); });
  }
  out.results = sweep::Pool(threads).run_ordered(std::move(jobs));
  trace::set_global_sink(previous);
  EXPECT_EQ(sink.size(), specs.size());
  out.digest = sink.digest();
  out.json = sink.to_json();
  return out;
}

TEST(TraceDeterminism, SweepExportIsThreadCountInvariant) {
  const SweepTrace base = run_traced_sweep(1);
  ASSERT_EQ(base.results.size(), 3u);
  for (const auto& r : base.results) {
    EXPECT_TRUE(r.ok) << r.failure_summary();
    EXPECT_NE(r.trace_digest, 0u);
  }
  // The export carries the expected layers.
  for (const char* needle :
       {"workflow.deploy", "workflow.run", "workflow.teardown",
        "fabric.transfer", "sim.compute", "\"imc\""}) {
    EXPECT_NE(base.json.find(needle), std::string::npos) << needle;
  }

  for (int threads : {2, 8}) {
    const SweepTrace got = run_traced_sweep(threads);
    EXPECT_EQ(got.digest, base.digest) << threads;
    EXPECT_EQ(got.json, base.json) << threads;
    ASSERT_EQ(got.results.size(), base.results.size()) << threads;
    for (std::size_t i = 0; i < base.results.size(); ++i) {
      EXPECT_EQ(got.results[i].trace_digest, base.results[i].trace_digest)
          << threads << " " << i;
    }
  }
}

TEST(TraceWorkflow, NoSinkMeansNoRecorderAndZeroDigest) {
  ASSERT_EQ(trace::global_sink(), nullptr)
      << "IMC_TRACE must be unset when running the test suite";
  Spec spec = small_ladder()[0];
  RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_EQ(result.trace_digest, 0u);
}

#endif  // IMC_TRACE_ENABLED

}  // namespace
}  // namespace imc
