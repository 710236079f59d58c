#include "sweep/sweep.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/world.h"
#include "prof/prof.h"

namespace imc::sweep {
namespace {

// IMC_TRACE_SWEEP=1 publishes wall-clock worker-occupancy spans (sweep.job
// / sweep.idle) into the trace sink as a meta chunk. Off by default: the
// spans are wall-clock by nature (they describe the host pool, not any
// simulated world) and therefore live outside the byte-identity contracts.
bool occupancy_spans_enabled() {
  static const bool value =
      env::int_or_die("IMC_TRACE_SWEEP", 0, 0, 1) == 1;
  return value;
}

// Wall-clock seconds since `origin`. Confined to the occupancy-span
// diagnostics; simulated-world timestamps must come from sim::Engine.
double seconds_since(
    std::chrono::steady_clock::time_point origin) {  // imc-analyze: allow(wall-clock)
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now() - origin)  // imc-analyze: allow(wall-clock)
      .count();
}

// Resource accounting for one finished job, attributed to the worker's
// prof lane. Arena counters are cumulative across a reused context, so the
// caller snapshots them before the job and the deltas land here; log/trace
// figures come straight from the retained captures. Wall-clock-free, but
// still prof-only: nothing recorded here may reach a digest (DESIGN.md
// §14), which is exactly what the prof meta channel guarantees.
void note_world_stats(prof::Meter& m, const arena::Arena& arena,
                      std::uint64_t allocations0, std::uint64_t pool_hits0,
                      std::uint64_t heap_fallbacks0, const LogText& logs,
                      const std::vector<trace::RunChunk>& chunks) {
  m.sample("arena.reserved_bytes",
           static_cast<double>(arena.reserved_bytes()));
  m.sample("arena.outstanding", static_cast<double>(arena.outstanding()));
  m.count("arena.allocations",
          static_cast<double>(arena.allocations() - allocations0));
  m.count("arena.pool_hits",
          static_cast<double>(arena.pool_hits() - pool_hits0));
  m.count("arena.heap_fallbacks",
          static_cast<double>(arena.heap_fallbacks() - heap_fallbacks0));
  m.count("log.captured_bytes", static_cast<double>(logs.size()));
  m.count("log.captured_chunks", static_cast<double>(logs.chunks().size()));
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  for (const trace::RunChunk& chunk : chunks) {
    events += chunk.spans.size() + chunk.counters.size();
    dropped += chunk.dropped_events;
  }
  m.count("trace.chunks", static_cast<double>(chunks.size()));
  m.count("trace.events_recorded", static_cast<double>(events));
  m.count("trace.events_dropped", static_cast<double>(dropped));
}

// One job's flush, on the "job.flush" timer of the calling lane: writes its
// captured log bytes, then emits its trace chunks.
void flush_job(const LogText& logs, std::vector<trace::RunChunk> chunks) {
  prof::Timer timer = prof::timer("job.flush");
  write_log_output(logs);
  for (trace::RunChunk& chunk : chunks) trace::emit_chunk(std::move(chunk));
}

}  // namespace

void WorldContext::run(const std::function<void()>& job) {
  // Rewind, then bind. The ledger and captures clear unconditionally; the
  // arena only rewinds its cursor when no blocks are outstanding (a leaked
  // frame keeps its storage valid and merely forgoes the rewind).
  auditor_.reset();
  arena_.reset();
  logs_.clear();
  chunks_.clear();
  World w = world();
  w.auditor = &auditor_;
  w.arena = &arena_;
  w.log = &logs_;
  w.chunks = &chunks_;
  BindWorld bind(w);
  // Per-job resource accounting needs before-values of the cumulative
  // arena counters; prof::meter() is a constexpr nullptr when the IMC_PROF
  // compile option is off, so all of this folds away.
  prof::Meter* const meter = prof::meter();
  const std::uint64_t allocations0 = meter ? arena_.allocations() : 0;
  const std::uint64_t pool_hits0 = meter ? arena_.pool_hits() : 0;
  const std::uint64_t heap_fallbacks0 = meter ? arena_.heap_fallbacks() : 0;
  std::exception_ptr error;
  try {
    job();
  } catch (...) {
    error = std::current_exception();
  }
  if (meter != nullptr) {
    note_world_stats(*meter, arena_, allocations0, pool_hits0,
                     heap_fallbacks0, logs_, chunks_);
  }
  if (error) std::rethrow_exception(error);
}

int default_threads() {
  static const int value = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(
        env::int_or_die("IMC_THREADS", hw == 0 ? 1 : hw, 1, 512));
  }();
  return value;
}

Pool::Pool(int threads)
    : threads_(threads <= 0 ? default_threads() : threads) {}

void Pool::run_indexed(std::size_t n,
                       const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t width = std::min(static_cast<std::size_t>(threads_), n);

  // Wall-clock profiling lanes (imc::prof): only recruited when a
  // collector is installed (IMC_PROF=<path> or a test collector), so the
  // default cost of all the hooks below is a thread-local null check.
  const bool prof_on = prof::enabled();

  if (width <= 1) {
    // Sequential path: jobs run inline in submission order on one reused
    // context; each job's log flushes as soon as it finishes, trace chunks
    // emit in order, exceptions propagate immediately (after flushing).
    WorldContext context;
    prof::Meter meter("sequential");
    World lane = world();
    if (prof_on) lane.meter = &meter;
    BindWorld bind(lane);
    const double lane_start = prof_on ? prof::wall_seconds() : 0.0;
    auto fold_lane = [&meter, prof_on, lane_start] {
      if (!prof_on) return;
      meter.timing("worker.span", prof::wall_seconds() - lane_start);
      prof::global_collector()->fold(meter);
    };
    for (std::size_t i = 0; i < n; ++i) {
      prof::Timer run_timer = prof::timer("job.run");
      try {
        context.run([&fn, i] { fn(i); });
      } catch (...) {
        run_timer.stop();
        flush_job(context.take_logs(), context.take_chunks());
        fold_lane();
        throw;
      }
      run_timer.stop();
      prof::count("jobs");
      flush_job(context.take_logs(), context.take_chunks());
    }
    fold_lane();
    return;
  }

  std::vector<LogText> logs(n);
  std::vector<std::vector<trace::RunChunk>> chunks(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};

  // Optional worker-occupancy diagnostics (see occupancy_spans_enabled).
  const bool spans_on = occupancy_spans_enabled() && trace::enabled();
  std::vector<std::vector<trace::SpanEvent>> worker_spans(width);
  const auto origin = std::chrono::steady_clock::now();  // imc-analyze: allow(wall-clock)

  // The caller's own lane: dispatch cost, join wait (which is the whole
  // sweep's wall time from this thread's perspective), and the ordered
  // result-flush cost — the part the 0.58× scaling investigation needs to
  // separate from worker idle time. Meters live out here so they survive
  // the workers and fold after the join.
  prof::Meter caller_meter("caller");
  World caller_lane = world();
  if (prof_on) caller_lane.meter = &caller_meter;
  BindWorld bind_caller(caller_lane);
  std::vector<std::unique_ptr<prof::Meter>> worker_meters;
  if (prof_on) {
    caller_meter.sample("pool.width", static_cast<double>(width));
    worker_meters.reserve(width);
    for (std::size_t w = 0; w < width; ++w) {
      worker_meters.push_back(
          std::make_unique<prof::Meter>("worker" + std::to_string(w)));
    }
  }

  auto work = [&logs, &chunks, &errors, &next, &abort, &fn, n, spans_on,
               &worker_spans, origin, prof_on,
               &worker_meters](std::size_t w) {
    // One reusable world per worker: auditor ledgers, arena chunks, and
    // capture buffers are recruited once and rebound per job.
    WorldContext context;
    World lane = world();
    if (prof_on) lane.meter = worker_meters[w].get();
    BindWorld bind(lane);
    std::vector<trace::SpanEvent>& spans = worker_spans[w];
    double idle_since = spans_on ? seconds_since(origin) : 0.0;
    double lane_start = 0.0;
    double idle_mark = 0.0;
    if (prof_on) {
      lane_start = prof::wall_seconds();
      idle_mark = lane_start;
    }
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      if (abort.load(std::memory_order_acquire)) break;
      if (spans_on) {
        const double now = seconds_since(origin);
        if (now > idle_since) {
          spans.push_back(trace::SpanEvent{
              "sweep.idle", trace::Track{-1, static_cast<int>(w) + 1},
              idle_since, now, {}});
        }
        idle_since = now;
      }
      if (prof_on) {
        worker_meters[w]->timing("idle", prof::wall_seconds() - idle_mark);
      }
      prof::Timer run_timer = prof::timer("job.run");
      try {
        context.run([&fn, i] { fn(i); });
      } catch (...) {
        errors[i] = std::current_exception();
        abort.store(true, std::memory_order_release);
      }
      run_timer.stop();
      prof::count("jobs");
      logs[i] = context.take_logs();
      chunks[i] = context.take_chunks();
      if (prof_on) idle_mark = prof::wall_seconds();
      if (spans_on) {
        const double now = seconds_since(origin);
        spans.push_back(trace::SpanEvent{
            "sweep.job", trace::Track{-1, static_cast<int>(w) + 1},
            idle_since, now,
            {{"job", static_cast<double>(i)}}});
        idle_since = now;
      }
    }
    if (prof_on) {
      worker_meters[w]->timing("worker.span",
                               prof::wall_seconds() - lane_start);
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(width);
  prof::Timer dispatch_timer = prof::timer("pool.dispatch");
  for (std::size_t w = 0; w < width; ++w) workers.emplace_back(work, w);
  dispatch_timer.stop();
  // Joining here (success or failure) is what "drains cleanly" means: by
  // the time control returns to the submitter no worker is running and
  // every started job has either a result slot or an exception recorded.
  prof::Timer join_timer = prof::timer("pool.join");
  for (auto& worker : workers) worker.join();
  join_timer.stop();

  if (spans_on) {
    trace::RunChunk occupancy;
    occupancy.label = "sweep-pool";
    for (std::vector<trace::SpanEvent>& spans : worker_spans) {
      for (trace::SpanEvent& span : spans) {
        occupancy.spans.push_back(std::move(span));
      }
    }
    if (!occupancy.spans.empty()) {
      trace::global_sink()->add_meta(std::move(occupancy));
    }
  }

  // Flush per-job captures in submission order so log bytes and trace
  // chunks land identically at every worker count.
  {
    prof::Timer flush_timer = prof::timer("pool.flush");
    for (std::size_t i = 0; i < n; ++i) {
      flush_job(logs[i], std::move(chunks[i]));
    }
  }
  if (prof_on) {
    prof::Collector* collector = prof::global_collector();
    for (const auto& meter : worker_meters) collector->fold(*meter);
    collector->fold(caller_meter);
  }
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace imc::sweep
