#include "sweep/sweep.h"

#include <atomic>
#include <exception>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/world.h"
#include "prof/prof.h"

namespace imc::sweep {
namespace {

// One prof lane of the pool (the sequential path, the caller, a worker):
// while it lives, its meter is the current World's meter when profiling is
// on, and when it ends the meter folds into the collector. Timers declared
// after it record into it before the fold.
class Lane {
 public:
  Lane(bool on, std::string name)
      : on_(on), meter_(std::move(name)), bind_(bound(on, &meter_)) {}
  ~Lane() {
    if (on_) prof::global_collector()->fold(meter_);
  }
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

 private:
  static World bound(bool on, prof::Meter* meter) {
    World w = world();
    if (on) w.meter = meter;
    return w;
  }

  bool on_;
  prof::Meter meter_;
  BindWorld bind_;
};

// Resource accounting for one finished job, attributed to the worker's
// prof lane. Arena counters are cumulative across a reused context, so the
// caller snapshots them before the job and the deltas land here; log/trace
// figures come straight from the retained captures. Wall-clock-free, but
// still prof-only: nothing recorded here may reach a digest (DESIGN.md
// §14), and prof's report is outside every digest.
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
    Lane lane(prof_on, "sequential");
    PROF_TIMER("worker.span");
    for (std::size_t i = 0; i < n; ++i) {
      prof::Timer run_timer = prof::timer("job.run");
      try {
        context.run([&fn, i] { fn(i); });
      } catch (...) {
        run_timer.stop();
        flush_job(context.take_logs(), context.take_chunks());
        throw;
      }
      run_timer.stop();
      prof::count("jobs");
      flush_job(context.take_logs(), context.take_chunks());
    }
    return;
  }

  std::vector<LogText> logs(n);
  std::vector<std::vector<trace::RunChunk>> chunks(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};

  // The caller's own lane: dispatch cost, join wait (which is the whole
  // sweep's wall time from this thread's perspective), and the ordered
  // result-flush cost — the part the 0.58× scaling investigation needs to
  // separate from worker idle time.
  Lane caller(prof_on, "caller");
  prof::sample("pool.width", static_cast<double>(width));

  auto work = [&logs, &chunks, &errors, &next, &abort, &fn, n,
               prof_on](std::size_t w) {
    // One reusable world per worker: auditor ledgers, arena chunks, and
    // capture buffers are recruited once and rebound per job. The lane
    // times the worker's life and the idle gap before each job and after
    // the last.
    WorldContext context;
    Lane lane(prof_on, "worker" + std::to_string(w));
    PROF_TIMER("worker.span");
    for (;;) {
      prof::Timer idle_timer = prof::timer("idle");
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || abort.load(std::memory_order_acquire)) break;
      idle_timer.stop();
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

  // Flush per-job captures in submission order so log bytes and trace
  // chunks land identically at every worker count.
  {
    prof::Timer flush_timer = prof::timer("pool.flush");
    for (std::size_t i = 0; i < n; ++i) {
      flush_job(logs[i], std::move(chunks[i]));
    }
  }
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace imc::sweep
