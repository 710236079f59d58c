// Thread-pooled scenario executor for parameter sweeps.
//
// Every bench and the determinism harness walk ladders of fully independent
// simulations — each workflow::run(spec) builds an isolated world — yet the
// seed code executed them strictly sequentially. sweep::Pool fans such jobs
// out across IMC_THREADS worker threads while keeping the observable output
// byte-identical to the sequential run:
//
//  * results are returned in submission order, so the caller's print loop
//    is untouched and stdout does not depend on the thread count;
//  * every job runs under per-world state isolation: its worker's
//    WorldContext binds a reset leak ledger, a rewound arena and log and
//    trace-chunk captures as the job's World (common/world.h), so IMC_CHECK
//    leak ledgers stay attributed to the right run and its log output is
//    flushed to stderr in submission order;
//  * an exception from a failing job propagates to the submitter after all
//    in-flight jobs finish and every worker is joined — no detached
//    threads, no half-written slots.
//
// IMC_THREADS=1 (or a single-job sweep) runs everything inline on the
// calling thread: the exact sequential path, isolation included.
//
// Worker threads are recruited per sweep (a batch-scoped pool): jobs here
// are simulations lasting milliseconds to seconds, so thread start-up cost
// is noise, and joining inside every call is what makes the exception and
// lifetime story airtight. See DESIGN.md §9 for the isolation rules new
// code must follow to stay sweep-safe.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/audit.h"
#include "common/log.h"
#include "trace/trace.h"

namespace imc::sweep {

// Worker count used when a Pool is constructed without an explicit value:
// IMC_THREADS from the environment (accepted range [1, 512]; garbage
// terminates with a clear error), defaulting to hardware_concurrency.
int default_threads();

// Reusable per-world execution context. Owns the expensive per-world state
// — the audit ledger's maps and the frame arena's chunks — and rebinds it
// around each job instead of reconstructing it, so running a thousand
// scenario jobs on a worker allocates world infrastructure once. Both pool
// paths (sequential and threaded) run every job through one of these; a
// reused context is observably identical to a fresh one because run()
// resets the ledger and rewinds the arena before the job starts, and
// nothing downstream may depend on frame addresses (DESIGN.md §13).
class WorldContext {
 public:
  WorldContext() = default;
  WorldContext(const WorldContext&) = delete;
  WorldContext& operator=(const WorldContext&) = delete;

  // Runs `job` with this context's ledger, arena, log capture and
  // trace-chunk capture bound as the current World; the rest of the
  // caller's World (the lane's meter) is inherited. Captured logs and trace
  // chunks are retained — also when the job throws — until taken; take
  // them before the next run() or they are replaced.
  void run(const std::function<void()>& job);

  // Captured output of the last run() (move-out, destructive).
  LogText take_logs() { return std::move(logs_); }
  std::vector<trace::RunChunk> take_chunks() { return std::move(chunks_); }

  // World-state introspection (tests assert reset/reuse invariants).
  const arena::Arena& arena() const { return arena_; }
  const audit::Auditor& auditor() const { return auditor_; }

 private:
  audit::Auditor auditor_;
  arena::Arena arena_;
  LogText logs_;
  std::vector<trace::RunChunk> chunks_;
};

class Pool {
 public:
  // threads <= 0 picks default_threads(); 1 is the sequential path.
  explicit Pool(int threads = 0);

  int threads() const { return threads_; }

  // Runs fn(0) .. fn(n-1) across the workers and returns when every started
  // invocation has finished. Each invocation is isolated as described
  // above. If an invocation throws, indices not yet started are skipped,
  // the workers drain and join, captured logs flush in submission order,
  // and the lowest-index exception is rethrown.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Runs independent jobs and returns their results in submission order.
  // Jobs must not share mutable state (each builds its own world); results
  // are then identical at every thread count.
  template <typename R>
  std::vector<R> run_ordered(std::vector<std::function<R()>> jobs) {
    std::vector<std::optional<R>> slots(jobs.size());
    run_indexed(jobs.size(), [&jobs, &slots](std::size_t i) {
      slots[i].emplace(jobs[i]());
    });
    std::vector<R> results;
    results.reserve(slots.size());
    for (auto& slot : slots) results.push_back(std::move(*slot));
    return results;
  }

 private:
  int threads_;
};

}  // namespace imc::sweep
