// Discrete-event simulation engine.
//
// The engine owns virtual time and a min-heap of (time, sequence) ->
// coroutine handle events. All simulated concurrency is cooperative and
// single-threaded, so runs are fully deterministic: under the default FIFO
// schedule two processes scheduled for the same instant resume in the order
// they were scheduled.
//
// Same-instant tie-breaking is pluggable (FIFO / LIFO / seeded shuffle).
// Correct components must produce the same observable results under every
// policy; check::run_deterministic() exploits this as a DES race detector —
// see DESIGN.md, "Correctness tooling".
#pragma once

#include <bit>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "sim/task.h"

namespace imc::sim {

using SimTime = double;  // seconds of virtual time

// Order in which events scheduled for the same instant resume.
enum class TieBreak : int {
  kFifo = 0,       // scheduling order (the historical behaviour)
  kLifo,           // reverse scheduling order
  kSeededShuffle,  // pseudo-random order derived from a seed
};

std::string_view to_string(TieBreak tie_break);

struct Schedule {
  TieBreak tie_break = TieBreak::kFifo;
  std::uint64_t seed = 0;  // only used by kSeededShuffle
};

// Links of one live detached process, embedded in its wrapper coroutine's
// promise so spawning allocates nothing beyond the frame itself.
struct RootLink {
  RootLink* prev = nullptr;
  RootLink* next = nullptr;
  std::coroutine_handle<> handle;
};

class Engine {
 public:
  Engine() = default;
  explicit Engine(Schedule schedule) : schedule_(schedule) {}
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }
  const Schedule& schedule() const { return schedule_; }

  // Schedules a raw coroutine handle. Used by awaitables; most code should
  // use sleep()/spawn() instead. Non-finite or past times are clamped to
  // now() and recorded as a process failure (a NaN would otherwise poison
  // the event ordering). Defined inline: this is the hottest function in the
  // simulator and the common cases — append to the near batch, append to the
  // ready tail — must inline into the awaitables that call it.
  void schedule_at(SimTime t, std::coroutine_handle<> h) {
    if (!std::isfinite(t) || !(t >= now_)) t = clamp_to_now();
    const std::uint64_t seq = next_seq_++;
    const Event ev{tie_break_key(seq), seq, h};
    if (t != now_) {
      if (!near_.empty()) {
        if (t == near_time_) {
          near_.push_back(ev);
          return;
        }
        if (t > near_time_) {
          push_far(t, ev);
          return;
        }
        demote_near();  // a nearer instant arrived: move near_ to the wheel
      }
      near_time_ = t;
      near_.push_back(ev);
      return;
    }
    // Same-instant event: place it into the ready batch at its tie-break
    // rank. Under FIFO the rank is the scheduling order, so this is a pure
    // append; other policies pay an ordered insert into the pending tail.
    if (ready_head_ == ready_.size() || event_before(ready_.back(), ev)) {
      ready_.push_back(ev);
      return;
    }
    ready_insert(ev);
  }
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  // Awaiter of sleep(): resumes the awaiting coroutine at wake_at.
  struct Sleep {
    Engine* engine;
    SimTime wake_at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      engine->schedule_at(wake_at, h);
    }
    void await_resume() const noexcept {}
  };

  // co_await engine.sleep(dt): resume dt simulated seconds later. NaN,
  // infinite, or negative dt clamps to 0 and records a process failure.
  [[nodiscard]] Sleep sleep(SimTime dt) {
    const SimTime safe = std::isfinite(dt) && dt >= 0 ? dt : sanitize_dt(dt);
    return Sleep{this, now_ + safe};
  }

  // co_await engine.yield(): requeue at the current instant, letting other
  // ready processes run first.
  [[nodiscard]] auto yield() { return sleep(0); }

  // Starts a detached process. Its coroutine frame is owned by the engine
  // and reclaimed on completion (or on engine destruction if it never
  // finishes, e.g. a server parked on an empty queue at the end of a run).
  void spawn(Task<> task);

  // Runs until the event queue drains. Returns the number of events
  // processed. Processes still alive afterwards are blocked on primitives
  // (visible via active_processes()).
  std::size_t run();

  // Runs until the event queue drains or virtual time would exceed deadline.
  // The deadline is inclusive: events at exactly `deadline` still fire, and
  // now() afterwards is the time of the last processed event (the engine
  // never advances time past real events). A negative deadline means "no
  // deadline" (identical to run()).
  std::size_t run_until(SimTime deadline);

  // Destroys all still-parked processes now. Call before tearing down
  // objects those processes reference (their frames run destructors — e.g.
  // a Flexpath writer's close() — which must not observe freed state).
  void reap_processes();

  std::size_t active_processes() const { return active_roots_; }

  // Uncaught exceptions from spawned processes are recorded here rather than
  // terminating the simulation; tests assert this list is empty.
  const std::vector<std::string>& process_failures() const {
    return failures_;
  }
  void record_failure(std::string what) {
    failures_.push_back(std::move(what));
  }

  // Rolling hash over the (time, seq) stream of every event popped so far.
  // Two runs of the same program under the same Schedule must produce the
  // same digest; a mismatch means hidden nondeterminism (wall clock, global
  // RNG, address-dependent iteration, ...).
  std::uint64_t digest() const { return digest_; }
  std::size_t events_processed() const { return events_processed_; }

  struct TraceEntry {
    SimTime time;
    std::uint64_t seq;
    bool operator==(const TraceEntry&) const = default;
  };

  // Enables recording of the first `limit` popped events, so a digest
  // mismatch can be pinned to the first diverging event.
  void record_trace(std::size_t limit) {
    trace_remaining_ = limit;
    trace_.clear();
    trace_.reserve(limit < 4096 ? limit : 4096);
  }
  const std::vector<TraceEntry>& trace() const { return trace_; }

  // Internal: called by the detached-process wrapper at final suspend.
  void on_root_done(RootLink& root);

 private:
  // One scheduled resume. Its instant lives on the containing batch (the
  // near batch, a far bucket, or the current ready batch), so the per-event
  // footprint is 24 bytes and batch moves never copy timestamps.
  struct Event {
    std::uint64_t key;  // tie-break rank within the same instant
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };
  // Heap entry: every event scheduled for `time` beyond the near batch sits
  // in buckets_[bucket]. Several entries may share a time (appends that
  // missed the bucket caches); the drain merges them.
  struct Instant {
    SimTime time;
    std::uint32_t bucket;
  };

  // Maps dt onto a safe, non-negative finite value (see sleep()). Only the
  // slow path (clamping + failure record) lives out of line.
  SimTime sanitize_dt(SimTime dt);
  // Records the clamp failure and returns now() (see schedule_at()).
  SimTime clamp_to_now();
  std::uint64_t tie_break_key(std::uint64_t seq) const {
    switch (schedule_.tie_break) {
      case TieBreak::kFifo:
        return seq;
      case TieBreak::kLifo:
        return ~seq;
      case TieBreak::kSeededShuffle:
        return splitmix64(schedule_.seed ^ seq);
    }
    return seq;
  }
  static bool event_before(const Event& a, const Event& b) {
    return a.key != b.key ? a.key < b.key : a.seq < b.seq;
  }
  // Folds one popped event into the rolling digest. Popped events always
  // carry the current instant, so the fold reads now_ — the same value the
  // per-event timestamp held before events were sharded into per-instant
  // batches.
  //
  // The fold is split so the expensive avalanche (splitmix64 over the
  // event's time and seq) sits OFF the loop-carried dependency: it reads
  // only this event, so out-of-order cores compute it in parallel with
  // earlier events' resumes. The carried chain is one xor and one odd
  // multiply (the xorshift* finalizer constant), which keeps the fold
  // order-sensitive. Defined inline: as an out-of-line call in the run loop
  // it re-materialised the three 64-bit mix constants on every event and
  // chained ~26 cycles of serial hash latency onto each pop, capping event
  // throughput.
  [[gnu::always_inline]] void note_event(const Event& ev) {
    ++events_processed_;
    // The scatter and chain multipliers reuse splitmix64's own internal
    // constants so the whole fold needs only the constants the compiler
    // already hoisted into registers for the inlined splitmix64.
    const std::uint64_t mix =
        splitmix64(std::bit_cast<std::uint64_t>(now_) ^
                   (ev.seq * 0xbf58476d1ce4e5b9ull));
    digest_ = (digest_ ^ mix) * 0x94d049bb133111ebull;
    if (trace_remaining_ != 0) [[unlikely]] {
      --trace_remaining_;
      trace_.push_back(TraceEntry{now_, ev.seq});
    }
  }
  // Files an event for a future instant beyond the near batch.
  void push_far(SimTime t, const Event& ev);
  // Ordered insert into the pending ready tail (non-FIFO same-instant path).
  void ready_insert(const Event& ev);
  // Moves the near batch onto the far wheel (a nearer instant arrived).
  void demote_near();
  // Refills ready_ from the earliest future instant; advances now_. Returns
  // false when no future events remain or the deadline cuts them off.
  bool advance_instant(SimTime deadline);
  std::uint32_t acquire_bucket();
  void heap_push(Instant instant);
  void heap_pop();

  Schedule schedule_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  // Future events (time > now_) are sharded by instant instead of living in
  // one per-event priority queue:
  //  * `near_` batches the earliest known future instant (`near_time_`) —
  //    the overwhelmingly common schedule target (the next wake of a
  //    sleeping process, all ranks of a barrier) — so the hot path is a
  //    plain vector append with zero heap traffic;
  //  * `heap_` is a 4-ary min-heap of 16-byte {time, bucket} entries over
  //    the remaining instants, one entry per *batch* rather than per event,
  //    with `last_far_*` caching the most recent bucket so same-instant
  //    appends (barrier wakes) skip the heap too;
  //  * bucket storage recycles through `free_buckets_`, so steady-state
  //    scheduling performs no allocation at all.
  // Events scheduled for the current instant go straight into `ready_`, a
  // tie-break-sorted batch whose storage is recycled across instants. The
  // drain sorts each refilled batch by (key, seq) — already sorted under
  // FIFO appends — so the pop order (time, key, seq ascending) is exactly
  // what a single per-event heap would produce and digests are unchanged.
  SimTime near_time_ = 0;
  std::vector<Event> near_;
  std::vector<Instant> heap_;
  std::vector<std::vector<Event>> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  SimTime last_far_time_ = 0;
  std::uint32_t last_far_bucket_ = 0;
  bool last_far_valid_ = false;
  std::vector<Event> ready_;     // [ready_head_, end) sorted by (key, seq)
  std::size_t ready_head_ = 0;   // next ready event to resume
  // Live detached processes as a list in spawn order, so ~Engine can reclaim
  // parked processes in that order: frame destruction runs observable
  // destructors (trace spans, auditors), so the order must not depend on
  // frame addresses or allocator history.
  RootLink* roots_head_ = nullptr;
  RootLink* roots_tail_ = nullptr;
  std::size_t active_roots_ = 0;
  std::vector<std::string> failures_;
  std::uint64_t digest_ = 0x243f6a8885a308d3ull;  // arbitrary non-zero start
  std::size_t events_processed_ = 0;
  std::size_t trace_remaining_ = 0;  // slots left in trace_ (countdown)
  std::vector<TraceEntry> trace_;
};

}  // namespace imc::sim
