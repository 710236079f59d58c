#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <exception>
#include <utility>

#include "common/arena.h"
#include "common/check.h"
#include "common/rng.h"

namespace imc::sim {
namespace {

// RootTask: the detached wrapper coroutine created by Engine::spawn. It owns
// the user Task for its whole lifetime and self-destroys at final suspend.
struct RootTask {
  struct promise_type : RootLink {
    Engine* engine = nullptr;

    // Same arena-backed frames as sim::Task (see TaskPromiseBase).
    static void* operator new(std::size_t bytes) {
      return arena::frame_allocate(bytes);
    }
    static void operator delete(void* p) noexcept { arena::frame_free(p); }
    static void operator delete(void* p, std::size_t) noexcept {
      arena::frame_free(p);
    }

    RootTask get_return_object() {
      return RootTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // Unregisters and destroys the frame; control returns to the
        // resumer (the engine loop or a completing awaitable).
        h.promise().engine->on_root_done(h.promise());
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::exception& e) {
        engine->record_failure(e.what());
      } catch (...) {
        engine->record_failure("unknown exception escaped a process");
      }
    }
  };

  std::coroutine_handle<promise_type> handle;
};

RootTask make_root(Task<> task) { co_await std::move(task); }

}  // namespace

std::string_view to_string(TieBreak tie_break) {
  switch (tie_break) {
    case TieBreak::kFifo:
      return "fifo";
    case TieBreak::kLifo:
      return "lifo";
    case TieBreak::kSeededShuffle:
      return "seeded-shuffle";
  }
  return "unknown";
}

void Engine::on_root_done(RootLink& root) {
  assert(active_roots_ > 0);
  (root.prev != nullptr ? root.prev->next : roots_head_) = root.next;
  (root.next != nullptr ? root.next->prev : roots_tail_) = root.prev;
  --active_roots_;
  root.handle.destroy();
}

Engine::~Engine() { reap_processes(); }

void Engine::reap_processes() {
  // Reclaim processes still parked on primitives (e.g. servers waiting for
  // requests that will never come after the workflow finished).
  // Destroying a suspended coroutine unwinds its locals, which cascades into
  // any child Task frames it owns. Unwinding runs observable destructors
  // (trace spans, resource auditors), so reap in spawn order. The list is
  // detached first: processes spawned while unwinding join a fresh list.
  RootLink* root = std::exchange(roots_head_, nullptr);
  roots_tail_ = nullptr;
  active_roots_ = 0;
  while (root != nullptr) {
    RootLink* next = root->next;
    root->handle.destroy();
    root = next;
  }
}

SimTime Engine::sanitize_dt(SimTime dt) {
  if (std::isfinite(dt) && dt >= 0) return dt;
#if IMC_CHECK_ENABLED
  record_failure(std::isnan(dt)   ? "sleep: dt is NaN, clamped to 0"
                 : dt < 0         ? "sleep: negative dt, clamped to 0"
                                  : "sleep: non-finite dt, clamped to 0");
#endif
  return 0;
}

SimTime Engine::clamp_to_now() {
#if IMC_CHECK_ENABLED
  record_failure("schedule_at: non-finite or past time, clamped to now()");
#endif
  return now_;
}

void Engine::ready_insert(const Event& ev) {
  ready_.insert(
      std::upper_bound(ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_),
                       ready_.end(), ev, &Engine::event_before),
      ev);
}

void Engine::push_far(SimTime t, const Event& ev) {
  // Append to the cached far bucket when the time matches, else open a new
  // bucket on the wheel.
  if (last_far_valid_ && last_far_time_ == t) {
    buckets_[last_far_bucket_].push_back(ev);
    return;
  }
  const std::uint32_t b = acquire_bucket();
  buckets_[b].push_back(ev);
  heap_push(Instant{t, b});
  last_far_time_ = t;
  last_far_bucket_ = b;
  last_far_valid_ = true;
}

void Engine::demote_near() {
  const std::uint32_t b = acquire_bucket();
  buckets_[b].swap(near_);
  heap_push(Instant{near_time_, b});
  last_far_time_ = near_time_;
  last_far_bucket_ = b;
  last_far_valid_ = true;
}

std::uint32_t Engine::acquire_bucket() {
  if (!free_buckets_.empty()) {
    const std::uint32_t b = free_buckets_.back();
    free_buckets_.pop_back();
    return b;
  }
  buckets_.emplace_back();
  return static_cast<std::uint32_t>(buckets_.size() - 1);
}

// 4-ary min-heap on Instant::time: shallower than a binary heap and the
// 16-byte entries keep every sift inside a couple of cache lines. Ordering
// among equal times is irrelevant — the drain merges all of them.
void Engine::heap_push(Instant instant) {
  std::size_t i = heap_.size();
  heap_.push_back(instant);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (heap_[parent].time <= instant.time) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = instant;
}

void Engine::heap_pop() {
  const Instant last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t stop = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < stop; ++c) {
      if (heap_[c].time < heap_[best].time) best = c;
    }
    if (last.time <= heap_[best].time) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

bool Engine::advance_instant(SimTime deadline) {
  const bool have_near = !near_.empty();
  const bool have_far = !heap_.empty();
  if (!have_near && !have_far) return false;
  SimTime t = have_near ? near_time_ : heap_[0].time;
  if (have_far && heap_[0].time < t) t = heap_[0].time;
  if (deadline >= 0 && t > deadline) return false;
  now_ = t;
  if (have_near && near_time_ == t) ready_.swap(near_);
  while (!heap_.empty() && heap_[0].time == t) {
    const std::uint32_t b = heap_[0].bucket;
    heap_pop();
    std::vector<Event>& bucket = buckets_[b];
    if (ready_.empty()) {
      ready_.swap(bucket);
    } else {
      ready_.insert(ready_.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    free_buckets_.push_back(b);
    if (last_far_valid_ && last_far_bucket_ == b) last_far_valid_ = false;
  }
  // Restore (key, seq) order: FIFO appends arrive sorted (key == seq,
  // appended in seq order), so the check is a cheap linear pass and the
  // sort only runs for LIFO/shuffle batches or merged multi-bucket drains.
  if (!std::is_sorted(ready_.begin(), ready_.end(), &Engine::event_before)) {
    std::sort(ready_.begin(), ready_.end(), &Engine::event_before);
  }
  return true;
}

void Engine::spawn(Task<> task) {
  RootTask root = make_root(std::move(task));
  auto& link = root.handle.promise();
  link.engine = this;
  link.handle = root.handle;
  link.prev = roots_tail_;
  (roots_tail_ != nullptr ? roots_tail_->next : roots_head_) = &link;
  roots_tail_ = &link;
  ++active_roots_;
  schedule_now(root.handle);
}

std::size_t Engine::run() { return run_until(-1); }

std::size_t Engine::run_until(SimTime deadline) {
  const std::size_t start = events_processed_;
  for (;;) {
    if (ready_head_ < ready_.size()) {
      if (deadline >= 0 && now_ > deadline) break;
      Event ev = ready_[ready_head_++];  // copy: resume may grow ready_
      note_event(ev);
      ev.handle.resume();
      continue;
    }
    // Batch exhausted: recycle its storage and refill from the earliest
    // future instant, draining every event at that time so neither the
    // near batch nor the wheel ever holds current-instant events. The
    // near-batch-only case — nothing on the far wheel competes with the
    // near instant — is the overwhelmingly common one (every sequential
    // sleep chain hits it once per event), so it advances inline; the
    // general drain-and-merge stays out of line.
    ready_.clear();
    ready_head_ = 0;
    if (!near_.empty() && (heap_.empty() || near_time_ < heap_[0].time)) {
      if (deadline >= 0 && near_time_ > deadline) break;
      now_ = near_time_;
      ready_.swap(near_);
      if (!std::is_sorted(ready_.begin(), ready_.end(),
                          &Engine::event_before)) {
        std::sort(ready_.begin(), ready_.end(), &Engine::event_before);
      }
      continue;
    }
    if (!advance_instant(deadline)) break;
  }
  return events_processed_ - start;
}

}  // namespace imc::sim
