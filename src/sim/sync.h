// Cooperative synchronization primitives for simulated processes.
//
// All primitives are strictly FIFO-fair and wake waiters through the engine
// queue (never by direct resumption), which keeps resumption order
// deterministic and stack depth bounded.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.h"

namespace imc::sim {

// One-shot broadcast event: any number of processes can wait; set() releases
// all of them (and all future waiters pass through immediately).
class Event {
 public:
  explicit Event(Engine& engine) : engine_(&engine) {}

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) engine_->schedule_now(h);
    waiters_.clear();
  }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        event->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Engine* engine_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Counting semaphore over an arbitrary resource amount (bytes, descriptors,
// credits). FIFO: a large request at the head blocks smaller later requests
// (no starvation; matches how registered-memory allocators behave).
class Semaphore {
 public:
  Semaphore(Engine& engine, std::uint64_t initial)
      : engine_(&engine), available_(initial), capacity_(initial) {}

  std::uint64_t available() const { return available_; }
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t in_use() const { return capacity_ - available_; }
  std::size_t waiting() const { return waiters_.size(); }

  bool try_acquire(std::uint64_t n = 1) {
    if (!waiters_.empty() || available_ < n) return false;
    available_ -= n;
    return true;
  }

  [[nodiscard]] auto acquire(std::uint64_t n = 1) {
    struct Awaiter {
      Semaphore* sem;
      std::uint64_t n;
      bool await_ready() const { return sem->try_acquire(n); }
      void await_suspend(std::coroutine_handle<> h) {
        sem->waiters_.push_back(Waiter{n, h});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, n};
  }

  void release(std::uint64_t n = 1) {
    available_ += n;
    assert(available_ <= capacity_ && "semaphore over-release");
    drain();
  }

  // Grows/shrinks capacity (used by tests that reconfigure resource pools).
  void add_capacity(std::uint64_t n) {
    capacity_ += n;
    available_ += n;
    drain();
  }

 private:
  struct Waiter {
    std::uint64_t n;
    std::coroutine_handle<> handle;
  };

  void drain() {
    while (!waiters_.empty() && waiters_.front().n <= available_) {
      available_ -= waiters_.front().n;
      engine_->schedule_now(waiters_.front().handle);
      waiters_.pop_front();
    }
  }

  Engine* engine_;
  std::uint64_t available_;
  std::uint64_t capacity_;
  std::deque<Waiter> waiters_;
};

// Unbounded MPSC/MPMC mailbox. push() never blocks; pop() suspends until an
// item is available. Values are delivered in push order.
//
// Items live in a power-of-two ring and parked poppers in a vector read from
// a head index, so constructing a queue allocates nothing and a long-lived
// server queue allocates only while it grows to its high-water capacity,
// which it keeps until destroyed.
template <typename T>
class Queue {
 public:
  explicit Queue(Engine& engine) : engine_(&engine) {}
  ~Queue() {
    for (std::size_t i = 0; i < size_; ++i) {
      std::destroy_at(slots_ + ((head_ + i) & (capacity_ - 1)));
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
  }
  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push(T value) {
    if (size_ == capacity_) grow();
    std::construct_at(slots_ + ((head_ + size_) & (capacity_ - 1)),
                      std::move(value));
    ++size_;
    if (popper_head_ < poppers_.size()) {
      engine_->schedule_now(poppers_[popper_head_++]);
      if (popper_head_ == poppers_.size()) {
        poppers_.clear();
        popper_head_ = 0;
      }
      ++claimed_;
    }
  }

  [[nodiscard]] auto pop() {
    struct Awaiter {
      Queue* queue;
      bool woken = false;
      bool await_ready() const {
        // Items beyond those already claimed by scheduled poppers may be
        // taken immediately (claimed poppers always consume from the front,
        // so content order is preserved either way).
        return queue->popper_head_ == queue->poppers_.size() &&
               queue->size_ > queue->claimed_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        woken = true;
        queue->poppers_.push_back(h);
      }
      T await_resume() {
        if (woken) {
          assert(queue->claimed_ > 0);
          --queue->claimed_;
        }
        assert(queue->size_ > 0);
        return queue->take();
      }
    };
    return Awaiter{this};
  }

 private:
  T take() {
    T* front = slots_ + head_;
    T value = std::move(*front);
    std::destroy_at(front);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    return value;
  }

  // Doubles the ring, unrolling it so the oldest item lands at slot 0.
  void grow() {
    const std::size_t capacity = capacity_ == 0 ? 4 : capacity_ * 2;
    T* slots = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = slots_ + ((head_ + i) & (capacity_ - 1));
      std::construct_at(slots + i, std::move(*from));
      std::destroy_at(from);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  Engine* engine_;
  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  // 0 or a power of two
  std::size_t head_ = 0;      // slot of the oldest item
  std::size_t size_ = 0;
  std::vector<std::coroutine_handle<>> poppers_;  // [popper_head_, end) parked
  std::size_t popper_head_ = 0;
  std::size_t claimed_ = 0;  // items reserved for already-scheduled poppers
};

// One-slot mailbox for a single-answer round trip (a server's reply to one
// request). push() runs at most once and wakes a parked waiter through
// schedule_now; pop() is ready once the value is present. That is exactly
// the wake order a Queue holding one item gives, without the Queue's
// storage: the value lives inline.
template <typename T>
class Reply {
 public:
  explicit Reply(Engine& engine) : engine_(&engine) {}
  Reply(const Reply&) = delete;
  Reply& operator=(const Reply&) = delete;

  void push(T value) {
    // pop() moves the value out but leaves the optional engaged, so this
    // also catches a second answer after the first was consumed.
    assert(!value_.has_value() && "a Reply is answered at most once");
    value_.emplace(std::move(value));
    if (waiter_) engine_->schedule_now(std::exchange(waiter_, {}));
  }

  [[nodiscard]] auto pop() {
    struct Awaiter {
      Reply* reply;
      bool await_ready() const noexcept { return reply->value_.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        assert(!reply->waiter_ && "a Reply has one waiter");
        reply->waiter_ = h;
      }
      T await_resume() {
        assert(reply->value_.has_value());
        return std::move(*reply->value_);
      }
    };
    return Awaiter{this};
  }

 private:
  Engine* engine_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_;
};

// Reusable barrier for N participants (used by the mini-MPI collective).
class Barrier {
 public:
  Barrier(Engine& engine, std::size_t parties)
      : engine_(&engine), parties_(parties) {}

  [[nodiscard]] auto arrive_and_wait() {
    struct Awaiter {
      Barrier* barrier;
      bool await_ready() {
        if (barrier->arrived_ + 1 == barrier->parties_) {
          // Last arriver releases everyone and passes through.
          barrier->arrived_ = 0;
          for (auto h : barrier->waiters_) barrier->engine_->schedule_now(h);
          barrier->waiters_.clear();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++barrier->arrived_;
        barrier->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Engine* engine_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace imc::sim
