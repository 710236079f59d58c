#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace imc::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.run(), 0u);
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine engine;
  double woke_at = -1;
  engine.spawn([](Engine& e, double& out) -> Task<> {
    co_await e.sleep(2.5);
    out = e.now();
  }(engine, woke_at));
  engine.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.5);
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
}

TEST(Engine, NegativeSleepClampsToZero) {
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> { co_await e.sleep(-1.0); }(engine));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
#if IMC_CHECK_ENABLED
  // The audit build records the bogus dt as a process failure.
  ASSERT_EQ(engine.process_failures().size(), 1u);
  EXPECT_NE(engine.process_failures()[0].find("negative dt"), std::string::npos);
#else
  EXPECT_TRUE(engine.process_failures().empty());
#endif
}

TEST(Engine, NanSleepClampsToZero) {
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> {
    co_await e.sleep(std::numeric_limits<double>::quiet_NaN());
  }(engine));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
#if IMC_CHECK_ENABLED
  ASSERT_EQ(engine.process_failures().size(), 1u);
  EXPECT_NE(engine.process_failures()[0].find("NaN"), std::string::npos);
#endif
}

TEST(Engine, InfiniteSleepClampsToZero) {
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> {
    co_await e.sleep(std::numeric_limits<double>::infinity());
  }(engine));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
#if IMC_CHECK_ENABLED
  ASSERT_EQ(engine.process_failures().size(), 1u);
#endif
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.spawn([](Engine& e, std::vector<int>& out, int id) -> Task<> {
      co_await e.sleep(5.0 - id);  // id 4 sleeps shortest
      out.push_back(id);
    }(engine, order, i));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(Engine, SameInstantFifoBySpawnOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    engine.spawn([](Engine& e, std::vector<int>& out, int id) -> Task<> {
      co_await e.sleep(1.0);
      out.push_back(id);
    }(engine, order, i));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, YieldLetsPeersRun) {
  Engine engine;
  std::vector<std::string> log;
  engine.spawn([](Engine& e, std::vector<std::string>& out) -> Task<> {
    out.push_back("a1");
    co_await e.yield();
    out.push_back("a2");
  }(engine, log));
  engine.spawn([](Engine& e, std::vector<std::string>& out) -> Task<> {
    out.push_back("b1");
    co_await e.yield();
    out.push_back("b2");
  }(engine, log));
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST(Task, SubtaskReturnsValue) {
  Engine engine;
  int result = 0;
  engine.spawn([](int& out) -> Task<> {
    auto add = [](int a, int b) -> Task<int> { co_return a + b; };
    out = co_await add(20, 22);
  }(result));
  engine.run();
  EXPECT_EQ(result, 42);
}

TEST(Task, DeepChainOfSubtasks) {
  // Symmetric transfer: a 100k-deep await chain must not overflow the stack.
  // (GCC does not guarantee the symmetric-transfer tail call under ASAN
  // instrumentation, so sanitizer builds use a reduced depth.)
#if defined(__SANITIZE_ADDRESS__)
  constexpr int kDepth = 2000;
#else
  constexpr int kDepth = 100000;
#endif
  Engine engine;
  long result = 0;
  struct Rec {
    static Task<long> count(Engine& e, int n) {
      if (n == 0) co_return 0;
      co_return 1 + co_await count(e, n - 1);
    }
  };
  engine.spawn([](Engine& e, long& out) -> Task<> {
    out = co_await Rec::count(e, kDepth);
  }(engine, result));
  engine.run();
  EXPECT_EQ(result, kDepth);
}

TEST(Task, MoveOnlyResult) {
  Engine engine;
  std::unique_ptr<int> result;
  engine.spawn([](std::unique_ptr<int>& out) -> Task<> {
    auto make = []() -> Task<std::unique_ptr<int>> {
      co_return std::make_unique<int>(9);
    };
    out = co_await make();
  }(result));
  engine.run();
  ASSERT_TRUE(result);
  EXPECT_EQ(*result, 9);
}

TEST(Engine, ExceptionInProcessIsRecordedNotFatal) {
  Engine engine;
  bool other_ran = false;
  engine.spawn([](Engine& e) -> Task<> {
    co_await e.sleep(1);
    throw std::runtime_error("simulated crash");
  }(engine));
  engine.spawn([](Engine& e, bool& ran) -> Task<> {
    co_await e.sleep(2);
    ran = true;
  }(engine, other_ran));
  engine.run();
  ASSERT_EQ(engine.process_failures().size(), 1u);
  EXPECT_EQ(engine.process_failures()[0], "simulated crash");
  EXPECT_TRUE(other_ran);
}

TEST(Task, ExceptionPropagatesThroughAwaitChain) {
  Engine engine;
  std::string caught;
  engine.spawn([](std::string& out) -> Task<> {
    auto inner = []() -> Task<int> {
      throw std::runtime_error("inner failure");
      co_return 0;  // unreachable
    };
    // Safe ref capture: `middle()` is awaited immediately below, and both
    // closures are locals of the awaiting frame, so they outlive the
    // nested coroutine. imc-analyze: allow(detached-coroutine-lifetime)
    auto middle = [&]() -> Task<int> { co_return co_await inner(); };
    try {
      co_await middle();
    } catch (const std::runtime_error& e) {
      out = e.what();
    }
  }(caught));
  engine.run();
  EXPECT_EQ(caught, "inner failure");
  EXPECT_TRUE(engine.process_failures().empty());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int steps = 0;
  engine.spawn([](Engine& e, int& n) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await e.sleep(1.0);
      ++n;
    }
  }(engine, steps));
  engine.run_until(4.5);
  EXPECT_EQ(steps, 4);
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
  engine.run();
  EXPECT_EQ(steps, 10);
}

TEST(Engine, ParkedProcessesReclaimedOnDestruction) {
  // A process waiting forever must not leak its frame (checked by ASAN
  // builds; here we just verify the engine reports it as active).
  auto engine = std::make_unique<Engine>();
  engine->spawn([](Engine& e) -> Task<> {
    co_await e.sleep(1);
    // Sleep far beyond any deadline; never resumed.
    co_await e.sleep(1e18);
  }(*engine));
  engine->run_until(10);
  EXPECT_EQ(engine->active_processes(), 1u);
  engine.reset();  // must not crash or leak
}

TEST(Engine, ManyProcessesScale) {
  // 20k concurrent processes — the scale of the paper's (8192,4096) runs.
  Engine engine;
  long sum = 0;
  for (int i = 0; i < 20000; ++i) {
    engine.spawn([](Engine& e, long& out, int id) -> Task<> {
      co_await e.sleep((id % 97) * 0.001);
      out += 1;
    }(engine, sum, i));
  }
  engine.run();
  EXPECT_EQ(sum, 20000);
}

TEST(Engine, RunUntilDeadlineIsInclusive) {
  Engine engine;
  int fired = 0;
  engine.spawn([](Engine& e, int& n) -> Task<> {
    co_await e.sleep(2.0);
    ++n;
  }(engine, fired));
  engine.run_until(2.0);  // event exactly at the deadline still runs
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
}

TEST(Engine, RunUntilLeavesNowAtLastProcessedEvent) {
  // now() does not jump to the deadline: it stays at the last event's time.
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> {
    co_await e.sleep(1.0);
    co_await e.sleep(100.0);
  }(engine));
  engine.run_until(50.0);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  EXPECT_EQ(engine.active_processes(), 1u);
}

TEST(Engine, ReapProcessesDestroysParkedFrames) {
  Engine engine;
  int destroyed = 0;
  struct Sentinel {
    int* counter;
    ~Sentinel() { ++*counter; }
  };
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Engine& e, int& counter) -> Task<> {
      Sentinel s{&counter};
      co_await e.sleep(1e18);  // parked forever
    }(engine, destroyed));
  }
  engine.run_until(10);
  EXPECT_EQ(engine.active_processes(), 3u);
  EXPECT_EQ(destroyed, 0);
  engine.reap_processes();
  EXPECT_EQ(engine.active_processes(), 0u);
  EXPECT_EQ(destroyed, 3);  // frame unwinding ran every local destructor
}

TEST(Engine, ReapDestroysParkedRootsInSpawnOrder) {
  // Roots 0, 3 and 5 finish (in the order 3, 5, 0), unlinking the head, a
  // middle and the tail of the live list; root 6 is spawned after that.
  // Reaping must still destroy the parked roots in spawn order.
  Engine engine;
  std::vector<int> order;
  struct Sentinel {
    std::vector<int>* out;
    int id;
    ~Sentinel() { out->push_back(id); }
  };
  const auto root = [](Engine& e, std::vector<int>& out, int id,
                       double dt) -> Task<> {
    Sentinel s{&out, id};
    co_await e.sleep(dt);
  };
  const double finish_at[] = {3, 1e18, 1e18, 1, 1e18, 2};
  for (int i = 0; i < 6; ++i) engine.spawn(root(engine, order, i, finish_at[i]));
  engine.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{3, 5, 0}));
  engine.spawn(root(engine, order, 6, 1e18));
  engine.run_until(20);
  EXPECT_EQ(engine.active_processes(), 4u);
  order.clear();
  engine.reap_processes();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 6}));
  EXPECT_EQ(engine.active_processes(), 0u);
}

TEST(Engine, ProcessFailuresAccumulateAcrossProcesses) {
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> {
    co_await e.sleep(1);
    throw std::runtime_error("first");
  }(engine));
  engine.spawn([](Engine& e) -> Task<> {
    co_await e.sleep(2);
    throw std::runtime_error("second");
  }(engine));
  engine.run();
  ASSERT_EQ(engine.process_failures().size(), 2u);
  EXPECT_EQ(engine.process_failures()[0], "first");
  EXPECT_EQ(engine.process_failures()[1], "second");
}

Task<> append_id(Engine& e, std::vector<int>& out, int id) {
  co_await e.sleep(1.0);
  out.push_back(id);
}

Task<> append_on_start(std::vector<int>& out, int id) {
  out.push_back(id);
  co_return;
}

TEST(Engine, LifoReversesSameInstantOrder) {
  // Single queueing layer (append at spawn-resume, no second sleep): a timer
  // round-trip would reverse twice and look FIFO again.
  Engine engine(Schedule{TieBreak::kLifo, 0});
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) engine.spawn(append_on_start(order, i));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Engine, SeededShufflePermutesSameInstantOrder) {
  auto run_once = [](std::uint64_t seed) {
    Engine engine(Schedule{TieBreak::kSeededShuffle, seed});
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) engine.spawn(append_on_start(order, i));
    engine.run();
    return order;
  };
  const auto a = run_once(1);
  EXPECT_EQ(a, run_once(1));  // same seed, same permutation
  std::vector<int> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expect(16);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(sorted, expect);  // a permutation, nothing dropped
  // Different seeds should (overwhelmingly) give different permutations.
  EXPECT_NE(a, run_once(2));
}

TEST(Engine, DifferentTimesUnaffectedByTieBreak) {
  // The tie-break only resolves equal timestamps; strict time order wins.
  Engine engine(Schedule{TieBreak::kLifo, 0});
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.spawn([](Engine& e, std::vector<int>& out, int id) -> Task<> {
      co_await e.sleep(1.0 + id);
      out.push_back(id);
    }(engine, order, i));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, DigestReproducibleAndOrderSensitive) {
  auto run_once = [](Schedule s) {
    Engine engine(s);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) engine.spawn(append_id(engine, order, i));
    engine.run();
    return engine.digest();
  };
  const auto fifo = run_once(Schedule{TieBreak::kFifo, 0});
  EXPECT_EQ(fifo, run_once(Schedule{TieBreak::kFifo, 0}));
  // A different pop order hashes differently even with identical events.
  EXPECT_NE(fifo, run_once(Schedule{TieBreak::kLifo, 0}));
  EXPECT_NE(fifo, 0u);
}

TEST(Engine, TraceRecordsPoppedEvents) {
  Engine engine;
  engine.record_trace(2);  // bounded: keeps only the first two entries
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) engine.spawn(append_id(engine, order, i));
  engine.run();
  EXPECT_EQ(engine.events_processed(), 8u);  // spawn resume + timer per proc
  ASSERT_EQ(engine.trace().size(), 2u);
  EXPECT_DOUBLE_EQ(engine.trace()[0].time, 0.0);
}

TEST(Engine, SpawnFromWithinProcess) {
  Engine engine;
  std::vector<int> order;
  engine.spawn([](Engine& e, std::vector<int>& out) -> Task<> {
    out.push_back(1);
    e.spawn([](Engine& e2, std::vector<int>& o2) -> Task<> {
      o2.push_back(2);
      co_await e2.sleep(1);
      o2.push_back(4);
    }(e, out));
    co_await e.sleep(0.5);
    out.push_back(3);
  }(engine, order));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// ---------------------------------------------------------------------------
// Same-instant ready batch: yield()/schedule_now service the current instant
// without touching the heap. These tests pin the tie-break semantics the
// fast path must preserve.

TEST(Engine, YieldStormRoundRobinsFifoWithParkedHeap) {
  // FIFO round-robin among same-instant yielders must hold even while
  // far-future sleepers keep the heap deep — parked events must never leak
  // into the current batch.
  Engine engine;
  for (int i = 0; i < 64; ++i) {
    engine.spawn([](Engine& e) -> Task<> { co_await e.sleep(1e9); }(engine));
  }
  std::vector<int> log;
  for (int id = 0; id < 3; ++id) {
    engine.spawn([](Engine& e, std::vector<int>& out, int id) -> Task<> {
      for (int round = 0; round < 4; ++round) {
        out.push_back(id);
        co_await e.yield();
      }
    }(engine, log, id));
  }
  engine.run_until(1.0);
  std::vector<int> expect;
  for (int round = 0; round < 4; ++round) {
    for (int id = 0; id < 3; ++id) expect.push_back(id);
  }
  EXPECT_EQ(log, expect);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);  // sleepers stayed parked
}

TEST(Engine, LifoOrderHoldsMidBatch) {
  // Hand-computed LIFO order with continuations scheduled into an in-flight
  // batch: the key is ~seq, so a freshly scheduled yield continuation must
  // preempt every older same-instant event.
  Engine engine(Schedule{TieBreak::kLifo, 0});
  std::vector<std::string> log;
  auto proc = [](Engine& e, std::vector<std::string>& out,
                 std::string tag) -> Task<> {
    out.push_back(tag + "1");
    co_await e.yield();
    out.push_back(tag + "2");
  };
  engine.spawn(proc(engine, log, "a"));  // spawn event seq 0
  engine.spawn(proc(engine, log, "b"));  // spawn event seq 1
  engine.run();
  // b starts first (~1 < ~0); its yield (seq 2, key ~2) then preempts a.
  EXPECT_EQ(log, (std::vector<std::string>{"b1", "b2", "a1", "a2"}));
}

TEST(Engine, RunUntilFinishesSameInstantBatchAtDeadline) {
  // The deadline is inclusive for the whole batch: continuations that keep
  // rescheduling at exactly t == deadline all run before run_until returns.
  Engine engine;
  int yields_done = 0;
  bool late_ran = false;
  engine.spawn([](Engine& e, int& n) -> Task<> {
    co_await e.sleep(2.0);
    for (int i = 0; i < 5; ++i) {
      co_await e.yield();
      ++n;
    }
  }(engine, yields_done));
  engine.spawn([](Engine& e, bool& ran) -> Task<> {
    co_await e.sleep(3.0);
    ran = true;
  }(engine, late_ran));
  engine.run_until(2.0);
  EXPECT_EQ(yields_done, 5);
  EXPECT_FALSE(late_ran);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run();
  EXPECT_TRUE(late_ran);
}

TEST(Engine, DigestUnchangedBySteppedRunUntil) {
  // Pop order (and therefore the digest) must not depend on whether the run
  // is driven in one shot or stepped through deadlines that slice batches.
  auto build = [](Engine& engine) {
    for (int i = 0; i < 6; ++i) {
      engine.spawn([](Engine& e, int id) -> Task<> {
        for (int hop = 0; hop < 4; ++hop) {
          co_await e.sleep(static_cast<double>((id + hop) % 3));
          co_await e.yield();
        }
      }(engine, i));
    }
  };
  Engine one_shot;
  build(one_shot);
  one_shot.run();
  Engine stepped;
  build(stepped);
  for (double t = 0.0; t < 16.0; t += 0.5) stepped.run_until(t);
  stepped.run();
  EXPECT_EQ(one_shot.digest(), stepped.digest());
  EXPECT_EQ(one_shot.events_processed(), stepped.events_processed());
}

}  // namespace
}  // namespace imc::sim
