#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace imc::sim {
namespace {

TEST(Event, ReleasesAllWaiters) {
  Engine engine;
  Event event(engine);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Event& ev, int& n) -> Task<> {
      co_await ev.wait();
      ++n;
    }(event, released));
  }
  engine.spawn([](Engine& e, Event& ev) -> Task<> {
    co_await e.sleep(5);
    ev.set();
  }(engine, event));
  engine.run();
  EXPECT_EQ(released, 3);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(Event, WaitAfterSetPassesThrough) {
  Engine engine;
  Event event(engine);
  event.set();
  bool passed = false;
  engine.spawn([](Event& ev, bool& out) -> Task<> {
    co_await ev.wait();
    out = true;
  }(event, passed));
  engine.run();
  EXPECT_TRUE(passed);
}

TEST(Event, DoubleSetIsIdempotent) {
  Engine engine;
  Event event(engine);
  event.set();
  event.set();
  EXPECT_TRUE(event.is_set());
}

TEST(Semaphore, TryAcquireRespectsCount) {
  Engine engine;
  Semaphore sem(engine, 10);
  EXPECT_TRUE(sem.try_acquire(4));
  EXPECT_TRUE(sem.try_acquire(6));
  EXPECT_FALSE(sem.try_acquire(1));
  sem.release(5);
  EXPECT_EQ(sem.available(), 5u);
  EXPECT_EQ(sem.in_use(), 5u);
}

TEST(Semaphore, BlocksUntilRelease) {
  Engine engine;
  Semaphore sem(engine, 1);
  std::vector<std::string> log;
  engine.spawn([](Engine& e, Semaphore& s, std::vector<std::string>& out)
                   -> Task<> {
    co_await s.acquire();
    out.push_back("a-got");
    co_await e.sleep(3);
    s.release();
    out.push_back("a-released");
  }(engine, sem, log));
  engine.spawn([](Engine& e, Semaphore& s, std::vector<std::string>& out)
                   -> Task<> {
    co_await e.sleep(1);  // arrive second
    co_await s.acquire();
    out.push_back("b-got at " + std::to_string(e.now()));
    s.release();
  }(engine, sem, log));
  engine.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "a-got");
  EXPECT_EQ(log[1], "a-released");
  EXPECT_EQ(log[2], "b-got at 3.000000");
}

TEST(Semaphore, FifoNoStarvationOfLargeRequest) {
  // A large request at the head must block later small ones (fairness).
  Engine engine;
  Semaphore sem(engine, 4);
  std::vector<std::string> order;
  engine.spawn([](Engine& e, Semaphore& s) -> Task<> {
    co_await s.acquire(4);
    co_await e.sleep(1);
    s.release(4);
  }(engine, sem));
  engine.spawn([](Semaphore& s, std::vector<std::string>& out) -> Task<> {
    co_await s.acquire(4);  // queued first
    out.push_back("big");
    s.release(4);
  }(sem, order));
  engine.spawn([](Semaphore& s, std::vector<std::string>& out) -> Task<> {
    co_await s.acquire(1);  // queued second; must NOT jump the big request
    out.push_back("small");
    s.release(1);
  }(sem, order));
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"big", "small"}));
}

TEST(Semaphore, WaitingCount) {
  Engine engine;
  Semaphore sem(engine, 0);
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Semaphore& s) -> Task<> {
      co_await s.acquire();
      s.release();
    }(sem));
  }
  engine.run();
  EXPECT_EQ(sem.waiting(), 3u);
  sem.add_capacity(1);
  engine.run();
  EXPECT_EQ(sem.waiting(), 0u);
}

TEST(Queue, DeliversInPushOrder) {
  Engine engine;
  Queue<int> queue(engine);
  std::vector<int> got;
  engine.spawn([](Queue<int>& q, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 4; ++i) out.push_back(co_await q.pop());
  }(queue, got));
  engine.spawn([](Engine& e, Queue<int>& q) -> Task<> {
    q.push(1);
    q.push(2);
    co_await e.sleep(1);
    q.push(3);
    q.push(4);
  }(engine, queue));
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Queue, MultipleConsumersEachGetOneItem) {
  Engine engine;
  Queue<int> queue(engine);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Queue<int>& q, std::vector<int>& out) -> Task<> {
      out.push_back(co_await q.pop());
    }(queue, got));
  }
  engine.spawn([](Queue<int>& q) -> Task<> {
    q.push(10);
    q.push(20);
    q.push(30);
    co_return;
  }(queue));
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Queue, PopBeforeAnyPushSuspends) {
  Engine engine;
  Queue<std::string> queue(engine);
  std::string got;
  engine.spawn([](Queue<std::string>& q, std::string& out) -> Task<> {
    out = co_await q.pop();
  }(queue, got));
  engine.spawn([](Engine& e, Queue<std::string>& q) -> Task<> {
    co_await e.sleep(2);
    q.push("late");
  }(engine, queue));
  engine.run();
  EXPECT_EQ(got, "late");
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
}

TEST(Queue, ImmediatePopDoesNotStealFromScheduledPopper) {
  Engine engine;
  Queue<int> queue(engine);
  std::vector<int> a_got, b_got;
  // A pops first (suspends). Then one push wakes A; B pops at the same
  // instant — there is only one item, so B must suspend, not steal it.
  engine.spawn([](Queue<int>& q, std::vector<int>& out) -> Task<> {
    out.push_back(co_await q.pop());
  }(queue, a_got));
  engine.spawn([](Engine& e, Queue<int>& q, std::vector<int>& out) -> Task<> {
    co_await e.sleep(1);
    q.push(111);
    out.push_back(co_await q.pop());  // must wait for the second push
    co_return;
  }(engine, queue, b_got));
  engine.spawn([](Engine& e, Queue<int>& q) -> Task<> {
    co_await e.sleep(2);
    q.push(222);
  }(engine, queue));
  engine.run();
  EXPECT_EQ(a_got, (std::vector<int>{111}));
  EXPECT_EQ(b_got, (std::vector<int>{222}));
}

TEST(Queue, WrapsAroundTheRingInOrder) {
  // Three pushes and pops move the head to slot 3 of the initial 4-slot
  // ring; the next three items wrap through slots 3, 0 and 1.
  Engine engine;
  Queue<int> queue(engine);
  std::vector<int> got;
  engine.spawn([](Queue<int>& q, std::vector<int>& out) -> Task<> {
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 3; ++i) q.push(round * 10 + i);
      EXPECT_EQ(q.size(), 3u);
      for (int i = 0; i < 3; ++i) out.push_back(co_await q.pop());
      EXPECT_TRUE(q.empty());
    }
  }(queue, got));
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 10, 11, 12, 20, 21, 22, 30, 31,
                                   32}));
}

TEST(Queue, GrowsWhileHeadIsNotZeroAndAPopperIsClaimed) {
  Engine engine;
  Queue<std::string> queue(engine);
  std::vector<std::string> got;
  engine.spawn([](Queue<std::string>& q,
                  std::vector<std::string>& out) -> Task<> {
    for (int i = 1; i <= 7; ++i) out.push_back(co_await q.pop());
  }(queue, got));
  engine.spawn([](Engine& e, Queue<std::string>& q) -> Task<> {
    q.push("1");  // wakes the parked consumer
    q.push("2");
    co_await e.sleep(1);  // consumer takes 1 and 2: the head is at slot 2
    q.push("3");          // claimed by the consumer, which has not run yet
    q.push("4");
    q.push("5");
    q.push("6");  // the ring is full and wraps: slots 2, 3, 0, 1
    q.push("7");  // grows with head 2 and one claimed popper
    EXPECT_EQ(q.size(), 5u);
  }(engine, queue));
  engine.run();
  EXPECT_EQ(got, (std::vector<std::string>{"1", "2", "3", "4", "5", "6", "7"}));
  EXPECT_TRUE(queue.empty());
}

TEST(Queue, DestroysItemsLeftInTheRing) {
  int live = 0;
  struct Counted {
    int* live;
    explicit Counted(int* n) : live(n) { ++*live; }
    Counted(Counted&& other) noexcept : live(other.live) { ++*live; }
    ~Counted() { --*live; }
  };
  {
    Engine engine;
    Queue<Counted> queue(engine);
    for (int i = 0; i < 6; ++i) queue.push(Counted(&live));
    EXPECT_EQ(live, 6);
  }
  EXPECT_EQ(live, 0);
}

TEST(Reply, ValueFirstIsReady) {
  Engine engine;
  Reply<int> reply(engine);
  int got = 0;
  double at = -1;
  engine.spawn([](Engine& e, Reply<int>& r, int& out, double& t) -> Task<> {
    r.push(42);
    co_await e.sleep(3);
    out = co_await r.pop();  // the value is already there: no suspension
    t = e.now();
  }(engine, reply, got, at));
  const std::size_t events = engine.run();
  EXPECT_EQ(got, 42);
  EXPECT_DOUBLE_EQ(at, 3.0);
  EXPECT_EQ(events, 2u);  // the spawn and the sleep wake, no reply wake
}

TEST(Reply, WaiterFirstSuspendsUntilPush) {
  Engine engine;
  Reply<std::string> reply(engine);
  std::string got;
  double at = -1;
  engine.spawn([](Engine& e, Reply<std::string>& r, std::string& out,
                  double& t) -> Task<> {
    out = co_await r.pop();
    t = e.now();
  }(engine, reply, got, at));
  engine.spawn([](Engine& e, Reply<std::string>& r) -> Task<> {
    co_await e.sleep(2);
    r.push("late");
  }(engine, reply));
  engine.run();
  EXPECT_EQ(got, "late");
  EXPECT_DOUBLE_EQ(at, 2.0);
}

// Clients send requests to one server and wait for single answers through
// a `Mailbox`. Some answers arrive before the client pops and some after,
// so both the ready path and the suspend path run.
template <template <typename> class Mailbox>
std::pair<std::uint64_t, std::vector<int>> round_trips(Schedule schedule) {
  Engine engine(schedule);
  struct Request {
    int value;
    Mailbox<int>* reply;
  };
  Queue<Request> server(engine);
  std::vector<int> got;
  engine.spawn([](Engine& e, Queue<Request>& q) -> Task<> {
    for (int i = 0; i < 12; ++i) {
      Request r = co_await q.pop();
      co_await e.sleep(5e-4);
      r.reply->push(r.value * 10);
    }
  }(engine, server));
  for (int c = 0; c < 4; ++c) {
    engine.spawn([](Engine& e, Queue<Request>& q, std::vector<int>& out,
                    int client) -> Task<> {
      for (int k = 0; k < 3; ++k) {
        Mailbox<int> reply(e);
        q.push(Request{client * 3 + k, &reply});
        co_await e.sleep(((client + k) % 3) * 4e-4);
        out.push_back(co_await reply.pop());
      }
    }(engine, server, got, c));
  }
  engine.run();
  EXPECT_EQ(got.size(), 12u);
  return {engine.digest(), got};
}

TEST(Reply, MatchesAOneItemQueueUnderEverySchedule) {
  for (Schedule schedule : {Schedule{TieBreak::kFifo, 0},
                            Schedule{TieBreak::kLifo, 0},
                            Schedule{TieBreak::kSeededShuffle, 7},
                            Schedule{TieBreak::kSeededShuffle, 99}}) {
    EXPECT_EQ(round_trips<Reply>(schedule), round_trips<Queue>(schedule))
        << to_string(schedule.tie_break) << " seed " << schedule.seed;
  }
}

TEST(Barrier, AllPartiesMeet) {
  Engine engine;
  Barrier barrier(engine, 4);
  std::vector<double> times;
  for (int i = 0; i < 4; ++i) {
    engine.spawn([](Engine& e, Barrier& b, std::vector<double>& out,
                    int id) -> Task<> {
      co_await e.sleep(id);  // staggered arrivals at t=0,1,2,3
      co_await b.arrive_and_wait();
      out.push_back(e.now());
    }(engine, barrier, times, i));
  }
  engine.run();
  ASSERT_EQ(times.size(), 4u);
  for (double t : times) EXPECT_DOUBLE_EQ(t, 3.0);  // all released together
}

TEST(Barrier, Reusable) {
  Engine engine;
  Barrier barrier(engine, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    engine.spawn([](Engine& e, Barrier& b, int& n, int id) -> Task<> {
      for (int round = 0; round < 3; ++round) {
        co_await e.sleep(id + 1);
        co_await b.arrive_and_wait();
      }
      ++n;
    }(engine, barrier, rounds_done, i));
  }
  engine.run();
  EXPECT_EQ(rounds_done, 2);
}

TEST(Barrier, SinglePartyPassesThrough) {
  Engine engine;
  Barrier barrier(engine, 1);
  bool done = false;
  engine.spawn([](Barrier& b, bool& out) -> Task<> {
    co_await b.arrive_and_wait();
    out = true;
  }(barrier, done));
  engine.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace imc::sim
