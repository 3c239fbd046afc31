// Unit tests for the discrete-event engine: fibers, clock, resources,
// completions, channels, barriers, determinism.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "des/completion.hpp"
#include "des/engine.hpp"
#include "des/fiber.hpp"
#include "des/resource.hpp"
#include "des/sync.hpp"
#include "des/timer.hpp"
#include "util/assert.hpp"

namespace colcom::des {
namespace {

TEST(Fiber, RunsBodyOnResume) {
  int steps = 0;
  Fiber f(64 * 1024, [&] {
    ++steps;
    Fiber::current()->yield();
    ++steps;
  });
  EXPECT_EQ(steps, 0);
  f.resume();
  EXPECT_EQ(steps, 1);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(steps, 2);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CapturesException) {
  Fiber f(64 * 1024, [] { throw std::runtime_error("boom"); });
  f.resume();
  EXPECT_TRUE(f.finished());
  ASSERT_TRUE(f.exception() != nullptr);
  EXPECT_THROW(std::rethrow_exception(f.exception()), std::runtime_error);
}

// Resident set size of this process, read from /proc/self/statm.
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0;
  std::int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

TEST(Fiber, StacksCommitOnlyTouchedPages) {
  // 256 live fibers of 256 KB reserve 64 MB of stack. Each runs a few
  // frames deep, so committing only touched pages keeps RSS growth to a
  // few pages per fiber; zero-filling the stacks up front would add 64 MB.
  constexpr int kFibers = 256;
  constexpr std::size_t kStack = 256 * 1024;
  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(kFibers);
  const std::int64_t before = resident_bytes();
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(
        std::make_unique<Fiber>(kStack, [] { Fiber::current()->yield(); }));
    fibers.back()->resume();
  }
  const std::int64_t growth = resident_bytes() - before;
  for (auto& f : fibers) {
    EXPECT_FALSE(f->finished());
    f->resume();
    EXPECT_TRUE(f->finished());
  }
  EXPECT_LT(growth, std::int64_t{16} << 20);
}

// Stack overflow detection. The body records an address near the top of
// its stack; the SIGSEGV handler (on an alternate stack, since the fiber's
// is exhausted) checks that the faulting address lies in the page just
// below the usable stack.
constexpr std::size_t kOverflowStack = 64 * 1024;
std::uintptr_t g_stack_top = 0;
// Set before the fault: sysconf is not async-signal-safe.
std::uintptr_t g_page = 0;
std::size_t (*volatile g_recurse)(std::size_t) = nullptr;

std::size_t recurse_forever(std::size_t depth) {
  // The volatile frame makes every call use stack; the call through a
  // volatile pointer cannot be turned into a loop.
  volatile char frame[256];
  frame[depth % sizeof(frame)] = 1;
  return g_recurse(depth + 1) + static_cast<std::size_t>(frame[0]);
}

void on_overflow(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  // The top-of-stack anchor sits less than a page below the stack's end.
  const std::uintptr_t guard_hi = g_stack_top - kOverflowStack + g_page;
  const std::uintptr_t guard_lo = guard_hi - 2 * g_page;
  if (addr >= guard_lo && addr < guard_hi) {
    constexpr char kMsg[] = "stack overflow hit the guard page\n";
    (void)!write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
    _exit(3);
  }
  constexpr char kMsg[] = "fault outside the guard page\n";
  (void)!write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  _exit(4);
}

void overflow_a_fiber() {
  g_page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  static std::byte alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = &on_overflow;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);
  g_recurse = &recurse_forever;
  Fiber f(kOverflowStack, [] {
    char anchor = 0;
    g_stack_top = reinterpret_cast<std::uintptr_t>(&anchor);
    g_recurse(0);
  });
  f.resume();
}

TEST(FiberDeathTest, UnboundedRecursionDiesOnTheGuardPage) {
  EXPECT_EXIT(overflow_a_fiber(), testing::ExitedWithCode(3),
              "stack overflow hit the guard page");
}

TEST(Engine, AdvanceMovesVirtualClock) {
  Engine e;
  SimTime seen = -1;
  e.spawn("a", 0, [&] {
    e.advance(1.5);
    seen = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 1.5);
}

TEST(Engine, ActorsInterleaveByTime) {
  Engine e;
  std::vector<std::string> order;
  e.spawn("slow", 0, [&] {
    e.advance(2.0);
    order.push_back("slow");
  });
  e.spawn("fast", 0, [&] {
    e.advance(1.0);
    order.push_back("fast");
  });
  e.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "fast");
  EXPECT_EQ(order[1], "slow");
}

TEST(Engine, TieBreakIsSpawnOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn("a" + std::to_string(i), 0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, SleepUntilWakesAtExactTime) {
  Engine e;
  SimTime woke = -1;
  e.spawn("s", 0, [&] {
    e.sleep_until(3.25);
    woke = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(woke, 3.25);
}

TEST(Engine, ExceptionInActorPropagates) {
  Engine e;
  e.spawn("bad", 0, [] { throw std::runtime_error("actor failed"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, SchedulingInPastIsContractViolation) {
  Engine e;
  e.spawn("a", 0, [&] {
    e.advance(1.0);
    EXPECT_THROW(e.schedule(0.5, [] {}), ContractViolation);
  });
  e.run();
}

TEST(Engine, BlockAndWakeRoundTrip) {
  Engine e;
  int waiter_id = -1;
  bool resumed = false;
  e.spawn("waiter", 0, [&] {
    waiter_id = e.current_actor();
    e.block();
    resumed = true;
  });
  e.spawn("waker", 1, [&] {
    e.advance(2.0);
    e.wake(waiter_id);
  });
  e.run();
  EXPECT_TRUE(resumed);
}

TEST(Engine, TraceSinkReceivesIntervals) {
  struct Rec : TraceSink {
    std::vector<std::tuple<int, CpuKind, SimTime, SimTime>> intervals;
    void on_interval(int node, int, CpuKind kind, SimTime b,
                     SimTime en) override {
      intervals.emplace_back(node, kind, b, en);
    }
  } rec;
  Engine e;
  e.add_trace_sink(&rec);
  e.spawn("a", 3, [&] {
    e.advance(1.0, CpuKind::user);
    e.advance(0.5, CpuKind::sys);
    e.sleep_until(4.0);
  });
  e.run();
  ASSERT_EQ(rec.intervals.size(), 3u);
  EXPECT_EQ(std::get<0>(rec.intervals[0]), 3);
  EXPECT_EQ(std::get<1>(rec.intervals[0]), CpuKind::user);
  EXPECT_DOUBLE_EQ(std::get<3>(rec.intervals[0]), 1.0);
  EXPECT_EQ(std::get<1>(rec.intervals[1]), CpuKind::sys);
  EXPECT_EQ(std::get<1>(rec.intervals[2]), CpuKind::wait);
  EXPECT_DOUBLE_EQ(std::get<3>(rec.intervals[2]), 4.0);
}

TEST(Resource, FifoSerializesRequests) {
  Engine e;
  std::vector<SimTime> done;
  FifoResource r(e, "disk");
  for (int i = 0; i < 3; ++i) {
    e.spawn("u" + std::to_string(i), 0, [&] {
      r.use(1.0);
      done.push_back(e.now());
    });
  }
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 3.0);
  EXPECT_EQ(r.ops(), 3u);
}

TEST(Resource, AsyncOverlapsWithCompute) {
  Engine e;
  SimTime finish = -1;
  FifoResource r(e, "disk");
  e.spawn("overlap", 0, [&] {
    Completion c = r.use_async(2.0);  // disk works 0..2
    e.advance(1.5);                   // compute 0..1.5 in parallel
    c.wait();                         // done at 2, not 3.5
    finish = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(finish, 2.0);
}

TEST(Completion, ReadyIsImmediate) {
  Engine e;
  SimTime t = -1;
  e.spawn("a", 0, [&] {
    Completion c = Completion::ready(e);
    c.wait();
    t = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Completion, MultipleWaiters) {
  Engine e;
  CompletionSource src(e);
  int woken = 0;
  for (int i = 0; i < 4; ++i) {
    e.spawn("w" + std::to_string(i), 0, [&] {
      src.completion().wait();
      ++woken;
    });
  }
  e.spawn("firer", 0, [&] {
    e.advance(5.0);
    src.fire();
  });
  e.run();
  EXPECT_EQ(woken, 4);
}

TEST(Completion, WaitAllWaitsForSlowest) {
  Engine e;
  FifoResource a(e, "a"), b(e, "b");
  SimTime t = -1;
  e.spawn("w", 0, [&] {
    std::vector<Completion> cs{a.use_async(1.0), b.use_async(3.0)};
    wait_all(cs);
    t = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(t, 3.0);
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Engine e;
  Semaphore sem(e, 2);
  int inside = 0, peak = 0;
  for (int i = 0; i < 6; ++i) {
    e.spawn("s" + std::to_string(i), 0, [&] {
      sem.acquire();
      peak = std::max(peak, ++inside);
      e.advance(1.0);
      --inside;
      sem.release();
    });
  }
  e.run();
  EXPECT_EQ(peak, 2);
}

TEST(Sync, ChannelTransfersInOrder) {
  Engine e;
  Channel<int> ch(e, 2);
  std::vector<int> got;
  e.spawn("producer", 0, [&] {
    for (int i = 0; i < 10; ++i) {
      ch.push(i);
      e.advance(0.1);
    }
    ch.close();
  });
  e.spawn("consumer", 1, [&] {
    while (auto v = ch.pop()) got.push_back(*v);
  });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Sync, ChannelCapacityBlocksProducer) {
  Engine e;
  Channel<int> ch(e, 1);
  SimTime second_push_done = -1;
  e.spawn("producer", 0, [&] {
    ch.push(1);
    ch.push(2);  // must wait until consumer pops at t=5
    second_push_done = e.now();
    ch.close();
  });
  e.spawn("consumer", 1, [&] {
    e.advance(5.0);
    (void)ch.pop();
    (void)ch.pop();
  });
  e.run();
  EXPECT_DOUBLE_EQ(second_push_done, 5.0);
}

TEST(Sync, BarrierReleasesTogetherAndIsCyclic) {
  Engine e;
  FiberBarrier bar(e, 3);
  std::vector<SimTime> times;
  for (int i = 0; i < 3; ++i) {
    e.spawn("b" + std::to_string(i), 0, [&, i] {
      e.advance(static_cast<SimTime>(i));  // arrive at 0, 1, 2
      bar.arrive_and_wait();
      times.push_back(e.now());
      bar.arrive_and_wait();  // reuse in a second cycle
      times.push_back(e.now());
    });
  }
  e.run();
  ASSERT_EQ(times.size(), 6u);
  for (const SimTime t : times) EXPECT_DOUBLE_EQ(t, 2.0);
}

// Determinism: two identical simulations dispatch identical event counts and
// end at identical virtual times.
TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    FifoResource disk(e, "d");
    Channel<int> ch(e, 4);
    for (int i = 0; i < 8; ++i) {
      e.spawn("p" + std::to_string(i), i % 2, [&e, &disk, &ch, i] {
        for (int k = 0; k < 5; ++k) {
          disk.use(0.01 * (i + 1));
          ch.push(i);
          e.advance(0.002);
        }
      });
    }
    e.spawn("drain", 0, [&] {
      for (int k = 0; k < 40; ++k) (void)ch.pop();
    });
    e.run();
    return std::pair<SimTime, std::uint64_t>{e.now(), e.events_dispatched()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Timer, FiresAtArmedTime) {
  Engine e;
  Timer t(e);
  SimTime fired_at = -1;
  t.arm(0.5, [&] { fired_at = e.now(); });
  EXPECT_TRUE(t.armed());
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 0.5);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, CancelPreventsFire) {
  Engine e;
  Timer t(e);
  bool fired = false;
  t.arm(0.5, [&] { fired = true; });
  e.schedule(0.25, [&] { t.cancel(); });
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(t.armed());
  // The tombstoned event still advanced the clock to its deadline.
  EXPECT_DOUBLE_EQ(e.now(), 0.5);
}

TEST(Timer, RearmReplacesPendingFire) {
  Engine e;
  Timer t(e);
  std::vector<SimTime> fires;
  t.arm(0.5, [&] { fires.push_back(e.now()); });
  e.schedule(0.1, [&] { t.arm(0.9, [&] { fires.push_back(e.now()); }); });
  e.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_DOUBLE_EQ(fires[0], 0.9);
}

TEST(Timer, DestructorCancels) {
  Engine e;
  bool fired = false;
  {
    Timer t(e);
    t.arm(0.5, [&] { fired = true; });
  }
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, SleepForAdvancesWallClockOnly) {
  Engine e;
  SimTime woke = -1;
  e.spawn("sleeper", 0, [&] {
    e.sleep_for(0.25);
    e.sleep_for(0.25);
    woke = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(woke, 0.5);
}

}  // namespace
}  // namespace colcom::des
