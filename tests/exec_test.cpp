// Unit tests for the execution layer (src/exec): parallel_for semantics,
// which threads run a loop, exception propagation and the nested-call
// rejection.
#include "exec/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pmo::exec {
namespace {

TEST(ExecPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(hardware_threads(), 1);
}

TEST(ExecPool, SizeCountsCallerAndClampsToOne) {
  ThreadPool p1(1);
  EXPECT_EQ(p1.size(), 1);
  ThreadPool p4(4);
  EXPECT_EQ(p4.size(), 4);
  ThreadPool pneg(-3);  // <= 1 means inline
  EXPECT_EQ(pneg.size(), 1);
  ThreadPool pdefault(0);  // 0 means hardware_threads()
  EXPECT_EQ(pdefault.size(), hardware_threads());
}

TEST(ExecPool, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ExecPool, SingleItemRunsInlineOnCaller) {
  ThreadPool pool(4);
  int calls = 0;
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());  // n == 1 runs on the caller
}

TEST(ExecPool, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kN = 1000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecPool, LoopThreadsWithinPoolSizeIncludeCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::mutex mu;
  std::set<std::thread::id> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pool.parallel_for(256, [&](std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    if (self == caller) caller_ran.store(true);
    {
      std::lock_guard<std::mutex> lk(mu);
      seen.insert(self);
    }
    // Hold each worker until the caller has claimed an index, so a
    // preempted caller cannot find the range already drained. At most
    // size() - 1 indices wait, so the caller always finds one; the
    // deadline turns a caller that never joins into a failure, not a hang.
    while (!caller_ran.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  EXPECT_LE(seen.size(), static_cast<std::size_t>(pool.size()));
  EXPECT_EQ(seen.count(caller), 1u);  // the caller takes part
}

TEST(ExecPool, FirstExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must quiesce and accept the next job.
  std::atomic<int> calls{0};
  pool.parallel_for(50, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 50);
}

TEST(ExecPool, InlinePathPropagatesException) {
  ThreadPool pool(1);  // no workers: inline path
  EXPECT_THROW(pool.parallel_for(
                   5, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  int calls = 0;
  pool.parallel_for(3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 3);
}

TEST(ExecPool, NestedParallelForIsRejected) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> rejected{0};
  outer.parallel_for(8, [&](std::size_t) {
    try {
      inner.parallel_for(4, [](std::size_t) {});
    } catch (const std::logic_error&) {
      rejected.fetch_add(1);
    }
  });
  EXPECT_EQ(rejected.load(), 8);
  // Nesting is rejected even on the inline path (pool of 1 inside a task).
  ThreadPool one(1);
  outer.parallel_for(1, [&](std::size_t) {
    EXPECT_THROW(one.parallel_for(1, [](std::size_t) {}), std::logic_error);
  });
}

}  // namespace
}  // namespace pmo::exec
