#include "src/common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace skymr {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&pool, &counter] {
    counter.fetch_add(1);
    pool.Submit([&counter] { counter.fetch_add(1); });
  });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.WaitIdle();
    EXPECT_EQ(counter.load(), (wave + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructionWithPendingWorkCompletesStartedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.WaitIdle();
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(&pool, 64, [&hits](int i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&calls](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

/// Busy-waits `seconds` of wall time on the calling thread.
void Spin(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ParallelChunksTest, VisitsEveryUnitOnce) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    ParallelChunks(&pool, hits.size(), kParallelChunksMinWork,
                   [&hits](size_t u) { hits[u].fetch_add(1); });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1) << threads << " threads";
    }
  }
}

TEST(ParallelChunksTest, RunsInOrderOnTheCallerBelowTheFloor) {
  ThreadPool pool(4);
  std::vector<size_t> order;
  std::set<std::thread::id> threads;
  const auto record = [&](size_t u) {
    order.push_back(u);  // Unsynchronized: must all be the caller.
    threads.insert(std::this_thread::get_id());
  };
  ParallelChunks(&pool, 50, kParallelChunksMinWork - 1, record);
  ParallelChunks(nullptr, 50, kParallelChunksMinWork, record);
  ParallelChunks(&pool, 1, kParallelChunksMinWork, record);
  ASSERT_EQ(order.size(), 101u);
  for (size_t u = 0; u < 50; ++u) {
    EXPECT_EQ(order[u], u);
    EXPECT_EQ(order[50 + u], u);
  }
  EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ParallelChunksTest, FansOutToAtMostThreadsPlusOne) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  ParallelChunks(&pool, 64, kParallelChunksMinWork, [&](size_t) {
    Spin(0.0005);
    std::lock_guard<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(), 3u);
}

TEST(ParallelChunksTest, RethrowsTheFirstErrorAfterEveryUnitRan) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelChunks(&pool, 40, kParallelChunksMinWork,
                              [&ran](size_t u) {
                                ran.fetch_add(1);
                                if (u % 7 == 3) {
                                  throw std::runtime_error("unit failed");
                                }
                              }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 40);
  // The pool survives and stays usable.
  std::atomic<int> after{0};
  ParallelChunks(&pool, 8, kParallelChunksMinWork,
                 [&after](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ParallelChunksTest, NestedInsidePoolTasksOnASingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  ParallelFor(&pool, 4, [&](int) {
    ParallelChunks(&pool, 16, kParallelChunksMinWork,
                   [&total](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(BusyAccountTest, ChargesChunkTimeInPlaceOfRegionWallTime) {
  ThreadPool pool(4);
  const BusyAccount account;
  const auto start = std::chrono::steady_clock::now();
  ParallelChunks(&pool, 4, kParallelChunksMinWork,
                 [](size_t) { Spin(0.02); });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  // Four 20 ms units are 80 ms of one-core work however they ran.
  EXPECT_GE(account.OneCoreSeconds(wall), 0.08);
}

TEST(BusyAccountTest, AccountsNestAndChargeOnlyTheCurrentOne) {
  ThreadPool pool(2);
  const BusyAccount outer;
  {
    const BusyAccount inner;
    const auto start = std::chrono::steady_clock::now();
    ParallelChunks(&pool, 2, kParallelChunksMinWork,
                   [](size_t) { Spin(0.01); });
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_GE(inner.OneCoreSeconds(wall), 0.02);
  }
  // The inner region was charged to the inner account only.
  EXPECT_EQ(outer.OneCoreSeconds(0.0), 0.0);
  EXPECT_EQ(outer.OneCoreSeconds(0.5), 0.5);
}

TEST(ThreadPoolTest, DefaultThreadsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

}  // namespace
}  // namespace skymr
