#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace autofeat {
namespace {

TEST(ThreadPoolTest, ResolveNumThreads) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WithdrawDropsOnlyTheOwnersQueuedTasks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.idle_workers(), 1u);
  std::atomic<bool> release{false};
  std::atomic<bool> blocking{false};
  pool.Submit([&] {
    blocking = true;
    while (!release) std::this_thread::yield();
  });
  while (!blocking) std::this_thread::yield();
  EXPECT_EQ(pool.idle_workers(), 0u);
  int owner_a = 0, owner_b = 0;
  std::atomic<int> ran_a{0}, ran_b{0};
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&] { ran_a.fetch_add(1); }, &owner_a);
  }
  pool.Submit([&] { ran_b.fetch_add(1); }, &owner_b);
  EXPECT_EQ(pool.Withdraw(&owner_a), 3u);
  EXPECT_EQ(pool.Withdraw(&owner_a), 0u);
  release = true;
  while (ran_b.load() == 0) std::this_thread::yield();
  EXPECT_EQ(ran_a.load(), 0);
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 5, 5, 1, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(&pool, 7, 3, 1, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(nullptr, 0, 0, 4, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  // Odd ranges x grains (0 behaves like 1; some exceed the range) x pool
  // widths, including more lanes than chunks, each over a shifted range so
  // a non-zero begin is covered too.
  for (size_t threads : {1, 2, 3, 5}) {
    ThreadPool pool(threads);
    for (size_t range : {1, 2, 7, 64, 97, 1000}) {
      for (size_t grain : {0, 1, 3, 7, 64, 2000}) {
        for (size_t begin : {0, 17}) {
          std::vector<std::atomic<int>> hits(begin + range);
          ParallelFor(&pool, begin, begin + range, grain,
                      [&](size_t i) { hits[i].fetch_add(1); });
          for (size_t i = 0; i < hits.size(); ++i) {
            ASSERT_EQ(i >= begin ? 1 : 0, hits[i].load())
                << "threads=" << threads << " range=" << range
                << " grain=" << grain << " begin=" << begin << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(ParallelForTest, BackToBackCallsFromSeveralThreads) {
  // A call may return only after its helpers stopped touching the call's
  // stack state: back-to-back calls from several threads reuse that stack
  // at once, so a late helper would lock a dead mutex.
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 2000; ++round) {
        ParallelFor(&pool, 0, 4, 1, [&](size_t) { sum.fetch_add(1); });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(sum.load(), 3 * 2000 * 4);
}

TEST(ParallelForTest, NestedCallsRunEveryInnerIndexOnce) {
  // Five outer tasks on three workers, each running an inner loop of eight
  // chunks: every worker is inside an outer task while inner helpers could
  // still be queued behind them. A caller that waited for its helpers to
  // start would hang here (ctest's TIMEOUT turns that into a failure).
  ThreadPool pool(3);
  constexpr size_t kOuter = 5, kInner = 64;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    ParallelFor(&pool, 0, kOuter, 1, [&](size_t outer) {
      ParallelFor(&pool, 0, kInner, 8, [&](size_t inner) {
        hits[outer * kInner + inner].fetch_add(1);
      });
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 2, 8, 2, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{2, 3, 4, 5, 6, 7}));
}

TEST(ParallelForTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 64, 1,
                  [&](size_t i) {
                    if (i % 2 == 1) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool survives a throwing loop and stays usable.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 0, 16, 1, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 16);
}

TEST(ParallelForTest, LowestChunkExceptionWins) {
  ThreadPool pool(4);
  // Every index throws its own value; the rethrown one must come from the
  // lowest chunk regardless of scheduling.
  for (int round = 0; round < 5; ++round) {
    size_t thrown = 9999;
    try {
      ParallelFor(&pool, 0, 32, 1, [](size_t i) {
        throw i;  // NOLINT: test-only control flow
      });
    } catch (size_t i) {
      thrown = i;
    }
    EXPECT_EQ(thrown, 0u);
  }
}

TEST(ParallelMapTest, PreservesIndexOrder) {
  ThreadPool pool(4);
  std::vector<int> squares =
      ParallelMap<int>(&pool, 100, 3, [](size_t i) {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(squares.size(), 100u);
  for (size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
  // Inline (null pool) agrees.
  EXPECT_EQ(squares, ParallelMap<int>(nullptr, 100, 3, [](size_t i) {
              return static_cast<int>(i * i);
            }));
}

TEST(DeriveSeedTest, StreamsAreStableAndDistinct) {
  EXPECT_EQ(DeriveSeed(42, 0), DeriveSeed(42, 0));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(42, 1));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(43, 0));
}

}  // namespace
}  // namespace autofeat
