#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace alsmf {
namespace {

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  // The second range ends at SIZE_MAX: claiming its last chunk must not
  // wrap the chunk cursor around to small indices.
  for (const std::size_t base :
       {std::size_t{0}, std::numeric_limits<std::size_t>::max() - 1000}) {
    std::vector<std::atomic<int>> hits(1000);
    std::atomic<int> stray{0};
    pool.parallel_for(base, base + hits.size(),
                      [&](std::size_t b, std::size_t e, unsigned) {
                        for (std::size_t i = b; i < e; ++i) {
                          if (i - base < hits.size()) {
                            hits[i - base].fetch_add(1);
                          } else {
                            stray.fetch_add(1);
                          }
                        }
                      });
    EXPECT_EQ(stray.load(), 0) << "base " << base;
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "base " << base;
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
  pool.parallel_for(7, 3, [&](std::size_t, std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, DegenerateRangesAreContractNotLuck) {
  // The serve batcher submits whatever range the drained batch produced,
  // including zero fold-ins and (begin, end) pairs computed by subtraction
  // that can invert. All of these must be silent no-ops.
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  const auto count = [&](std::size_t, std::size_t, unsigned) { calls++; };
  pool.parallel_for(0, 0, count);
  pool.parallel_for(std::size_t{1} << 60, (std::size_t{1} << 60) - 5, count);
  pool.parallel_for(std::numeric_limits<std::size_t>::max(), 0, count);
  EXPECT_EQ(calls.load(), 0);
  // And the pool is still fully functional afterwards.
  pool.parallel_for(0, 10, count);
  EXPECT_GT(calls.load(), 0);
}

TEST(ThreadPool, SingleElementRunsInline) {
  ThreadPool pool(4);
  unsigned worker = 99;
  pool.parallel_for(3, 4, [&](std::size_t b, std::size_t e, unsigned w) {
    EXPECT_EQ(b, 3u);
    EXPECT_EQ(e, 4u);
    worker = w;
  });
  EXPECT_EQ(worker, 0u);
}

TEST(ThreadPool, WorkerIndexWithinBounds) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.parallel_for(0, 500, [&](std::size_t, std::size_t, unsigned w) {
    if (w >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, SumMatchesSequential) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(1, 10001, [&](std::size_t b, std::size_t e, unsigned) {
    long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 50005000L);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t, std::size_t, unsigned) -> void {
                          throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 100, [](std::size_t, std::size_t, unsigned) {
      throw Error("first");
    });
  } catch (const Error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t b, std::size_t e, unsigned) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultSizePositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, GlobalSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

/// One parallel_for over [0, n) that checks the worker-index contract:
/// every index is below size() and no two running chunks of the call share
/// one. `chunk_fn` runs once per chunk. Returns false on a violation or on
/// an element not visited exactly once.
bool contract_holds(ThreadPool& pool, std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& chunk_fn) {
  std::vector<std::atomic<int>> busy(pool.size()), hits(n);
  std::atomic<bool> ok{true};
  pool.parallel_for(0, n, [&](std::size_t b, std::size_t e, unsigned w) {
    if (w >= busy.size() || busy[w].fetch_add(1) != 0) {
      ok = false;
      return;
    }
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    chunk_fn(b, e);
    busy[w].fetch_sub(1);
  });
  for (const auto& h : hits) {
    if (h.load() != 1) ok = false;
  }
  return ok.load();
}

TEST(ThreadPool, ConcurrentAndNestedSubmittersShareOnePool) {
  constexpr int kSubmitters = 6;
  constexpr int kCalls = 100;
  for (const unsigned size : {1u, 2u, 4u}) {
    ThreadPool pool(size);
    std::atomic<int> broken{0}, caught{0}, stray{0};
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (int c = 0; c < kCalls; ++c) {
          // Submitter 0 fails every tenth call from inside a nested chunk;
          // only submitter 0 may see the exception.
          const bool fail = s == 0 && c % 10 == 0;
          try {
            const bool ok = contract_holds(pool, 16, [&](std::size_t, std::size_t) {
              const bool inner_ok = contract_holds(
                  pool, 8, [&](std::size_t b, std::size_t e) {
                    if (fail && b <= 3 && 3 < e) throw Error("boom");
                  });
              if (!inner_ok) broken.fetch_add(1);
            });
            if (!ok || fail) broken.fetch_add(1);
          } catch (const Error&) {
            if (fail) {
              caught.fetch_add(1);
            } else {
              stray.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& t : submitters) t.join();
    EXPECT_EQ(broken.load(), 0) << "pool size " << size;
    EXPECT_EQ(stray.load(), 0) << "pool size " << size;
    EXPECT_EQ(caught.load(), kCalls / 10) << "pool size " << size;
  }
}

TEST(ThreadPool, ManySequentialJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e, unsigned) {
      count.fetch_add(static_cast<int>(e - b));
    });
    ASSERT_EQ(count.load(), 64);
  }
}

}  // namespace
}  // namespace alsmf
