// Stress suite for the thread-per-core work-stealing scheduler
// (bulk::CorePool): concurrent submitters, steal-heavy skewed tile costs,
// nested submission from inside a task (three levels deep), ragged trailing
// tiles, the coarse chunk grain, clean shutdown with tasks queued,
// exception semantics through private pools and the shared instance, and
// bit-identical executor output across worker counts for the
// whole algorithm registry × arrangements × SIMD tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/host_executor.hpp"
#include "common/rng.hpp"
#include "common/simd_isa.hpp"
#include "exec/backend.hpp"

namespace {

using namespace obx;
using namespace obx::bulk;

/// Burns roughly `iters` of CPU without sleeping (sleeps would let every
/// thread interleave trivially and hide scheduling bugs).
void busy_work(std::size_t iters) {
  volatile std::uint64_t sink = 0;
  for (std::size_t i = 0; i < iters; ++i) sink = sink + i;
}

TEST(CorePool, CoversRangeExactlyOnce) {
  CorePool pool(CorePool::Config{.workers = 4});
  constexpr std::size_t kCount = 10007;
  std::vector<std::atomic<int>> hits(kCount);
  const SchedulerStats stats =
      pool.parallel_for(kCount, 1, 16, 4, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "lane " << i;
  }
  EXPECT_EQ(stats.tasks, (kCount + 15) / 16);
}

TEST(CorePool, RespectsAlignmentAndGrainRounding) {
  CorePool pool(CorePool::Config{.workers = 4});
  constexpr std::size_t kAlign = 7;
  constexpr std::size_t kCount = 7 * 123;
  std::atomic<std::size_t> covered{0};
  // Grain 10 is not an align multiple: the pool must round it up to 14.
  pool.parallel_for(kCount, kAlign, 10, 4, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin % kAlign, 0u);
    EXPECT_TRUE(end % kAlign == 0 || end == kCount);
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), kCount);
}

TEST(CorePool, ConcurrentSubmittersEachCoverTheirOwnRange) {
  CorePool pool(CorePool::Config{.workers = 4});
  constexpr std::size_t kSubmitters = 6;
  constexpr std::size_t kCount = 4096;
  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kCount);
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < 8; ++round) {
        pool.parallel_for(kCount, 1, 64, 4, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            hits[s][i].fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[s][i].load(), 8) << "submitter " << s << " lane " << i;
    }
  }
}

TEST(CorePool, StealsUnderSkewedTileCosts) {
  CorePool pool(CorePool::Config{.workers = 4});
  // 512 one-lane tiles with wildly skewed costs: a static partition would
  // leave the expensive tail on one thread; the steal loop must spread it.
  constexpr std::size_t kTiles = 512;
  std::vector<std::atomic<int>> hits(kTiles);
  SchedulerStats total;
  // With 4 workers woken against a deque of 512 slow tiles, tiles must get
  // stolen off the submitter's deque.  Retry bounded rounds rather than
  // asserting on one: on a heavily loaded (or single-CPU) host the OS may
  // give the submitter a long uninterrupted slice.
  int rounds = 0;
  while (total.steals == 0 && rounds < 20) {
    ++rounds;
    total += pool.parallel_for(kTiles, 1, 1, 4, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        busy_work((i % 64) * 300);
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t i = 0; i < kTiles; ++i) ASSERT_EQ(hits[i].load(), rounds);
  EXPECT_EQ(total.tasks, static_cast<std::uint64_t>(rounds) * kTiles);
  EXPECT_GT(total.steals, 0u);
  EXPECT_GT(pool.counters().steals, 0u);
}

TEST(CorePool, NestedSubmissionFromInsideATask) {
  CorePool pool(CorePool::Config{.workers = 3});
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 256;
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(kOuter, 1, 1, 3, [&](std::size_t begin, std::size_t end) {
    for (std::size_t o = begin; o < end; ++o) {
      // A worker (or the caller) submitting from inside a task must drain
      // its own deque rather than deadlock waiting on itself.
      pool.parallel_for(kInner, 1, 32, 3, [&](std::size_t b2, std::size_t e2) {
        sum.fetch_add(e2 - b2, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(sum.load(), kOuter * kInner);
}

TEST(CorePool, ThreeLevelNestedSubmissionCoversEveryRange) {
  // Tasks that submit regions whose tasks submit again: every level's tiles
  // are published on a deque a thread is still pushing to.
  CorePool pool(CorePool::Config{.workers = 3});
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kMiddle = 4;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kMiddle * kInner);
  pool.parallel_for(kOuter, 1, 1, 3, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      pool.parallel_for(kMiddle, 1, 1, 3, [&](std::size_t mb, std::size_t me) {
        for (std::size_t m = mb; m < me; ++m) {
          pool.parallel_for(kInner, 1, 8, 3, [&](std::size_t ib, std::size_t ie) {
            for (std::size_t i = ib; i < ie; ++i) {
              hits[(o * kMiddle + m) * kInner + i].fetch_add(1, std::memory_order_relaxed);
            }
          });
        }
      });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(CorePool, CleanShutdownWaitsForQueuedTasks) {
  std::vector<std::atomic<int>> hits(64);
  std::atomic<bool> region_started{false};
  std::atomic<bool> submitted{false};
  auto* pool = new CorePool(CorePool::Config{.workers = 2});
  std::thread submitter([&] {
    pool->parallel_for(hits.size(), 1, 1, 3, [&](std::size_t begin, std::size_t end) {
      region_started.store(true, std::memory_order_release);
      for (std::size_t i = begin; i < end; ++i) {
        busy_work(20000);
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    submitted.store(true, std::memory_order_release);
  });
  // Destroy the pool while the region is in flight (first tile has started,
  // the rest are still queued): the destructor must wait for every queued
  // tile, not abandon them.
  while (!region_started.load(std::memory_order_acquire)) std::this_thread::yield();
  delete pool;
  submitter.join();
  EXPECT_TRUE(submitted.load(std::memory_order_acquire));
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(CorePool, FirstErrorRethrownAndRemainingTilesSkipped) {
  CorePool pool(CorePool::Config{.workers = 4});
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(256, 1, 1, 4, [&](std::size_t begin, std::size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (begin % 3 == 0) throw std::runtime_error("tile failed");
    });
    FAIL() << "expected the tile exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tile failed");
  }
  // At least the throwing tile ran; tiles observed after the failure flag
  // was set are skipped, so a failed region finishes quickly.
  EXPECT_GE(executed.load(), 1);
  EXPECT_LE(executed.load(), 256);
}

TEST(CorePool, SharedInstancePropagatesWorkerExceptionsAcrossManyChunks) {
  // The process-wide pool keeps first-error-rethrown-on-caller semantics for
  // multi-chunk regions (the coarse chunking gather_outputs submits).
  std::atomic<int> executed{0};
  EXPECT_THROW(CorePool::instance().parallel_for(
                   1024, 1, chunk_grain(1024, 1, 8), 8,
                   [&](std::size_t begin, std::size_t end) {
                     executed.fetch_add(1, std::memory_order_relaxed);
                     if (begin >= 512) throw std::invalid_argument("late chunk");
                     (void)end;
                   }),
               std::invalid_argument);
  EXPECT_GE(executed.load(), 1);
}

TEST(CorePool, ZeroCountIsNoop) {
  CorePool pool(CorePool::Config{.workers = 2});
  bool called = false;
  const SchedulerStats stats =
      pool.parallel_for(0, 1, 1, 4, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(stats.tasks, 0u);
}

TEST(CorePool, RejectsZeroAlignment) {
  CorePool pool(CorePool::Config{.workers = 2});
  EXPECT_THROW(pool.parallel_for(10, 0, 1, 2, [](std::size_t, std::size_t) {}),
               std::logic_error);
}

TEST(CorePool, TrailingPartialTileCoversRaggedTail) {
  // A count that is not an align multiple is allowed: interior boundaries
  // stay on align multiples and one short trailing tile covers the rest
  // (the padded tail of a blocked layout).
  CorePool pool(CorePool::Config{.workers = 2});
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  const SchedulerStats stats =
      pool.parallel_for(10, 3, 3, 2, [&](std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        tiles.emplace_back(begin, end);
      });
  std::sort(tiles.begin(), tiles.end());
  const std::vector<std::pair<std::size_t, std::size_t>> expected{
      {0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(tiles, expected);
  EXPECT_EQ(stats.tasks, 4u);
}

TEST(CorePool, NestedErrorDoesNotPoisonOuterRegion) {
  CorePool pool(CorePool::Config{.workers = 3});
  std::atomic<int> outer_done{0};
  std::atomic<int> inner_throws{0};
  pool.parallel_for(8, 1, 1, 3, [&](std::size_t, std::size_t) {
    try {
      pool.parallel_for(8, 1, 1, 3, [&](std::size_t b, std::size_t) {
        if (b == 0) throw std::runtime_error("inner");
      });
    } catch (const std::runtime_error&) {
      inner_throws.fetch_add(1, std::memory_order_relaxed);
    }
    outer_done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(outer_done.load(), 8);
  EXPECT_EQ(inner_throws.load(), 8);
}

TEST(CorePool, SingleWorkerRunsInlineWithoutTouchingThePool) {
  CorePool pool(CorePool::Config{.workers = 4});
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  const SchedulerStats stats =
      pool.parallel_for(1000, 1, 10, 1, [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 1000u);
        ++calls;
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(stats.tasks, 1u);
  EXPECT_EQ(stats.steals, 0u);
  // Inline regions never start the workers, so the pool stays cold.
  EXPECT_EQ(pool.counters().tasks, 0u);
}

TEST(CorePool, CountersTrackWorkAndTopology) {
  CorePool pool(CorePool::Config{.workers = 2});
  EXPECT_EQ(pool.worker_count(), 2u);
  EXPECT_EQ(pool.counters().worker_busy_ns.size(), 2u);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(1024, 1, 8, 2, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1024u);
  const CorePool::CountersSnapshot c = pool.counters();
  EXPECT_EQ(c.tasks, 1024u / 8);
  EXPECT_EQ(c.worker_busy_ns.size(), 2u);
}

TEST(CorePool, MoreWorkersRequestedThanTilesIsFine) {
  CorePool pool(CorePool::Config{.workers = 2});
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(3, 1, 1, 64, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 3u);
}

TEST(CorePool, ManyShortLivedExternalSubmitters) {
  // Slot-registry churn: every submission from a fresh thread registers and
  // unregisters a stack deque; pins must never dangle.
  CorePool pool(CorePool::Config{.workers = 2});
  std::atomic<std::size_t> sum{0};
  for (int round = 0; round < 10; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        pool.parallel_for(64, 1, 4, 3, [&](std::size_t begin, std::size_t end) {
          sum.fetch_add(end - begin, std::memory_order_relaxed);
        });
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(sum.load(), 10u * 8u * 64u);
}

/// Bit-identical output across worker counts: the scheduler may reorder and
/// steal tiles, but every lane's result (and the arranged memory image as a
/// whole) must match the workers = 1 inline run exactly — for every registry
/// algorithm, both plannable arrangements, and the scalar + widest SIMD
/// tiers, through the shared process-wide pool.
TEST(CorePoolEquivalence, BitIdenticalAcrossWorkerCountsEverywhere) {
  const std::size_t p = 65;  // ragged against every tile and vector width
  std::vector<SimdIsa> tiers{SimdIsa::kScalar};
  if (detect_simd_isa() != SimdIsa::kScalar) tiers.push_back(detect_simd_isa());

  for (const algos::Algorithm& algo : algos::registry()) {
    const std::size_t n = algo.test_sizes.front();
    const trace::Program program = algo.make_program(n);
    Rng rng(0xC0DEu ^ n);
    std::vector<Word> inputs;
    for (std::size_t j = 0; j < p; ++j) {
      const auto one = algo.make_input(n, rng);
      inputs.insert(inputs.end(), one.begin(), one.end());
    }
    for (const Arrangement arr : {Arrangement::kRowWise, Arrangement::kColumnWise}) {
      const Layout layout = make_layout(program, p, arr);
      for (const SimdIsa isa : tiers) {
        const HostBulkExecutor serial(
            layout, HostBulkExecutor::Options{
                        .workers = 1, .backend = exec::Backend::kCompiled, .simd = isa});
        const HostBulkExecutor pooled(
            layout, HostBulkExecutor::Options{
                        .workers = 4, .backend = exec::Backend::kCompiled, .simd = isa});
        const HostRunResult a = serial.run(program, inputs);
        const HostRunResult b = pooled.run(program, inputs);
        ASSERT_EQ(a.backend, b.backend);
        ASSERT_EQ(a.memory, b.memory)
            << algo.name << " " << layout.name() << " tier " << to_string(isa);
        EXPECT_EQ(a.counts.total(), b.counts.total()) << algo.name;
        EXPECT_EQ(serial.gather_outputs(program, a.memory),
                  pooled.gather_outputs(program, b.memory))
            << algo.name;
      }
    }
  }
}

/// Gathers below bulk::kFanOutMinWork words run inline; one at the crossover
/// still fans out over the pool and matches the serial gather bit for bit.
TEST(CorePoolEquivalence, GatherAtTheCrossoverFansOutBitIdentically) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  constexpr std::size_t kN = 256;
  const trace::Program program = algo.make_program(kN);
  const std::size_t p = bulk::kFanOutMinWork / program.output_words;
  ASSERT_EQ(std::uint64_t{p} * program.output_words, bulk::kFanOutMinWork);
  Rng rng(0x6A7Eu);
  std::vector<Word> inputs;
  inputs.reserve(p * program.input_words);
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(kN, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  const Layout layout = make_layout(program, p, Arrangement::kColumnWise);
  const HostBulkExecutor serial(layout, HostBulkExecutor::Options{.workers = 1});
  const HostBulkExecutor pooled(layout, HostBulkExecutor::Options{.workers = 4});
  const HostRunResult run = serial.run(program, inputs);
  const std::vector<Word> expected = serial.gather_outputs(program, run.memory);

  CorePool& pool = CorePool::instance();
  const std::uint64_t before = pool.counters().tasks;
  EXPECT_EQ(pooled.gather_outputs(program, run.memory), expected);
  EXPECT_GT(pool.counters().tasks, before) << "a gather at the crossover ran inline";
}

TEST(CorePoolDefaults, DefaultWorkerCountIsPositiveAndAffinityBounded) {
  const unsigned n = default_worker_count();
  EXPECT_GE(n, 1u);
  // Latched: repeated calls agree (the pool sizes itself from this).
  EXPECT_EQ(default_worker_count(), n);
  EXPECT_LE(n, 1024u);
}

TEST(CorePoolDefaults, ChunkGrainIsAPositiveAlignMultiple) {
  for (const std::size_t align : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    for (const unsigned workers : {0u, 1u, 4u, 8u}) {
      for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{100},
                                      std::size_t{4096}, std::size_t{100003}}) {
        const std::size_t g = chunk_grain(count, align, workers);
        ASSERT_GT(g, 0u);
        EXPECT_EQ(g % align, 0u) << "count=" << count << " align=" << align;
        // Enough blocks for ~4 tiles per worker: between 4 and 8 per worker.
        const std::size_t w = std::max(1u, workers);
        if (count / align >= 4 * w) {
          const std::size_t tiles = (count + g - 1) / g;
          EXPECT_GE(tiles, 4 * w) << "count=" << count << " align=" << align;
          EXPECT_LE(tiles, 8 * w + 1) << "count=" << count << " align=" << align;
        } else {
          EXPECT_EQ(g, align) << "count=" << count << " workers=" << workers;
        }
      }
    }
  }
}

TEST(CorePoolDefaults, SharedInstanceIsProcessWideAndDefaultSized) {
  CorePool& pool = CorePool::instance();
  EXPECT_EQ(&CorePool::instance(), &pool);
  EXPECT_EQ(pool.worker_count(), default_worker_count());
}

}  // namespace
