// Multi-threaded stress tests for the latched buffer pool. Run under
// -DDSKS_SANITIZE=thread (tools/check.sh) to prove the absence of data
// races; the assertions here additionally pin down the logical invariants
// (no lost writes, correct contents under eviction pressure, overflow
// draining).
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

/// Deterministic byte pattern for page `id`.
char PatternByte(PageId id, size_t offset) {
  return static_cast<char>((id * 131 + offset * 7 + 3) & 0xFF);
}

void FillPattern(PageId id, char* data) {
  for (size_t i = 0; i < 64; ++i) {
    data[i] = PatternByte(id, i);
  }
}

void ExpectPattern(PageId id, const char* data) {
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(data[i], PatternByte(id, i)) << "page " << id << " offset " << i;
  }
}

// N threads x M iterations of Fetch(read-only verify)/Unpin over a pool
// much smaller than the page set, so evictions and re-reads happen
// constantly. Writers only touch pages they created themselves (the pool
// latches its metadata, not page contents — see the header).
TEST(BufferPoolConcurrencyTest, RandomFetchUnpinNewStress) {
  dsks::testing::TestDisk disk;
  constexpr size_t kSeedPages = 64;
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 2000;

  std::vector<PageId> seeded(kSeedPages);
  BufferPool pool(disk.get(), 8);
  for (size_t i = 0; i < kSeedPages; ++i) {
    char* data = pool.NewPage(&seeded[i]);
    FillPattern(seeded[i], data);
    pool.UnpinPage(seeded[i], /*dirty=*/true);
  }
  pool.FlushAll();
  pool.Clear();

  std::atomic<uint64_t> verified{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &disk, &seeded, &verified, t] {
      Random rng(1234 + t);
      std::vector<PageId> mine;
      for (size_t i = 0; i < kIters; ++i) {
        const uint64_t dice = rng.Uniform(10);
        if (dice < 8) {
          // Read-only fetch of a shared seeded page; verify its pattern.
          const PageId id = seeded[rng.Uniform(kSeedPages)];
          const char* data = dsks::testing::MustFetch(&pool, id);
          ExpectPattern(id, data);
          pool.UnpinPage(id, false);
          verified.fetch_add(1, std::memory_order_relaxed);
        } else if (dice == 8 || mine.empty()) {
          // Create a private page and stamp it (single writer per page).
          PageId id;
          char* data = pool.NewPage(&id);
          FillPattern(id, data);
          pool.UnpinPage(id, /*dirty=*/true);
          mine.push_back(id);
        } else {
          // Re-fetch one of our own pages and verify it round-tripped
          // through eviction/write-back.
          const PageId id = mine[rng.Uniform(mine.size())];
          const char* data = dsks::testing::MustFetch(&pool, id);
          ExpectPattern(id, data);
          pool.UnpinPage(id, false);
          verified.fetch_add(1, std::memory_order_relaxed);
        }
      }
      (void)disk;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_GT(verified.load(), 0u);

  // Stats are relaxed counters but must still balance: every miss did
  // exactly one disk read (checked before the verification reads below).
  EXPECT_EQ(pool.stats().misses.load(), disk->stats().reads.load());

  // Every page — seeded or thread-created — must carry its pattern after a
  // final flush, proving no write-back was lost under concurrency.
  pool.FlushAll();
  char out[kPageSize];
  for (PageId id = 0; id < disk->num_pages(); ++id) {
    disk->ReadPage(id, out);
    ExpectPattern(id, out);
  }
}

// All threads pin simultaneously so the pinned set exceeds capacity: every
// fetch must succeed (overflow frames), and the pool must drain back to
// its target once the pins are released.
TEST(BufferPoolConcurrencyTest, ConcurrentPinOverflowDrains) {
  dsks::testing::TestDisk disk;
  constexpr size_t kThreads = 8;
  constexpr size_t kCapacity = 4;
  std::vector<PageId> pages(kThreads);
  for (PageId& p : pages) p = disk->AllocatePage();
  BufferPool pool(disk.get(), kCapacity);

  std::atomic<size_t> pinned{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &pages, &pinned, t] {
      char* data = dsks::testing::MustFetch(&pool, pages[t]);
      ASSERT_NE(data, nullptr);
      pinned.fetch_add(1);
      // Hold the pin until every thread has one, forcing > capacity pins.
      while (pinned.load() < kThreads) {
        std::this_thread::yield();
      }
      data[0] = static_cast<char>(t);
      pool.UnpinPage(pages[t], /*dirty=*/true);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_LE(pool.num_frames_in_use(), kCapacity);
  pool.FlushAll();
  char out[kPageSize];
  for (size_t t = 0; t < kThreads; ++t) {
    disk->ReadPage(pages[t], out);
    EXPECT_EQ(out[0], static_cast<char>(t));
  }
}

// Concurrent misses on the same cold page: exactly one thread performs the
// disk read (the others wait on the in-flight frame), and all observe the
// same contents.
TEST(BufferPoolConcurrencyTest, ConcurrentMissesOnSamePageReadOnce) {
  dsks::testing::TestDisk disk;
  const PageId page = disk->AllocatePage();
  {
    BufferPool seeder(disk.get(), 2);
    char* data = dsks::testing::MustFetch(&seeder, page);
    FillPattern(page, data);
    seeder.UnpinPage(page, /*dirty=*/true);
    seeder.FlushAll();
  }
  disk->mutable_stats()->Reset();

  BufferPool pool(disk.get(), 4);
  constexpr size_t kThreads = 8;
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &ready, page] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      const char* data = dsks::testing::MustFetch(&pool, page);
      ExpectPattern(page, data);
      pool.UnpinPage(page, false);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // The page stayed resident throughout, so it was read exactly once.
  EXPECT_EQ(disk->stats().reads.load(), 1u);
  EXPECT_EQ(pool.stats().misses.load(), 1u);
  EXPECT_EQ(pool.stats().hits.load(), kThreads - 1);
}

/// Overlapping FetchPages (distinct ids), FetchPage and Prefetch calls from
/// 4 threads on a pool of 8 frames over 64 stamped pages, with a yielding
/// read delay so reads overlap and in-flight frames are waited on. With
/// `read_fault_p` > 0 some demand fetches fail; a failed call must leave
/// nothing pinned. Returns the number of failed demand calls.
uint64_t RunMergedDemandPathStress(double read_fault_p) {
  dsks::testing::TestDisk disk;
  constexpr size_t kPages = 64;
  constexpr size_t kThreads = 4;
  constexpr size_t kIters = 400;
  constexpr size_t kMaxBatch = 6;
  char page[kPageSize] = {};
  for (size_t i = 0; i < kPages; ++i) {
    const PageId id = disk->AllocatePage();
    FillPattern(id, page);
    EXPECT_TRUE(disk->WritePage(id, page).ok());
  }
  disk->set_read_delay_us(20);
  disk->set_read_delay_yields(true);
  FaultInjector::Config faults;
  faults.read_fault_p = read_fault_p;
  faults.seed = 17;
  if (read_fault_p > 0) {
    disk->fault_injector()->Configure(faults);
  }
  BufferPool pool(disk.get(), 8);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failures, t] {
      Random rng(99 + t);
      std::vector<PageId> ids;
      std::vector<char*> outs;
      for (size_t it = 0; it < kIters; ++it) {
        // Distinct ids: a random start and an odd stride over 64 pages.
        const size_t n = 1 + rng.Uniform(kMaxBatch);
        const PageId start = static_cast<PageId>(rng.Uniform(kPages));
        const PageId stride = static_cast<PageId>(1 + 2 * rng.Uniform(4));
        ids.clear();
        for (size_t i = 0; i < n; ++i) {
          ids.push_back((start + i * stride) % kPages);
        }
        outs.assign(n, nullptr);
        switch (rng.Uniform(3)) {
          case 0:
            pool.Prefetch(ids);
            continue;
          case 1: {
            char* data = nullptr;
            if (!pool.FetchPage(ids[0], &data).ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            ExpectPattern(ids[0], data);
            pool.UnpinPage(ids[0], /*dirty=*/false);
            continue;
          }
          default:
            break;
        }
        if (!pool.FetchPages(ids, outs).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          for (char* out : outs) {
            EXPECT_EQ(out, nullptr) << "failed FetchPages left a pin";
          }
          continue;
        }
        for (size_t i = 0; i < n; ++i) {
          ExpectPattern(ids[i], outs[i]);
        }
        for (PageId id : ids) {
          pool.UnpinPage(id, /*dirty=*/false);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Clear CHECK-fails on any pinned page, so returning proves no pin
  // leaked; it also resolves every prefetched flag (as wasted).
  EXPECT_TRUE(pool.Clear().ok());
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.prefetch_issued, 0u);
  EXPECT_EQ(s.prefetch_issued,
            s.prefetch_hits + s.prefetch_wasted + s.prefetch_dropped);
  if (read_fault_p == 0) {
    // Every demand miss is exactly one disk read; prefetches add theirs.
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(disk->stats().reads.load(),
              s.misses + s.prefetch_issued - s.prefetch_dropped);
  }
  return failures.load();
}

TEST(BufferPoolConcurrencyTest, MergedDemandPathStress) {
  RunMergedDemandPathStress(/*read_fault_p=*/0.0);
}

TEST(BufferPoolConcurrencyTest, MergedDemandPathStressWithReadFaults) {
  EXPECT_GT(RunMergedDemandPathStress(/*read_fault_p=*/0.02), 0u);
}

}  // namespace
}  // namespace dsks
