#include <cstring>
#include <string>

#include "common/status.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
}

TEST(DiskManagerTest, AllocateReadWriteRoundTrip) {
  dsks::testing::TestDisk disk;
  const PageId a = disk->AllocatePage();
  const PageId b = disk->AllocatePage();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(disk->num_pages(), 2u);
  EXPECT_EQ(disk->size_bytes(), 2 * kPageSize);

  char buf[kPageSize];
  std::memset(buf, 0xAB, kPageSize);
  disk->WritePage(b, buf);
  char out[kPageSize];
  disk->ReadPage(b, out);
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);

  // Fresh pages are zeroed.
  disk->ReadPage(a, out);
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(out[i], 0) << "at offset " << i;
  }
  EXPECT_EQ(disk->stats().reads, 2u);
  EXPECT_EQ(disk->stats().writes, 1u);
  EXPECT_EQ(disk->stats().allocations, 2u);
}

TEST(BufferPoolTest, HitAndMissAccounting) {
  dsks::testing::TestDisk disk;
  const PageId p = disk->AllocatePage();
  BufferPool pool(disk.get(), 4);

  char* data = dsks::testing::MustFetch(&pool, p);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.UnpinPage(p, false);

  dsks::testing::MustFetch(&pool, p);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.UnpinPage(p, false);
  EXPECT_DOUBLE_EQ(pool.stats().hit_rate(), 0.5);
}

TEST(BufferPoolTest, StatsSnapshotAndReset) {
  dsks::testing::TestDisk disk;
  const PageId p = disk->AllocatePage();
  BufferPool pool(disk.get(), 4);
  dsks::testing::MustFetch(&pool, p);
  pool.UnpinPage(p, false);
  dsks::testing::MustFetch(&pool, p);
  pool.UnpinPage(p, false);

  // One plain-struct read of all counters together.
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.accesses(), 2u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);

  const DiskStatsSnapshot d = disk->stats_snapshot();
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.allocations, 1u);

  // Reset zeroes the counters so the next phase measures a pure delta.
  pool.ResetStats();
  disk->ResetStats();
  EXPECT_EQ(pool.stats_snapshot().accesses(), 0u);
  EXPECT_DOUBLE_EQ(pool.stats_snapshot().hit_rate(), 0.0);
  EXPECT_EQ(disk->stats_snapshot().reads, 0u);
  dsks::testing::MustFetch(&pool, p);
  pool.UnpinPage(p, false);
  EXPECT_EQ(pool.stats_snapshot().hits, 1u);
  EXPECT_EQ(pool.stats_snapshot().misses, 0u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  dsks::testing::TestDisk disk;
  PageId pages[3];
  for (PageId& p : pages) p = disk->AllocatePage();
  BufferPool pool(disk.get(), 2);

  dsks::testing::MustFetch(&pool, pages[0]);
  pool.UnpinPage(pages[0], false);
  dsks::testing::MustFetch(&pool, pages[1]);
  pool.UnpinPage(pages[1], false);
  // Touch page 0 so page 1 becomes the LRU victim.
  dsks::testing::MustFetch(&pool, pages[0]);
  pool.UnpinPage(pages[0], false);

  dsks::testing::MustFetch(&pool, pages[2]);  // evicts pages[1]
  pool.UnpinPage(pages[2], false);
  EXPECT_EQ(pool.stats().evictions, 1u);

  // pages[0] must still be cached, pages[1] must not.
  const uint64_t misses_before = pool.stats().misses;
  dsks::testing::MustFetch(&pool, pages[0]);
  pool.UnpinPage(pages[0], false);
  EXPECT_EQ(pool.stats().misses, misses_before);
  dsks::testing::MustFetch(&pool, pages[1]);
  pool.UnpinPage(pages[1], false);
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  dsks::testing::TestDisk disk;
  const PageId a = disk->AllocatePage();
  const PageId b = disk->AllocatePage();
  BufferPool pool(disk.get(), 1);

  char* data = dsks::testing::MustFetch(&pool, a);
  data[0] = 'x';
  pool.UnpinPage(a, /*dirty=*/true);

  dsks::testing::MustFetch(&pool, b);  // evicts a, forcing the write-back
  pool.UnpinPage(b, false);

  char out[kPageSize];
  disk->ReadPage(a, out);
  EXPECT_EQ(out[0], 'x');
}

TEST(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  dsks::testing::TestDisk disk;
  PageId pages[4];
  for (PageId& p : pages) p = disk->AllocatePage();
  BufferPool pool(disk.get(), 2);

  char* pinned = dsks::testing::MustFetch(&pool, pages[0]);
  pinned[1] = 'p';
  // Cycle other pages through the remaining frame.
  for (int round = 0; round < 3; ++round) {
    for (int i = 1; i < 4; ++i) {
      dsks::testing::MustFetch(&pool, pages[i]);
      pool.UnpinPage(pages[i], false);
    }
  }
  // The pinned frame was never evicted: the pointer still works.
  EXPECT_EQ(pinned[1], 'p');
  pool.UnpinPage(pages[0], true);
}

TEST(BufferPoolTest, NewPageIsPinnedAndZeroed) {
  dsks::testing::TestDisk disk;
  BufferPool pool(disk.get(), 2);
  PageId id;
  char* data = pool.NewPage(&id);
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(data[i], 0);
  }
  data[7] = 'z';
  pool.UnpinPage(id, true);
  pool.FlushAll();
  char out[kPageSize];
  disk->ReadPage(id, out);
  EXPECT_EQ(out[7], 'z');
}

TEST(BufferPoolTest, SetCapacityEvictsDown) {
  dsks::testing::TestDisk disk;
  BufferPool pool(disk.get(), 8);
  for (int i = 0; i < 8; ++i) {
    PageId id;
    pool.NewPage(&id);
    pool.UnpinPage(id, true);
  }
  EXPECT_EQ(pool.num_frames_in_use(), 8u);
  pool.SetCapacity(2);
  EXPECT_LE(pool.num_frames_in_use(), 2u);
  EXPECT_EQ(pool.stats().evictions, 6u);
}

TEST(BufferPoolTest, ClearDropsCleanAndDirtyFrames) {
  dsks::testing::TestDisk disk;
  BufferPool pool(disk.get(), 4);
  PageId id;
  char* data = pool.NewPage(&id);
  data[0] = 'c';
  pool.UnpinPage(id, true);
  pool.Clear();
  EXPECT_EQ(pool.num_frames_in_use(), 0u);
  char out[kPageSize];
  disk->ReadPage(id, out);
  EXPECT_EQ(out[0], 'c');  // dirty content persisted
}

// Regression: fetching capacity+1 pages with every frame pinned used to
// CHECK-fail ("buffer pool exhausted"); the pool now over-allocates
// temporary frames and trims back as pins drain.
TEST(BufferPoolTest, AllPinnedOverflowsInsteadOfAborting) {
  dsks::testing::TestDisk disk;
  constexpr size_t kCapacity = 2;
  PageId pages[kCapacity + 1];
  for (PageId& p : pages) p = disk->AllocatePage();
  BufferPool pool(disk.get(), kCapacity);

  char* data[kCapacity + 1];
  for (size_t i = 0; i <= kCapacity; ++i) {
    data[i] = dsks::testing::MustFetch(&pool, pages[i]);
    ASSERT_NE(data[i], nullptr);
    data[i][0] = static_cast<char>('a' + i);
  }
  // All capacity+1 pages are pinned simultaneously: the pool ran over its
  // target instead of aborting, and every pointer is usable.
  EXPECT_EQ(pool.num_frames_in_use(), kCapacity + 1);
  for (size_t i = 0; i <= kCapacity; ++i) {
    EXPECT_EQ(data[i][0], static_cast<char>('a' + i));
    pool.UnpinPage(pages[i], /*dirty=*/true);
  }
  // Unpinning drained the overflow back to the capacity target.
  EXPECT_LE(pool.num_frames_in_use(), kCapacity);
  // Overflow eviction wrote the dirty overflow frame back.
  pool.FlushAll();
  char out[kPageSize];
  for (size_t i = 0; i <= kCapacity; ++i) {
    disk->ReadPage(pages[i], out);
    EXPECT_EQ(out[0], static_cast<char>('a' + i)) << "page " << i;
  }
}

// Regression: shrinking below the pinned set used to CHECK-fail; the
// shrink is now deferred and completes as pins drain.
TEST(BufferPoolTest, SetCapacityBelowPinnedSetDefersShrink) {
  dsks::testing::TestDisk disk;
  PageId pages[3];
  for (PageId& p : pages) p = disk->AllocatePage();
  BufferPool pool(disk.get(), 4);

  for (PageId p : pages) {
    dsks::testing::MustFetch(&pool, p);  // pinned
  }
  pool.SetCapacity(1);  // survives: 3 pages are pinned
  EXPECT_EQ(pool.capacity(), 1u);
  EXPECT_EQ(pool.num_frames_in_use(), 3u);

  pool.UnpinPage(pages[0], false);
  EXPECT_EQ(pool.num_frames_in_use(), 2u);  // one evicted, two still pinned
  pool.UnpinPage(pages[1], false);
  pool.UnpinPage(pages[2], false);
  EXPECT_LE(pool.num_frames_in_use(), 1u);
}

// A threadsafe-style death test re-runs the whole test body in a child
// process, so the child builds a TestDisk of its own and aborts before its
// destructor can remove the files. The child unlinks them first; its open
// descriptors keep the backend usable up to the fatal call.
void UnlinkBeforeDying(const dsks::testing::TestDisk& disk) {
  dsks::testing::RemoveDiskFiles(disk.options());
}

TEST(BufferPoolDeathTest, DoubleUnpinIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  dsks::testing::TestDisk disk;
  const PageId a = disk->AllocatePage();
  BufferPool pool(disk.get(), 2);
  dsks::testing::MustFetch(&pool, a);
  pool.UnpinPage(a, false);
  EXPECT_DEATH(
      {
        UnlinkBeforeDying(disk);
        pool.UnpinPage(a, false);
      },
      "unpin of unpinned page");
}

TEST(DiskManagerDeathTest, ReadOfUnallocatedPageIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  dsks::testing::TestDisk disk;
  char buf[kPageSize];
  // Under DSKS_TEST_BACKEND=file this reaches FileDiskBackend's own
  // "read of unallocated page" CHECK through the still-open descriptor.
  EXPECT_DEATH(
      {
        UnlinkBeforeDying(disk);
        disk->ReadPage(7, buf);
      },
      "unallocated");
}

TEST(PageGuardTest, ReleasesOnDestruction) {
  dsks::testing::TestDisk disk;
  const PageId a = disk->AllocatePage();
  BufferPool pool(disk.get(), 1);
  {
    PageGuard guard = FetchForBuild(&pool, a);
    ASSERT_TRUE(guard.valid());
    guard.data()[3] = 'g';
    guard.MarkDirty();
  }
  // The pin is gone: the single frame can be reused.
  PageId b = disk->AllocatePage();
  PageGuard other = FetchForBuild(&pool, b);
  EXPECT_TRUE(other.valid());
  other.Release();
  char out[kPageSize];
  pool.FlushAll();
  disk->ReadPage(a, out);
  EXPECT_EQ(out[3], 'g');
}

TEST(PageGuardTest, MoveTransfersOwnership) {
  dsks::testing::TestDisk disk;
  const PageId a = disk->AllocatePage();
  BufferPool pool(disk.get(), 2);
  PageGuard g1 = FetchForBuild(&pool, a);
  PageGuard g2 = std::move(g1);
  EXPECT_FALSE(g1.valid());  // NOLINT(bugprone-use-after-move): intended
  EXPECT_TRUE(g2.valid());
  EXPECT_EQ(g2.id(), a);
}

}  // namespace
}  // namespace dsks
