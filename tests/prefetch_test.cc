// Batched I/O and speculative prefetch: the DiskManager batch read must be
// observationally identical to a sequential ReadPage loop; FetchPages must
// be all-or-nothing; Prefetch must never surface a failure to a query; the
// prefetch lifecycle counters must telescope (issued = hits + wasted +
// dropped at quiescence); and whole-query results must be bit-identical
// with prefetching on or off. Runs against the env-selected backend
// (DSKS_TEST_BACKEND), so check.sh drills both sim and file.
#include <atomic>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "common/status.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

Workload MakeWorkload(const Database& db, size_t n, uint64_t seed) {
  WorkloadConfig wc;
  wc.num_queries = n;
  wc.num_keywords = 2;
  wc.seed = seed;
  return GenerateWorkload(db.objects(), db.term_stats(), wc);
}

/// Allocates `n` pages filled with a per-page pattern, written through the
/// disk manager so checksums are recorded.
void FillPages(DiskManager* disk, size_t n) {
  std::vector<char> buf(kPageSize);
  for (size_t i = 0; i < n; ++i) {
    const PageId id = disk->AllocatePage();
    std::memset(buf.data(), static_cast<int>('A' + (i % 23)), kPageSize);
    ASSERT_TRUE(disk->WritePage(id, buf.data()).ok());
  }
}

// --- DiskManager batch reads ----------------------------------------------

TEST(BatchReadTest, BatchMatchesSequentialReads) {
  testing::TestDisk disk("batch");
  constexpr size_t kPages = 40;
  FillPages(disk.get(), kPages);

  // A batch mixing contiguous runs, gaps and descending order: the run
  // coalescer must not assume sorted input.
  const PageId ids[] = {0, 1, 2, 3, 10, 11, 7, 39, 38, 20};
  constexpr size_t kBatch = sizeof(ids) / sizeof(ids[0]);
  std::vector<char> batch_buf(kBatch * kPageSize);
  std::vector<PageReadRequest> reqs(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    reqs[i].id = ids[i];
    reqs[i].out = batch_buf.data() + i * kPageSize;
  }
  disk->ReadPages(std::span<PageReadRequest>(reqs));

  std::vector<char> single(kPageSize);
  for (size_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(reqs[i].status.ok()) << "page " << ids[i];
    ASSERT_TRUE(disk->ReadPage(ids[i], single.data()).ok());
    EXPECT_EQ(std::memcmp(reqs[i].out, single.data(), kPageSize), 0)
        << "page " << ids[i];
  }
  EXPECT_EQ(disk->stats_snapshot().reads, kBatch + kBatch)
      << "each batched page accounts one read, like the sequential loop";
}

TEST(BatchReadTest, PerPageFaultsDoNotPoisonBatchMates) {
  testing::TestDisk disk("batchfault");
  constexpr size_t kPages = 8;
  FillPages(disk.get(), kPages);

  disk->fault_injector()->FailPageReads(3, 1);
  std::vector<char> buf(kPages * kPageSize);
  std::vector<PageReadRequest> reqs(kPages);
  for (size_t i = 0; i < kPages; ++i) {
    reqs[i].id = static_cast<PageId>(i);
    reqs[i].out = buf.data() + i * kPageSize;
  }
  disk->ReadPages(std::span<PageReadRequest>(reqs));

  std::vector<char> single(kPageSize);
  for (size_t i = 0; i < kPages; ++i) {
    if (i == 3) {
      EXPECT_TRUE(reqs[i].status.IsIOError());
      continue;
    }
    ASSERT_TRUE(reqs[i].status.ok()) << "page " << i;
    ASSERT_TRUE(disk->ReadPage(reqs[i].id, single.data()).ok());
    EXPECT_EQ(std::memcmp(reqs[i].out, single.data(), kPageSize), 0);
  }
}

// --- FetchPages -----------------------------------------------------------

TEST(FetchPagesTest, PinsEveryPageAndReadsOnce) {
  testing::TestDisk disk("fetchpages");
  constexpr size_t kPages = 12;
  FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages + 4);

  PageId ids[kPages];
  char* outs[kPages];
  for (size_t i = 0; i < kPages; ++i) {
    ids[i] = static_cast<PageId>(i);
  }
  ASSERT_TRUE(pool.FetchPages(std::span<const PageId>(ids, kPages),
                              std::span<char*>(outs, kPages))
                  .ok());
  for (size_t i = 0; i < kPages; ++i) {
    ASSERT_NE(outs[i], nullptr);
    EXPECT_EQ(outs[i][0], static_cast<char>('A' + (i % 23)));
    pool.UnpinPage(ids[i], /*dirty=*/false);
  }
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.misses, kPages);
  EXPECT_EQ(s.hits, 0u);
  ASSERT_TRUE(pool.Clear().ok()) << "nothing may remain pinned";
}

TEST(FetchPagesTest, FailureUnpinsEverything) {
  testing::TestDisk disk("fetchfail");
  constexpr size_t kPages = 6;
  FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages + 2);

  disk->fault_injector()->FailPageReads(4, 1);
  PageId ids[kPages];
  char* outs[kPages];
  for (size_t i = 0; i < kPages; ++i) {
    ids[i] = static_cast<PageId>(i);
  }
  const Status s = pool.FetchPages(std::span<const PageId>(ids, kPages),
                                   std::span<char*>(outs, kPages));
  EXPECT_TRUE(s.IsIOError());
  // All-or-nothing: Clear() CHECK-fails on any leaked pin, so passing here
  // proves the rollback released every page the call had pinned.
  ASSERT_TRUE(pool.Clear().ok());

  // The fault was consumed by the failed batch; a retry succeeds.
  ASSERT_TRUE(pool.FetchPages(std::span<const PageId>(ids, kPages),
                              std::span<char*>(outs, kPages))
                  .ok());
  for (size_t i = 0; i < kPages; ++i) {
    pool.UnpinPage(ids[i], /*dirty=*/false);
  }
}

// --- Prefetch -------------------------------------------------------------

TEST(PrefetchTest, CountersTelescope) {
  testing::TestDisk disk("telescope");
  constexpr size_t kPages = 16;
  FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages + 4);

  PageId ids[kPages];
  for (size_t i = 0; i < kPages; ++i) {
    ids[i] = static_cast<PageId>(i);
  }
  pool.Prefetch(std::span<const PageId>(ids, kPages));
  BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_issued, kPages);
  EXPECT_EQ(s.misses, 0u) << "speculative reads are not demand misses";

  // Demand-touch the first half: those become prefetch hits.
  for (size_t i = 0; i < kPages / 2; ++i) {
    char* data = testing::MustFetch(&pool, ids[i]);
    EXPECT_EQ(data[0], static_cast<char>('A' + (i % 23)));
    pool.UnpinPage(ids[i], /*dirty=*/false);
  }
  // Drop the rest untouched: those count as wasted.
  ASSERT_TRUE(pool.Clear().ok());

  s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_hits, kPages / 2);
  EXPECT_EQ(s.prefetch_wasted, kPages - kPages / 2);
  EXPECT_EQ(s.prefetch_dropped, 0u);
  EXPECT_EQ(s.prefetch_issued,
            s.prefetch_hits + s.prefetch_wasted + s.prefetch_dropped);
}

TEST(PrefetchTest, InjectedFaultIsDroppedAndNeverFailsTheDemandFetch) {
  testing::TestDisk disk("prefault");
  constexpr size_t kPages = 4;
  FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages + 2);

  // The speculative read of page 2 fails; Prefetch must swallow it.
  disk->fault_injector()->FailPageReads(2, 1);
  PageId ids[kPages] = {0, 1, 2, 3};
  pool.Prefetch(std::span<const PageId>(ids, kPages));

  BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_issued, kPages);
  EXPECT_EQ(s.prefetch_dropped, 1u);

  // The demand fetch retries from scratch (the one-shot fault is spent)
  // and returns the right bytes — the query never sees the dropped read.
  char* data = nullptr;
  ASSERT_TRUE(pool.FetchPage(2, &data).ok());
  EXPECT_EQ(data[0], static_cast<char>('A' + 2));
  pool.UnpinPage(2, /*dirty=*/false);

  ASSERT_TRUE(pool.Clear().ok());
  s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_issued,
            s.prefetch_hits + s.prefetch_wasted + s.prefetch_dropped);
}

// At-rest corruption reached first by a speculative read: the CRC verify
// in the batched read catches it, the poisoned frame is dropped (never
// published), its batch mates are published normally, and the demand
// fetch reports Corruption instead of serving bad bytes.
TEST(PrefetchTest, CorruptPageIsDroppedAndDemandFetchReportsCorruption) {
  testing::TestDisk disk("precorrupt");
  constexpr size_t kPages = 4;
  FillPages(disk.get(), kPages);
  disk->CorruptStoredPage(2, /*bit_index=*/12345);
  BufferPool pool(disk.get(), kPages + 2);

  PageId ids[kPages] = {0, 1, 2, 3};
  pool.Prefetch(std::span<const PageId>(ids, kPages));
  BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_issued, kPages);
  EXPECT_EQ(s.prefetch_dropped, 1u);
  EXPECT_GE(disk->stats_snapshot().corruptions_detected, 1u);

  char* data = nullptr;
  EXPECT_TRUE(pool.FetchPage(2, &data).IsCorruption());
  for (PageId id : {PageId{0}, PageId{1}, PageId{3}}) {
    data = testing::MustFetch(&pool, id);
    EXPECT_EQ(data[0], static_cast<char>('A' + id)) << "page " << id;
    pool.UnpinPage(id, /*dirty=*/false);
  }
  s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_hits, 3u) << "the healthy batch mates were published";
  ASSERT_TRUE(pool.Clear().ok());
}

TEST(PrefetchTest, DisabledPrefetchIsANoOp) {
  testing::TestDisk disk("predisabled");
  constexpr size_t kPages = 4;
  FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages + 2);
  pool.set_prefetch_enabled(false);

  PageId ids[kPages] = {0, 1, 2, 3};
  pool.Prefetch(std::span<const PageId>(ids, kPages));
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_issued, 0u);
  EXPECT_EQ(disk->stats_snapshot().reads, 0u);
}

TEST(PrefetchTest, SkipsResidentAndUnallocatedPages) {
  testing::TestDisk disk("preskip");
  constexpr size_t kPages = 4;
  FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages + 2);

  char* data = testing::MustFetch(&pool, 1);  // page 1 resident and pinned
  PageId ids[] = {1, 3, 999};                 // resident, cold, unallocated
  pool.Prefetch(std::span<const PageId>(ids, 3));
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_issued, 1u) << "only the cold allocated page";
  (void)data;
  pool.UnpinPage(1, /*dirty=*/false);
  ASSERT_TRUE(pool.Clear().ok());
}

// Regression: a Prefetch naming a page whose frame is currently pinned
// *and* dirty must be a counted no-op (prefetch_dropped), never a queued
// read — a speculative disk read of a page the writer is mutating would
// race the write-back and could clobber the frame with stale bytes.
TEST(PrefetchTest, PinnedDirtyPageIsACountedNoOp) {
  testing::TestDisk disk("predirty");
  constexpr size_t kPages = 4;
  FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages + 2);

  // Make page 1 resident, dirty, and pinned: fetch, unpin dirty, re-pin.
  char* data = testing::MustFetch(&pool, 1);
  data[0] = 'z';
  pool.UnpinPage(1, /*dirty=*/true);
  data = testing::MustFetch(&pool, 1);

  const uint64_t reads_before = disk->stats_snapshot().reads;
  const BufferPoolStatsSnapshot before = pool.stats_snapshot();
  PageId ids[] = {1};
  pool.Prefetch(std::span<const PageId>(ids, 1));

  const BufferPoolStatsSnapshot after = pool.stats_snapshot();
  EXPECT_EQ(after.prefetch_issued, before.prefetch_issued + 1);
  EXPECT_EQ(after.prefetch_dropped, before.prefetch_dropped + 1);
  EXPECT_EQ(disk->stats_snapshot().reads, reads_before)
      << "the refusal must not touch the disk";
  EXPECT_EQ(data[0], 'z') << "the writer's bytes survive";

  pool.UnpinPage(1, /*dirty=*/false);
  ASSERT_TRUE(pool.Clear().ok());
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_issued,
            s.prefetch_hits + s.prefetch_wasted + s.prefetch_dropped);
}

// An 8-thread mix of Prefetch, demand fetches and capacity-pressure
// eviction over a pool much smaller than the page set. Run under TSan by
// check.sh; the assertions here are liveness plus the telescoping
// invariant at quiescence.
TEST(PrefetchTest, ConcurrentPrefetchFetchEvictionStress) {
  testing::TestDisk disk("prestress");
  constexpr size_t kPages = 64;
  FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), 8);  // heavy eviction pressure

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<uint32_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9E3779B9u * static_cast<uint64_t>(t + 1);
      auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<size_t>(rng >> 33);
      };
      for (int r = 0; r < kRounds; ++r) {
        if (t % 2 == 0) {
          PageId ids[4];
          for (PageId& id : ids) {
            id = static_cast<PageId>(next() % kPages);
          }
          // Prefetch tolerates duplicate ids (unlike FetchPages).
          pool.Prefetch(std::span<const PageId>(ids, 4));
        } else {
          const PageId id = static_cast<PageId>(next() % kPages);
          char* data = nullptr;
          if (!pool.FetchPage(id, &data).ok()) {
            errors.fetch_add(1);
            continue;
          }
          if (data[0] != static_cast<char>('A' + (id % 23))) {
            errors.fetch_add(1);
          }
          pool.UnpinPage(id, /*dirty=*/false);
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0u);
  ASSERT_TRUE(pool.Clear().ok());
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.prefetch_issued,
            s.prefetch_hits + s.prefetch_wasted + s.prefetch_dropped);
}

// --- whole-query equivalence ----------------------------------------------

// SK, ranked and diversified results must be bit-identical with prefetch
// on vs off: prefetching only moves pages into the pool earlier, it never
// changes what any read returns. The dataset is sized so expansions pass
// the frontier-prefetch interval (>32 settled nodes per query) — on the
// tiny preset no prefetch would fire and the test would vacuously pass.
TEST(PrefetchQueryTest, ResultsBitIdenticalPrefetchOnOff) {
  DatasetConfig config = ScalePreset(PresetSYN(), 0.2);
  config.objects.keywords_per_object = 6;
  testing::BackendDatabase bdb(config, "preequiv");
  Database& db = *bdb;
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();
  const Workload wl = MakeWorkload(db, 16, 41);

  struct Run {
    std::vector<std::vector<SkResult>> sk;
    std::vector<std::vector<RankedResult>> ranked;
    std::vector<std::vector<ObjectId>> div;
  };
  Run runs[2];
  uint64_t issued[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    const bool prefetch_on = mode == 0;
    db.SetPrefetchEnabled(prefetch_on);
    ASSERT_TRUE(db.pool()->Clear().ok());  // same cold start for both
    db.ResetCounters();
    for (const WorkloadQuery& wq : wl.queries) {
      std::vector<SkResult> sk;
      ASSERT_TRUE(db.RunSkQuery(wq.sk, wq.edge, &sk).ok());
      runs[mode].sk.push_back(std::move(sk));

      RankedQuery rq;
      rq.sk = wq.sk;
      rq.k = 8;
      std::vector<RankedResult> ranked;
      ASSERT_TRUE(db.RunRankedQuery(rq, wq.edge, &ranked).ok());
      runs[mode].ranked.push_back(std::move(ranked));

      DivQuery dq;
      dq.sk = wq.sk;
      dq.k = 4;
      dq.lambda = 0.8;
      DivSearchOutput div;
      ASSERT_TRUE(db.RunDivQuery(dq, wq.edge, /*use_com=*/true, &div).ok());
      std::vector<ObjectId> selected;
      for (const SkResult& r : div.selected) {
        selected.push_back(r.id);
      }
      runs[mode].div.push_back(std::move(selected));
    }
    issued[mode] = db.pool()->stats_snapshot().prefetch_issued;
  }
  EXPECT_GT(issued[0], 0u) << "the prefetch run must actually prefetch";
  EXPECT_EQ(issued[1], 0u) << "the control run must not";

  for (size_t q = 0; q < wl.queries.size(); ++q) {
    ASSERT_EQ(runs[0].sk[q].size(), runs[1].sk[q].size()) << "query " << q;
    for (size_t i = 0; i < runs[0].sk[q].size(); ++i) {
      EXPECT_EQ(runs[0].sk[q][i].id, runs[1].sk[q][i].id);
      EXPECT_EQ(std::memcmp(&runs[0].sk[q][i].dist, &runs[1].sk[q][i].dist,
                            sizeof(double)),
                0)
          << "query " << q << " result " << i;
    }
    ASSERT_EQ(runs[0].ranked[q].size(), runs[1].ranked[q].size());
    for (size_t i = 0; i < runs[0].ranked[q].size(); ++i) {
      EXPECT_EQ(runs[0].ranked[q][i].id, runs[1].ranked[q][i].id);
      EXPECT_EQ(std::memcmp(&runs[0].ranked[q][i].score,
                            &runs[1].ranked[q][i].score, sizeof(double)),
                0);
    }
    EXPECT_EQ(runs[0].div[q], runs[1].div[q]) << "query " << q;
  }
}

}  // namespace
}  // namespace dsks
