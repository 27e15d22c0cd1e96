#include "probes.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "obs/io_account.h"

namespace perfbench {

using dsks::PageId;

namespace {

/// `count` distinct page ids from [0, num_pages) in seeded random order.
std::vector<PageId> ShuffledPages(size_t num_pages, size_t count,
                                  uint64_t seed) {
  std::vector<PageId> ids(num_pages);
  std::iota(ids.begin(), ids.end(), PageId{0});
  dsks::Random rng(seed);
  for (size_t i = 0; i < std::min(count, num_pages); ++i) {
    std::swap(ids[i], ids[i + rng.Uniform(num_pages - i)]);
  }
  ids.resize(std::min(count, num_pages));
  return ids;
}

}  // namespace

double ProbeFetchHitNs(dsks::BufferPool* pool, size_t num_pages,
                       size_t threads, uint64_t seed, double seconds,
                       std::string* error) {
  constexpr size_t kBatch = 512;
  // Half the pool at most, so the working pages never evict each other.
  const size_t per_thread = std::max<size_t>(
      1, std::min<size_t>(64, pool->capacity() / (2 * threads)));
  const std::vector<PageId> pages =
      ShuffledPages(num_pages, per_thread * threads, seed);
  std::mutex mu;
  std::vector<double> batch_ns;  // guarded by mu
  std::atomic<size_t> warmed{0};
  std::atomic<bool> failed{false};
  auto body = [&](size_t t) {
    const size_t begin = std::min(pages.size(), t * per_thread);
    const size_t end = std::min(pages.size(), begin + per_thread);
    char* data = nullptr;
    for (size_t i = begin; i < end; ++i) {
      if (!pool->FetchPage(pages[i], &data).ok()) {
        failed = true;
      } else {
        pool->UnpinPage(pages[i], false);
      }
    }
    warmed.fetch_add(1);
    while (warmed.load() < threads) {
      std::this_thread::yield();
    }
    if (begin == end) {
      return;
    }
    // The thread's own I/O account shows whether any timed fetch missed.
    dsks::obs::IoCounters account;
    dsks::obs::ScopedIoAccount scope(&account);
    std::vector<double> local;
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    size_t next = begin;
    while (NowNs() < deadline) {
      const int64_t t0 = NowNs();
      for (size_t k = 0; k < kBatch; ++k) {
        const PageId id = pages[next];
        next = next + 1 == end ? begin : next + 1;
        if (!pool->FetchPage(id, &data).ok()) {
          failed = true;
          continue;
        }
        pool->UnpinPage(id, false);
      }
      local.push_back(static_cast<double>(NowNs() - t0) / kBatch);
    }
    if (account.pool_misses != 0) {
      failed = true;
    }
    std::lock_guard<std::mutex> lock(mu);
    batch_ns.insert(batch_ns.end(), local.begin(), local.end());
  };
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back(body, t);
  }
  for (std::thread& w : workers) {
    w.join();
  }
  if (failed) {
    *error = "fetch-hit probe: a timed fetch failed or missed";
  }
  return Median(std::move(batch_ns));
}

double ProbeFetchMissUs(dsks::BufferPool* pool, size_t num_pages,
                        uint64_t seed, size_t samples, std::string* error) {
  if (!pool->Clear().ok()) {
    *error = "fetch-miss probe: pool clear failed";
    return 0.0;
  }
  const std::vector<PageId> pages = ShuffledPages(num_pages, samples, seed);
  dsks::obs::IoCounters account;
  dsks::obs::ScopedIoAccount scope(&account);
  std::vector<double> us;
  us.reserve(pages.size());
  char* data = nullptr;
  for (const PageId id : pages) {
    const uint64_t misses_before = account.pool_misses;
    const int64_t t0 = NowNs();
    if (!pool->FetchPage(id, &data).ok()) {
      *error = "fetch-miss probe: fetch failed";
      continue;
    }
    pool->UnpinPage(id, false);
    const int64_t t1 = NowNs();
    if (account.pool_misses != misses_before + 1) {
      *error = "fetch-miss probe: a fetch of a cleared page did not miss";
    }
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return Median(std::move(us));
}

}  // namespace perfbench
