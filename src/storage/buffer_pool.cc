#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/io_account.h"
#include "obs/metrics.h"

namespace dsks {

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), capacity_(capacity) {
  DSKS_CHECK_MSG(capacity > 0, "buffer pool needs at least one frame");
}

BufferPool::~BufferPool() {
#ifndef NDEBUG
  for (const auto& [id, frame] : frames_) {
    DSKS_DCHECK_MSG(frame.pin_count == 0,
                    "buffer pool destroyed with pinned pages (pin leak)");
    (void)id;
  }
#endif
  std::lock_guard<std::mutex> lock(latch_);
  // Best-effort final flush; a failed write-back has no caller to report
  // to at destruction time.
  (void)FlushAllLocked();
}

BufferPool::Frame* BufferPool::GetFrameLocked(PageId id) {
  auto it = frames_.find(id);
  return it == frames_.end() ? nullptr : &it->second;
}

BufferPool::Frame* BufferPool::ReserveFrameLocked(PageId id) {
  if (frames_.size() >= capacity_.load(std::memory_order_relaxed)) {
    // Best effort: when every frame is pinned this fails and the pool
    // temporarily runs over capacity (UnpinPage trims back down).
    TryEvictOneLocked();
  }
  auto [it, inserted] = frames_.try_emplace(id);
  DSKS_DCHECK_MSG(inserted, "reserving a frame for a resident page");
  Frame& f = it->second;
  // The read (or NewPage's memset) overwrites every byte, so the buffer
  // is not zeroed here.
  f.data = std::make_unique_for_overwrite<char[]>(kPageSize);
  f.page_id = id;
  f.pin_count = 1;
  f.io_in_progress = true;
  return &f;
}

bool BufferPool::PinResidentLocked(std::span<const PageId> ids,
                                   std::span<char*> outs) {
  bool all_pinned = true;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (outs[i] != nullptr) {
      continue;
    }
    Frame* frame = GetFrameLocked(ids[i]);
    if (frame == nullptr || frame->io_in_progress) {
      all_pinned = false;
      continue;
    }
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    obs::ChargePoolHit();
    if (frame->prefetched) {
      // First demand touch of a speculatively read page: the prefetch paid
      // off. The flag resolves exactly once per issued prefetch.
      frame->prefetched = false;
      stats_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
    }
    if (frame->in_lru) {
      lru_.erase(frame->lru_pos);
      frame->in_lru = false;
    }
    ++frame->pin_count;
    outs[i] = frame->data.get();
  }
  return all_pinned;
}

Status BufferPool::FetchPage(PageId id, char** out) {
  // A local slot keeps `*out` untouched when the fetch fails.
  char* data = nullptr;
  DSKS_RETURN_IF_ERROR(FetchPages(std::span<const PageId>(&id, 1),
                                  std::span<char*>(&data, 1)));
  *out = data;
  return Status::Ok();
}

Status BufferPool::FetchPages(std::span<const PageId> ids,
                              std::span<char*> outs) {
  DSKS_CHECK_MSG(ids.size() == outs.size(),
                 "FetchPages needs one output slot per page id");
#ifndef NDEBUG
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      DSKS_DCHECK_MSG(ids[i] != ids[j], "FetchPages ids must be distinct");
    }
  }
#endif
  // nullptr in outs[i] marks "not pinned by this call (yet)", both for the
  // next pass and for the all-or-nothing rollback below.
  std::fill(outs.begin(), outs.end(), nullptr);
  Status first = Status::Ok();
  std::unique_lock<std::mutex> lock(latch_);
  while (!PinResidentLocked(ids, outs)) {
    // What is left is missing, or in flight on another thread. Never wait
    // while holding not-yet-read frames of our own: two calls that each
    // wait on the other's would deadlock.
    std::vector<PageReadRequest> reqs;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (outs[i] != nullptr || GetFrameLocked(ids[i]) != nullptr) {
        continue;
      }
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      obs::ChargePoolMiss();
      outs[i] = ReserveFrameLocked(ids[i])->data.get();
      reqs.emplace_back().id = ids[i];
      reqs.back().out = outs[i];
    }
    if (reqs.empty()) {
      // Only other threads' reads are left, and the latch was held since
      // they were seen, so their completion cannot be missed.
      io_done_.wait(lock);
      continue;
    }
    // One batched disk round trip for every miss, outside the latch. The
    // in-flight frames are pinned and off the LRU, so nothing evicts them,
    // and unordered_map keeps them in place across other threads' inserts
    // and erases.
    lock.unlock();
    disk_->ReadPages(std::span<PageReadRequest>(reqs));
    lock.lock();
    for (PageReadRequest& r : reqs) {
      Frame* frame = GetFrameLocked(r.id);
      DSKS_CHECK(frame != nullptr);
      if (r.status.ok()) {
        frame->io_in_progress = false;
        continue;
      }
      // Drop the failed frame, and this call's pin with it, so waiters
      // (and future fetches) retry from scratch instead of pinning garbage.
      *std::find(outs.begin(), outs.end(), r.out) = nullptr;
      frames_.erase(r.id);
      if (first.ok()) {
        first = std::move(r.status);
      }
    }
    io_done_.notify_all();
    if (!first.ok()) {
      break;
    }
  }
  if (!first.ok()) {
    // All-or-nothing: release every pin this call took so the caller has
    // nothing to clean up.
    for (size_t i = 0; i < ids.size(); ++i) {
      if (outs[i] != nullptr) {
        UnpinPageLocked(ids[i], /*dirty=*/false);
        outs[i] = nullptr;
      }
    }
  }
  return first;
}

void BufferPool::Prefetch(std::span<const PageId> ids) {
  if (ids.empty() || !prefetch_enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  // Issuers pass at most a few dozen ids; capping the span keeps the
  // requests below on the stack.
  ids = ids.first(std::min(ids.size(), kMaxPrefetchBatch));
  const size_t allocated = disk_->num_pages();
  PageReadRequest reqs[kMaxPrefetchBatch];
  size_t n = 0;
  size_t refused = 0;  // pinned-and-dirty pages: counted no-ops
  std::unique_lock<std::mutex> lock(latch_);
  // Step 1, under the latch: classify. Missing pages get in-flight frames.
  for (PageId id : ids) {
    if (id >= allocated) {
      continue;  // speculative callers may guess past the watermark
    }
    Frame* frame = GetFrameLocked(id);
    if (frame != nullptr) {
      // Resident or already in flight (ours or another thread's): nothing
      // to do, and never wait — prefetch must not block. A frame pinned
      // *and dirty* additionally gets counted: its writer holds newer
      // bytes than the disk, so a speculative read could only ever race
      // the write-back with stale data. Issued-and-dropped keeps the
      // lifecycle telescope exact without a device read.
      if (frame->pin_count > 0 && frame->dirty) {
        ++refused;
      }
      continue;
    }
    // Pinned while in flight so eviction/Clear can't touch the frame; the
    // pin drops when the frame is published below.
    reqs[n].id = id;
    reqs[n].out = ReserveFrameLocked(id)->data.get();
    ++n;
  }
  if (refused > 0) {
    stats_.prefetch_issued.fetch_add(refused, std::memory_order_relaxed);
    stats_.prefetch_dropped.fetch_add(refused, std::memory_order_relaxed);
    obs::ChargePrefetchIssued(refused);
  }
  if (n == 0) {
    return;
  }
  stats_.prefetch_issued.fetch_add(n, std::memory_order_relaxed);
  obs::ChargePrefetchIssued(n);
  const auto start = std::chrono::steady_clock::now();
  // Step 2, outside the latch: one batched read. Demand fetchers of these
  // pages meanwhile wait on the in-flight frames instead of re-reading.
  lock.unlock();
  disk_->ReadPages(std::span<PageReadRequest>(reqs, n));
  lock.lock();
  // Step 3, under the latch: publish successes as unpinned LRU frames.
  for (size_t i = 0; i < n; ++i) {
    Frame* frame = GetFrameLocked(reqs[i].id);
    DSKS_CHECK(frame != nullptr);
    if (reqs[i].status.ok()) {
      frame->io_in_progress = false;
      frame->pin_count = 0;
      frame->prefetched = true;
      lru_.push_back(reqs[i].id);
      frame->lru_pos = std::prev(lru_.end());
      frame->in_lru = true;
    } else {
      // Fault-silent by design: drop the frame, count it, and let any
      // later demand fetch re-read and surface its own error. A query
      // never fails because of a speculative read it didn't ask for.
      frames_.erase(reqs[i].id);
      stats_.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  TrimToCapacityLocked();
  lock.unlock();
  io_done_.notify_all();
  if (obs::Histogram* hist =
          prefetch_latency_.load(std::memory_order_relaxed)) {
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    hist->Record(elapsed.count());
  }
}

char* BufferPool::NewPage(PageId* id) {
  *id = disk_->AllocatePage();
  std::lock_guard<std::mutex> lock(latch_);
  Frame* f = ReserveFrameLocked(*id);
  std::memset(f->data.get(), 0, kPageSize);
  f->dirty = true;
  f->io_in_progress = false;
  return f->data.get();
}

void BufferPool::UnpinPage(PageId id, bool dirty) {
  std::lock_guard<std::mutex> lock(latch_);
  UnpinPageLocked(id, dirty);
}

void BufferPool::UnpinPageLocked(PageId id, bool dirty) {
  Frame* frame = GetFrameLocked(id);
  DSKS_CHECK_MSG(frame != nullptr, "unpin of page not in pool");
  DSKS_CHECK_MSG(frame->pin_count > 0, "unpin of unpinned page");
  frame->dirty = frame->dirty || dirty;
  --frame->pin_count;
  if (frame->pin_count == 0) {
    lru_.push_back(id);
    frame->lru_pos = std::prev(lru_.end());
    frame->in_lru = true;
    // Drain any overflow frames (pin pressure) or a deferred shrink.
    TrimToCapacityLocked();
  }
}

bool BufferPool::TryEvictOneLocked() {
  for (auto it = lru_.begin(); it != lru_.end();) {
    const PageId victim = *it;
    auto fit = frames_.find(victim);
    DSKS_CHECK(fit != frames_.end());
    Frame& f = fit->second;
    DSKS_CHECK(f.pin_count == 0);
    if (f.dirty) {
      const Status status = disk_->WritePage(victim, f.data.get());
      if (!status.ok()) {
        // Injected write fault: keep the frame (still dirty, still in the
        // LRU) and try the next candidate; a later trim retries it.
        ++it;
        continue;
      }
    }
    if (f.prefetched) {
      // Evicted without ever being demanded: the speculative read was
      // wasted work.
      stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
    }
    lru_.erase(it);
    frames_.erase(fit);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void BufferPool::TrimToCapacityLocked() {
  while (frames_.size() > capacity_.load(std::memory_order_relaxed) &&
         TryEvictOneLocked()) {
  }
}

Status BufferPool::FlushAllLocked() {
  Status first = Status::Ok();
  for (auto& [id, frame] : frames_) {
    if (frame.dirty) {
      const Status status = disk_->WritePage(id, frame.data.get());
      if (status.ok()) {
        frame.dirty = false;
      } else if (first.ok()) {
        first = status;
      }
    }
  }
  return first;
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(latch_);
  return FlushAllLocked();
}

void BufferPool::SetCapacity(size_t capacity) {
  DSKS_CHECK_MSG(capacity > 0, "buffer pool needs at least one frame");
  std::lock_guard<std::mutex> lock(latch_);
  capacity_.store(capacity, std::memory_order_relaxed);
  // Evict what we can now; if pinned pages hold the pool above the target,
  // the rest of the shrink happens in UnpinPage as pins drain.
  TrimToCapacityLocked();
}

Status BufferPool::Clear() {
  std::lock_guard<std::mutex> lock(latch_);
  const Status status = FlushAllLocked();
  for (auto& [id, frame] : frames_) {
    DSKS_CHECK_MSG(frame.pin_count == 0, "Clear with pinned pages");
    if (frame.prefetched) {
      stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
    }
    (void)id;
  }
  frames_.clear();
  lru_.clear();
  return status;
}

size_t BufferPool::num_frames_in_use() const {
  std::lock_guard<std::mutex> lock(latch_);
  return frames_.size();
}

void BufferPool::BindMetrics(obs::MetricsRegistry* registry,
                             const std::string& prefix) const {
  auto counter = [](const std::atomic<uint64_t>* c) {
    return [c] { return c->load(std::memory_order_relaxed); };
  };
  registry->BindSource(prefix + ".hits", counter(&stats_.hits));
  registry->BindSource(prefix + ".misses", counter(&stats_.misses));
  registry->BindSource(prefix + ".evictions", counter(&stats_.evictions));
  registry->BindSource(prefix + ".prefetch.issued",
                       counter(&stats_.prefetch_issued));
  registry->BindSource(prefix + ".prefetch.hits",
                       counter(&stats_.prefetch_hits));
  registry->BindSource(prefix + ".prefetch.wasted",
                       counter(&stats_.prefetch_wasted));
  registry->BindSource(prefix + ".prefetch.dropped",
                       counter(&stats_.prefetch_dropped));
  prefetch_latency_.store(&registry->histogram(prefix + ".prefetch.completion"),
                          std::memory_order_relaxed);
  registry->BindSource(prefix + ".capacity_frames",
                       [this] { return static_cast<uint64_t>(capacity()); });
  registry->BindSource(prefix + ".frames_in_use", [this] {
    return static_cast<uint64_t>(num_frames_in_use());
  });
}

}  // namespace dsks
