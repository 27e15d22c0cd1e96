#include "index/posting_file.h"

#include <cstring>

#include "common/macros.h"
#include "storage/page.h"

namespace dsks {

namespace {

// Fixed 16-byte on-page posting record; pages are packed completely, the
// locator carries the run length so no page header is needed.
//   u32 object, u16 pos, u16 reserved, f64 w1
constexpr size_t kEntrySize = 16;
constexpr size_t kEntriesPerPage = kPageSize / kEntrySize;

PostingFile::Locator PackLocator(PageId page, uint32_t slot, uint32_t count) {
  return (static_cast<uint64_t>(page) << 32) |
         (static_cast<uint64_t>(slot & 0xFFFF) << 16) |
         static_cast<uint64_t>(count & 0xFFFF);
}

void UnpackLocator(PostingFile::Locator loc, PageId* page, uint32_t* slot,
                   uint32_t* count) {
  *page = static_cast<PageId>(loc >> 32);
  *slot = static_cast<uint32_t>((loc >> 16) & 0xFFFF);
  *count = static_cast<uint32_t>(loc & 0xFFFF);
}

void WriteEntry(char* page, uint32_t slot, const PostingFile::Entry& e) {
  char* base = page + slot * kEntrySize;
  std::memcpy(base, &e.object, 4);
  std::memcpy(base + 4, &e.pos, 2);
  uint16_t reserved = 0;
  std::memcpy(base + 6, &reserved, 2);
  std::memcpy(base + 8, &e.w1, 8);
}

PostingFile::Entry ReadEntry(const char* page, uint32_t slot) {
  PostingFile::Entry e;
  const char* base = page + slot * kEntrySize;
  std::memcpy(&e.object, base, 4);
  std::memcpy(&e.pos, base + 4, 2);
  std::memcpy(&e.w1, base + 8, 8);
  return e;
}

}  // namespace

size_t PostingFile::EntriesPerPage() { return kEntriesPerPage; }

PostingFile::Locator PostingFile::AppendRun(std::span<const Entry> entries) {
  DSKS_CHECK_MSG(entries.size() <= 0xFFFF, "posting run too long");
  DSKS_CHECK_MSG(!entries.empty(), "empty posting run");

  // A run must occupy consecutive page ids (the locator only records where
  // it starts). If it does not fit in the current page's remainder, start
  // on fresh pages allocated in one burst — that way no assumption is made
  // about allocations that happened between AppendRun calls (dynamic
  /// ingestion interleaves B+tree splits with posting appends).
  const size_t remainder =
      current_page_ == kInvalidPageId ? 0 : kEntriesPerPage - current_slot_;
  if (entries.size() > remainder) {
    const size_t pages =
        (entries.size() + kEntriesPerPage - 1) / kEntriesPerPage;
    PageId first = kInvalidPageId;
    for (size_t i = 0; i < pages; ++i) {
      PageId id;
      PageGuard guard = PageGuard::New(pool_, &id);
      guard.MarkDirty();
      if (i == 0) {
        first = id;
      } else {
        DSKS_CHECK_MSG(id == first + i,
                       "burst page allocation must be contiguous");
      }
      ++num_pages_;
    }
    current_page_ = first;
    current_slot_ = 0;
  }

  const PageId start_page = current_page_;
  const uint32_t start_slot = current_slot_;

  PageGuard guard = FetchForBuild(pool_, current_page_);
  for (const Entry& e : entries) {
    if (current_slot_ >= kEntriesPerPage) {
      guard.Release();
      ++current_page_;  // pre-allocated above
      current_slot_ = 0;
      guard = FetchForBuild(pool_, current_page_);
    }
    WriteEntry(guard.data(), current_slot_, e);
    guard.MarkDirty();
    ++current_slot_;
    ++num_entries_;
  }
  return PackLocator(start_page, start_slot,
                     static_cast<uint32_t>(entries.size()));
}

Status PostingFile::ReadRun(Locator locator, std::vector<Entry>* out) const {
  out->clear();
  PageId page;
  uint32_t slot;
  uint32_t count;
  UnpackLocator(locator, &page, &slot, &count);
  out->reserve(count);
  // A run's page extent is fully known from its locator, so a multi-page
  // run is fetched in batched chunks: one disk round trip per chunk on a
  // cold cache instead of one per page. The chunk bound keeps the number
  // of simultaneously pinned frames small next to the paper's 2% pool.
  constexpr size_t kChunkPages = 16;
  while (count > 0) {
    const size_t span_pages =
        (slot + count + kEntriesPerPage - 1) / kEntriesPerPage;
    const size_t n = span_pages < kChunkPages ? span_pages : kChunkPages;
    PageId ids[kChunkPages];
    char* datas[kChunkPages];
    for (size_t i = 0; i < n; ++i) {
      ids[i] = page + static_cast<PageId>(i);
    }
    DSKS_RETURN_IF_ERROR(pool_->FetchPages(std::span<const PageId>(ids, n),
                                           std::span<char*>(datas, n)));
    for (size_t i = 0; i < n; ++i) {
      while (slot < kEntriesPerPage && count > 0) {
        out->push_back(ReadEntry(datas[i], slot));
        ++slot;
        --count;
      }
      slot = 0;
    }
    for (size_t i = 0; i < n; ++i) {
      pool_->UnpinPage(ids[i], /*dirty=*/false);
    }
    page += static_cast<PageId>(n);
  }
  return Status::Ok();
}

void PostingFile::PrefetchRuns(std::span<const Locator> locators) const {
  // Bounded like the other speculative readers: enough for a keyword
  // conjunction's runs on one edge, small next to the paper's 2% pool.
  constexpr size_t kMaxPrefetchPages = 32;
  PageId pages[kMaxPrefetchPages];
  size_t n = 0;
  for (const Locator loc : locators) {
    PageId page;
    uint32_t slot;
    uint32_t count;
    UnpackLocator(loc, &page, &slot, &count);
    const size_t span_pages =
        (slot + count + kEntriesPerPage - 1) / kEntriesPerPage;
    for (size_t i = 0; i < span_pages && n < kMaxPrefetchPages; ++i) {
      const PageId pid = page + static_cast<PageId>(i);
      bool seen = false;
      for (size_t j = 0; j < n; ++j) {
        if (pages[j] == pid) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        pages[n++] = pid;
      }
    }
    if (n >= kMaxPrefetchPages) {
      break;
    }
  }
  if (n > 0) {
    pool_->Prefetch(std::span<const PageId>(pages, n));
  }
}

uint32_t PostingFile::RunLength(Locator locator) {
  return static_cast<uint32_t>(locator & 0xFFFF);
}

}  // namespace dsks
