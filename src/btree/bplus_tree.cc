#include "btree/bplus_tree.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/macros.h"

namespace dsks {

namespace {

// Node layout (shared header):
//   u8  is_leaf
//   u16 count
//   u32 next            (leaf sibling chain; unused for internal nodes)
// Leaf body:     count * { u64 key, u64 value }
// Internal body: u32 child0, count * { u64 key, u32 child }
//   Key k at index i separates child i (keys < k) from child i+1 (>= k).
constexpr size_t kHeaderSize = 1 + 2 + 4;
constexpr size_t kLeafEntrySize = 16;
constexpr size_t kInternalEntrySize = 12;
constexpr size_t kLeafCapacity = (kPageSize - kHeaderSize) / kLeafEntrySize;
constexpr size_t kInternalCapacity =
    (kPageSize - kHeaderSize - 4) / kInternalEntrySize;

bool IsLeaf(const char* p) { return p[0] != 0; }
void SetLeaf(char* p, bool leaf) { p[0] = leaf ? 1 : 0; }

uint16_t Count(const char* p) {
  uint16_t c;
  std::memcpy(&c, p + 1, 2);
  return c;
}
void SetCount(char* p, uint16_t c) { std::memcpy(p + 1, &c, 2); }

PageId Next(const char* p) {
  PageId n;
  std::memcpy(&n, p + 3, 4);
  return n;
}
void SetNext(char* p, PageId n) { std::memcpy(p + 3, &n, 4); }

uint64_t LeafKey(const char* p, size_t i) {
  uint64_t k;
  std::memcpy(&k, p + kHeaderSize + i * kLeafEntrySize, 8);
  return k;
}
uint64_t LeafValue(const char* p, size_t i) {
  uint64_t v;
  std::memcpy(&v, p + kHeaderSize + i * kLeafEntrySize + 8, 8);
  return v;
}
void SetLeafEntry(char* p, size_t i, uint64_t k, uint64_t v) {
  std::memcpy(p + kHeaderSize + i * kLeafEntrySize, &k, 8);
  std::memcpy(p + kHeaderSize + i * kLeafEntrySize + 8, &v, 8);
}

PageId Child(const char* p, size_t i) {
  // child i lives before key i; child0 directly after header.
  PageId c;
  if (i == 0) {
    std::memcpy(&c, p + kHeaderSize, 4);
  } else {
    std::memcpy(&c, p + kHeaderSize + 4 + (i - 1) * kInternalEntrySize + 8, 4);
  }
  return c;
}
void SetChild(char* p, size_t i, PageId c) {
  if (i == 0) {
    std::memcpy(p + kHeaderSize, &c, 4);
  } else {
    std::memcpy(p + kHeaderSize + 4 + (i - 1) * kInternalEntrySize + 8, &c, 4);
  }
}
uint64_t InternalKey(const char* p, size_t i) {
  uint64_t k;
  std::memcpy(&k, p + kHeaderSize + 4 + i * kInternalEntrySize, 8);
  return k;
}
void SetInternalKey(char* p, size_t i, uint64_t k) {
  std::memcpy(p + kHeaderSize + 4 + i * kInternalEntrySize, &k, 8);
}

/// Index of the first leaf entry with key >= `key`.
size_t LeafLowerBound(const char* p, uint64_t key) {
  size_t lo = 0;
  size_t hi = Count(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (LeafKey(p, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Child slot to descend into for `key`: number of separators <= key.
size_t InternalChildIndex(const char* p, uint64_t key) {
  size_t lo = 0;
  size_t hi = Count(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (InternalKey(p, mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

size_t BPlusTree::LeafCapacity() { return kLeafCapacity; }
size_t BPlusTree::InternalCapacity() { return kInternalCapacity; }

BPlusTree BPlusTree::Create(BufferPool* pool) {
  PageId root;
  PageGuard guard = PageGuard::New(pool, &root);
  SetLeaf(guard.data(), true);
  SetCount(guard.data(), 0);
  SetNext(guard.data(), kInvalidPageId);
  guard.MarkDirty();
  return BPlusTree(pool, root);
}

BPlusTree BPlusTree::BulkLoad(
    BufferPool* pool, std::span<const std::pair<Key, Value>> sorted) {
  if (sorted.empty()) {
    return Create(pool);
  }
  // Leaves first, ~90% full so subsequent inserts do not split at once.
  const size_t leaf_fill = std::max<size_t>(1, kLeafCapacity * 9 / 10);
  struct ChildRef {
    Key first_key;
    PageId page;
  };
  std::vector<ChildRef> level;
  PageId prev_leaf = kInvalidPageId;
  for (size_t start = 0; start < sorted.size(); start += leaf_fill) {
    const size_t end = std::min(sorted.size(), start + leaf_fill);
    PageId id;
    PageGuard guard = PageGuard::New(pool, &id);
    char* p = guard.data();
    SetLeaf(p, true);
    SetCount(p, static_cast<uint16_t>(end - start));
    SetNext(p, kInvalidPageId);
    for (size_t i = start; i < end; ++i) {
      if (i > start) {
        DSKS_CHECK_MSG(sorted[i - 1].first < sorted[i].first,
                       "BulkLoad requires strictly increasing keys");
      }
      SetLeafEntry(p, i - start, sorted[i].first, sorted[i].second);
    }
    guard.MarkDirty();
    guard.Release();
    if (prev_leaf != kInvalidPageId) {
      PageGuard prev = FetchForBuild(pool, prev_leaf);
      SetNext(prev.data(), id);
      prev.MarkDirty();
    }
    prev_leaf = id;
    level.push_back(ChildRef{sorted[start].first, id});
  }

  // Internal levels until a single node remains.
  const size_t fanout = std::max<size_t>(2, kInternalCapacity * 9 / 10);
  while (level.size() > 1) {
    std::vector<ChildRef> parents;
    for (size_t start = 0; start < level.size(); start += fanout + 1) {
      const size_t end = std::min(level.size(), start + fanout + 1);
      PageId id;
      PageGuard guard = PageGuard::New(pool, &id);
      char* p = guard.data();
      SetLeaf(p, false);
      SetNext(p, kInvalidPageId);
      SetCount(p, static_cast<uint16_t>(end - start - 1));
      SetChild(p, 0, level[start].page);
      for (size_t i = start + 1; i < end; ++i) {
        SetInternalKey(p, i - start - 1, level[i].first_key);
        SetChild(p, i - start, level[i].page);
      }
      guard.MarkDirty();
      parents.push_back(ChildRef{level[start].first_key, id});
    }
    level = std::move(parents);
  }
  return BPlusTree(pool, level[0].page);
}

std::optional<BPlusTree::SplitResult> BPlusTree::InsertRecursive(PageId node,
                                                                 Key key,
                                                                 Value value) {
  PageGuard guard = FetchForBuild(pool_, node);
  char* p = guard.data();

  if (IsLeaf(p)) {
    const size_t n = Count(p);
    const size_t idx = LeafLowerBound(p, key);
    if (idx < n && LeafKey(p, idx) == key) {
      SetLeafEntry(p, idx, key, value);  // overwrite
      guard.MarkDirty();
      return std::nullopt;
    }
    if (n < kLeafCapacity) {
      std::memmove(p + kHeaderSize + (idx + 1) * kLeafEntrySize,
                   p + kHeaderSize + idx * kLeafEntrySize,
                   (n - idx) * kLeafEntrySize);
      SetLeafEntry(p, idx, key, value);
      SetCount(p, static_cast<uint16_t>(n + 1));
      guard.MarkDirty();
      return std::nullopt;
    }
    // Split the full leaf: left keeps the first half, right the rest.
    PageId right_id;
    PageGuard right = PageGuard::New(pool_, &right_id);
    char* r = right.data();
    SetLeaf(r, true);
    const size_t left_n = (n + 1) / 2;
    const size_t right_n = n - left_n;
    std::memcpy(r + kHeaderSize, p + kHeaderSize + left_n * kLeafEntrySize,
                right_n * kLeafEntrySize);
    SetCount(r, static_cast<uint16_t>(right_n));
    SetNext(r, Next(p));
    SetCount(p, static_cast<uint16_t>(left_n));
    SetNext(p, right_id);
    guard.MarkDirty();
    right.MarkDirty();
    // Insert into whichever side now owns the key's range.
    const Key separator = LeafKey(r, 0);
    right.Release();
    guard.Release();
    if (key < separator) {
      auto sub = InsertRecursive(node, key, value);
      DSKS_CHECK(!sub.has_value());
    } else {
      auto sub = InsertRecursive(right_id, key, value);
      DSKS_CHECK(!sub.has_value());
    }
    return SplitResult{separator, right_id};
  }

  // Internal node: descend, then apply any child split here.
  const size_t slot = InternalChildIndex(p, key);
  const PageId child = Child(p, slot);
  guard.Release();  // do not hold a pin across the recursive call
  auto split = InsertRecursive(child, key, value);
  if (!split.has_value()) {
    return std::nullopt;
  }

  PageGuard again = FetchForBuild(pool_, node);
  p = again.data();
  const size_t n = Count(p);
  if (n < kInternalCapacity) {
    // Shift separators/children right of `slot` and place the new entry.
    for (size_t i = n; i > slot; --i) {
      SetInternalKey(p, i, InternalKey(p, i - 1));
      SetChild(p, i + 1, Child(p, i));
    }
    SetInternalKey(p, slot, split->separator);
    SetChild(p, slot + 1, split->right);
    SetCount(p, static_cast<uint16_t>(n + 1));
    again.MarkDirty();
    return std::nullopt;
  }

  // Split the full internal node. Gather the n+1 separators and n+2
  // children that logically exist after the pending insertion.
  std::vector<Key> keys(n + 1);
  std::vector<PageId> children(n + 2);
  for (size_t i = 0; i < n; ++i) keys[i] = InternalKey(p, i);
  for (size_t i = 0; i <= n; ++i) children[i] = Child(p, i);
  keys.insert(keys.begin() + slot, split->separator);
  children.insert(children.begin() + slot + 1, split->right);

  const size_t total = n + 1;          // separators after insert
  const size_t mid = total / 2;        // separator promoted to the parent
  const Key up_key = keys[mid];

  PageId right_id;
  PageGuard right = PageGuard::New(pool_, &right_id);
  char* r = right.data();
  SetLeaf(r, false);
  SetNext(r, kInvalidPageId);
  const size_t right_n = total - mid - 1;
  SetCount(r, static_cast<uint16_t>(right_n));
  SetChild(r, 0, children[mid + 1]);
  for (size_t i = 0; i < right_n; ++i) {
    SetInternalKey(r, i, keys[mid + 1 + i]);
    SetChild(r, i + 1, children[mid + 2 + i]);
  }
  right.MarkDirty();

  SetCount(p, static_cast<uint16_t>(mid));
  SetChild(p, 0, children[0]);
  for (size_t i = 0; i < mid; ++i) {
    SetInternalKey(p, i, keys[i]);
    SetChild(p, i + 1, children[i + 1]);
  }
  again.MarkDirty();
  return SplitResult{up_key, right_id};
}

void BPlusTree::Insert(Key key, Value value) {
  auto split = InsertRecursive(root_, key, value);
  if (!split.has_value()) {
    return;
  }
  // Grow a new root above the old one.
  PageId new_root;
  PageGuard guard = PageGuard::New(pool_, &new_root);
  char* p = guard.data();
  SetLeaf(p, false);
  SetCount(p, 1);
  SetNext(p, kInvalidPageId);
  SetChild(p, 0, root_);
  SetInternalKey(p, 0, split->separator);
  SetChild(p, 1, split->right);
  guard.MarkDirty();
  root_ = new_root;
}

Status BPlusTree::FindLeaf(Key key, PageId* leaf) const {
  PageId node = root_;
  // A healthy tree over 2^32 pages is < 64 levels deep; anything deeper
  // means a corrupted internal node formed a cycle.
  for (int depth = 0; depth < 64; ++depth) {
    PageGuard guard;
    DSKS_RETURN_IF_ERROR(PageGuard::Fetch(pool_, node, &guard));
    const char* p = guard.data();
    if (IsLeaf(p)) {
      *leaf = node;
      return Status::Ok();
    }
    node = Child(p, InternalChildIndex(p, key));
  }
  return Status::Corruption("B+tree descent exceeded maximum depth");
}

Status BPlusTree::Get(Key key, std::optional<Value>* result) const {
  result->reset();
  PageId leaf = kInvalidPageId;
  DSKS_RETURN_IF_ERROR(FindLeaf(key, &leaf));
  PageGuard guard;
  DSKS_RETURN_IF_ERROR(PageGuard::Fetch(pool_, leaf, &guard));
  const char* p = guard.data();
  const size_t idx = LeafLowerBound(p, key);
  if (idx < Count(p) && LeafKey(p, idx) == key) {
    *result = LeafValue(p, idx);
  }
  return Status::Ok();
}

Status BPlusTree::MultiGet(BufferPool* pool, std::span<const PageId> roots,
                           Key key,
                           std::span<std::optional<Value>> results) {
  DSKS_CHECK_MSG(results.size() == roots.size(),
                 "MultiGet needs one result slot per root");
  const size_t t = roots.size();
  std::vector<PageId> current(roots.begin(), roots.end());
  std::vector<bool> done(t, false);
  std::vector<PageId> batch;
  batch.reserve(t);
  for (size_t i = 0; i < t; ++i) {
    results[i].reset();
    if (current[i] == kInvalidPageId) {
      done[i] = true;
    }
  }
  for (int depth = 0; depth < 64; ++depth) {
    batch.clear();
    for (size_t i = 0; i < t; ++i) {
      if (!done[i]) {
        batch.push_back(current[i]);
      }
    }
    if (batch.empty()) {
      return Status::Ok();
    }
    // Speculative: resident and in-flight pages are skipped, failures are
    // re-surfaced by the demand Fetch below. Duplicate roots are fine.
    pool->Prefetch(std::span<const PageId>(batch.data(), batch.size()));
    for (size_t i = 0; i < t; ++i) {
      if (done[i]) {
        continue;
      }
      PageGuard guard;
      DSKS_RETURN_IF_ERROR(PageGuard::Fetch(pool, current[i], &guard));
      const char* p = guard.data();
      if (IsLeaf(p)) {
        const size_t idx = LeafLowerBound(p, key);
        if (idx < Count(p) && LeafKey(p, idx) == key) {
          results[i] = LeafValue(p, idx);
        }
        done[i] = true;
      } else {
        current[i] = Child(p, InternalChildIndex(p, key));
      }
    }
  }
  return Status::Corruption("B+tree descent exceeded maximum depth");
}

Status BPlusTree::RangeScan(
    Key lo, Key hi, const std::function<bool(Key, Value)>& visit) const {
  // Readahead window: how many leaves past the cursor's first leaf are
  // speculatively pulled in one batch. Leaves hold ~250 entries, so eight
  // pages cover ~2000 upcoming range entries — deep enough to hide the
  // chain walk's I/O, small next to the paper's 2% pool.
  constexpr size_t kScanReadahead = 8;
  PageId readahead[kScanReadahead];
  size_t n_readahead = 0;
  PageId leaf = kInvalidPageId;
  {
    // FindLeaf's descent, additionally remembering the upcoming in-range
    // children of each internal node; the deepest level's snapshot is
    // exactly the leaf chain ahead of the cursor (bounded by `hi`: a
    // sibling whose separator exceeds the range end is never visited).
    PageId node = root_;
    for (int depth = 0; depth < 64; ++depth) {
      PageGuard guard;
      DSKS_RETURN_IF_ERROR(PageGuard::Fetch(pool_, node, &guard));
      const char* p = guard.data();
      if (IsLeaf(p)) {
        leaf = node;
        break;
      }
      const size_t slot = InternalChildIndex(p, lo);
      const size_t n = Count(p);
      n_readahead = 0;
      for (size_t j = slot + 1;
           j <= n && n_readahead < kScanReadahead; ++j) {
        if (InternalKey(p, j - 1) > hi) {
          break;
        }
        readahead[n_readahead++] = Child(p, j);
      }
      node = Child(p, slot);
    }
    if (leaf == kInvalidPageId) {
      return Status::Corruption("B+tree descent exceeded maximum depth");
    }
  }
  if (n_readahead > 0) {
    pool_->Prefetch(std::span<const PageId>(readahead, n_readahead));
  }
  while (leaf != kInvalidPageId) {
    PageGuard guard;
    DSKS_RETURN_IF_ERROR(PageGuard::Fetch(pool_, leaf, &guard));
    const char* p = guard.data();
    const size_t n = Count(p);
    for (size_t i = LeafLowerBound(p, lo); i < n; ++i) {
      const Key k = LeafKey(p, i);
      if (k > hi) {
        return Status::Ok();
      }
      if (!visit(k, LeafValue(p, i))) {
        return Status::Ok();
      }
    }
    leaf = Next(p);
  }
  return Status::Ok();
}

uint64_t BPlusTree::CountEntries() const {
  uint64_t total = 0;
  const Status s = RangeScan(0, UINT64_MAX, [&total](Key, Value) {
    ++total;
    return true;
  });
  DSKS_CHECK_MSG(s.ok(), "CountEntries on a faulty disk");
  return total;
}

uint64_t BPlusTree::CountPagesRecursive(PageId node) const {
  PageGuard guard = FetchForBuild(pool_, node);
  const char* p = guard.data();
  if (IsLeaf(p)) {
    return 1;
  }
  uint64_t total = 1;
  const size_t n = Count(p);
  std::vector<PageId> children(n + 1);
  for (size_t i = 0; i <= n; ++i) {
    children[i] = Child(p, i);
  }
  guard.Release();
  for (PageId c : children) {
    total += CountPagesRecursive(c);
  }
  return total;
}

uint64_t BPlusTree::CountPages() const { return CountPagesRecursive(root_); }

}  // namespace dsks
