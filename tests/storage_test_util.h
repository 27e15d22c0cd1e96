#ifndef DSKS_TESTS_STORAGE_TEST_UTIL_H_
#define DSKS_TESTS_STORAGE_TEST_UTIL_H_

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/macros.h"
#include "datagen/presets.h"
#include "harness/database.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace dsks {
namespace testing {

/// Storage and chaos suites run against the backend named by the
/// DSKS_TEST_BACKEND environment variable ("sim" default, "file"), so
/// check.sh can run the same binaries against both.
inline bool FileBackendRequested() {
  const char* env = std::getenv("DSKS_TEST_BACKEND");
  return env != nullptr && std::string(env) == "file";
}

/// A fresh, collision-free path for a file-backend index file.
inline std::string FreshDiskPath(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  return dir + "/dsks_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".pages";
}

/// DiskOptions for the env-selected backend, with a fresh file path when
/// the file backend is requested.
inline DiskOptions TestDiskOptions(const std::string& tag) {
  DiskOptions options;
  if (FileBackendRequested()) {
    options.backend = DiskBackendKind::kFile;
    options.path = FreshDiskPath(tag);
  }
  return options;
}

/// DiskOptions that force the file backend regardless of the env var
/// (durability tests are file-specific).
inline DiskOptions FileDiskOptions(const std::string& tag) {
  DiskOptions options;
  options.backend = DiskBackendKind::kFile;
  options.path = FreshDiskPath(tag);
  return options;
}

inline void RemoveDiskFiles(const DiskOptions& options) {
  if (options.backend == DiskBackendKind::kFile && !options.path.empty()) {
    std::remove(options.path.c_str());
    std::remove((options.path + ".crc").c_str());
  }
}

/// A DiskManager on the env-selected backend whose files are removed on
/// destruction. Dereferences like a DiskManager pointer.
class TestDisk {
 public:
  explicit TestDisk(const std::string& tag = "disk")
      : options_(TestDiskOptions(tag)), disk_(options_) {}
  ~TestDisk() { RemoveDiskFiles(options_); }

  TestDisk(const TestDisk&) = delete;
  TestDisk& operator=(const TestDisk&) = delete;

  DiskManager* get() { return &disk_; }
  DiskManager* operator->() { return &disk_; }
  DiskManager& operator*() { return disk_; }
  const DiskOptions& options() const { return options_; }

 private:
  DiskOptions options_;
  DiskManager disk_;
};

/// A Database on the env-selected backend whose files are removed on
/// destruction.
class BackendDatabase {
 public:
  explicit BackendDatabase(const DatasetConfig& config,
                           const std::string& tag = "db")
      : options_(TestDiskOptions(tag)), db_(config, options_) {}
  ~BackendDatabase() { RemoveDiskFiles(options_); }

  BackendDatabase(const BackendDatabase&) = delete;
  BackendDatabase& operator=(const BackendDatabase&) = delete;

  Database* operator->() { return &db_; }
  Database& operator*() { return db_; }
  Database* get() { return &db_; }
  const DiskOptions& options() const { return options_; }

 private:
  DiskOptions options_;  // declared before db_: Database borrows nothing,
                         // but the path must outlive construction
  Database db_;
};

/// Test replacement for the removed BufferPool::FetchPageOrDie: pins page
/// `id` and returns its frame, CHECK-failing on a disk error. Tests that
/// exercise fault paths use FetchPage / PageGuard::Fetch directly.
inline char* MustFetch(BufferPool* pool, PageId id) {
  char* data = nullptr;
  const Status s = pool->FetchPage(id, &data);
  DSKS_CHECK_MSG(s.ok(), "MustFetch on a faulty disk");
  return data;
}

}  // namespace testing
}  // namespace dsks

#endif  // DSKS_TESTS_STORAGE_TEST_UTIL_H_
