#include "storage/disk_manager.h"

#include <utility>

#include "common/crc32c.h"
#include "common/macros.h"
#include "obs/io_account.h"
#include "obs/metrics.h"
#include "storage/file_disk_backend.h"

namespace dsks {

namespace {

std::unique_ptr<DiskBackend> MakeBackend(const DiskOptions& options) {
  switch (options.backend) {
    case DiskBackendKind::kSim:
      return std::make_unique<SimDiskBackend>();
    case DiskBackendKind::kFile: {
      std::unique_ptr<FileDiskBackend> backend;
      const Status s = FileDiskBackend::Create(options, &backend);
      DSKS_CHECK_MSG(s.ok(), "failed to create file-backed disk");
      return backend;
    }
  }
  DSKS_CHECK_MSG(false, "unknown disk backend kind");
  return nullptr;
}

}  // namespace

DiskManager::DiskManager(const DiskOptions& options)
    : DiskManager(MakeBackend(options), options.backend) {}

DiskManager::DiskManager(std::unique_ptr<DiskBackend> backend,
                         DiskBackendKind kind)
    : backend_(std::move(backend)), backend_kind_(kind) {
  if (kind == DiskBackendKind::kSim) {
    sim_ = static_cast<SimDiskBackend*>(backend_.get());
  }
}

Status DiskManager::OpenExisting(const DiskOptions& options,
                                 std::unique_ptr<DiskManager>* out) {
  if (options.backend != DiskBackendKind::kFile) {
    return Status::InvalidArgument(
        "OpenExisting requires the file backend (sim state is not durable)");
  }
  std::unique_ptr<FileDiskBackend> backend;
  DSKS_RETURN_IF_ERROR(FileDiskBackend::Open(options, &backend));
  out->reset(new DiskManager(std::move(backend), options.backend));
  return Status::Ok();
}

PageId DiskManager::AllocatePage() {
  const PageId id = backend_->AllocatePage();
  stats_.allocations.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void DiskManager::ReadPages(std::span<PageReadRequest> batch) {
  const bool armed = fault_injector_.armed();
  // Every page draws its read-fault decision before any page draws a
  // corruption, in batch order, so seeded draw sequences do not depend on
  // how the pages are batched.
  for (PageReadRequest& r : batch) {
    if (armed && fault_injector_.ShouldFailRead(r.id)) {
      stats_.read_faults.fetch_add(1, std::memory_order_relaxed);
      r.status = Status::IOError("injected read fault on page " +
                                 std::to_string(r.id));
    } else {
      r.status = Status::Ok();
    }
  }
  // Each run of pages that drew no fault is one backend round trip.
  for (size_t i = 0, j = 0; i < batch.size(); i = j) {
    j = i + 1;
    if (!batch[i].status.ok()) {
      continue;
    }
    while (j < batch.size() && batch[j].status.ok()) {
      ++j;
    }
    const std::span<PageReadRequest> run = batch.subspan(i, j - i);
    backend_->ReadPages(run);
    for (PageReadRequest& r : run) {
      if (!r.status.ok()) {
        // Real device failures get the same accounting as injected ones;
        // they draw no corruption.
        if (r.status.IsCorruption()) {
          stats_.corruptions_detected.fetch_add(1, std::memory_order_relaxed);
        } else {
          stats_.read_faults.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      stats_.reads.fetch_add(1, std::memory_order_relaxed);
      obs::ChargeDiskRead();
      uint32_t bit_index = 0;
      if (armed && fault_injector_.ShouldCorruptRead(r.id, &bit_index)) {
        r.out[bit_index / 8] ^= static_cast<char>(1u << (bit_index % 8));
      }
      // Verify the bytes handed to the caller — freshly copied, so
      // cache-hot — catching at-rest corruption (CorruptStoredPage, torn
      // files) and in-flight bit flips alike.
      if (crc32c::Value(r.out, kPageSize) != r.expected_crc) {
        stats_.corruptions_detected.fetch_add(1, std::memory_order_relaxed);
        r.status = Status::Corruption("checksum mismatch on page " +
                                      std::to_string(r.id));
      }
    }
  }
}

Status DiskManager::WritePage(PageId id, const char* in) {
  if (fault_injector_.armed() && fault_injector_.ShouldFailWrite(id)) {
    stats_.write_faults.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError("injected write fault on page " +
                           std::to_string(id));
  }
  const uint32_t crc = crc32c::Value(in, kPageSize);
  Status s = backend_->WritePage(id, in, crc);
  if (!s.ok()) {
    stats_.write_faults.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  obs::ChargeDiskWrite();
  return Status::Ok();
}

Status DiskManager::TruncatePages(size_t new_num_pages) {
  return backend_->TruncatePages(new_num_pages);
}

Status DiskManager::Flush() { return backend_->Flush(); }

void DiskManager::CorruptStoredPage(PageId id, uint32_t bit_index) {
  backend_->CorruptStoredPage(id, bit_index);
}

void DiskManager::BindMetrics(obs::MetricsRegistry* registry,
                              const std::string& prefix) const {
  auto counter = [](const std::atomic<uint64_t>* c) {
    return [c] { return c->load(std::memory_order_relaxed); };
  };
  registry->BindSource(prefix + ".reads", counter(&stats_.reads));
  registry->BindSource(prefix + ".writes", counter(&stats_.writes));
  registry->BindSource(prefix + ".allocations", counter(&stats_.allocations));
  registry->BindSource(prefix + ".read_faults", counter(&stats_.read_faults));
  registry->BindSource(prefix + ".write_faults",
                       counter(&stats_.write_faults));
  registry->BindSource(prefix + ".corruptions_detected",
                       counter(&stats_.corruptions_detected));
  registry->BindSource(prefix + ".pages",
                       [this] { return static_cast<uint64_t>(num_pages()); });
}

}  // namespace dsks
