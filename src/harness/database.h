#ifndef DSKS_HARNESS_DATABASE_H_
#define DSKS_HARNESS_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/div_search.h"
#include "core/query.h"
#include "core/ranked_search.h"
#include "core/sk_search.h"
#include "datagen/presets.h"
#include "graph/ccam.h"
#include "graph/object_set.h"
#include "graph/road_network.h"
#include "index/object_index.h"
#include "index/query_log.h"
#include "index/sif_partitioned.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "text/term_stats.h"

namespace dsks {

/// Which object index a Database mounts.
enum class IndexKind { kIR, kIF, kSIF, kSIFP, kSIFG };

std::string IndexKindName(IndexKind kind);

/// Options for BuildIndex.
struct IndexOptions {
  IndexKind kind = IndexKind::kSIF;
  /// SIF-P settings; `sifp.log_provider` defaults to the kFrequency mode
  /// of §3.3 Remark 1 when unset.
  SifPConfig sifp;
  /// x for SIF-G (top-x frequent terms get pair lists).
  size_t sifg_frequent_terms = 25;
  /// Keywords below this posting count get no signature (one page by
  /// default, per §3.1).
  size_t signature_min_postings = 0;  // 0 = one page worth of postings
};

/// A fully assembled "database instance": a dataset, its CCAM file, an
/// object index and the shared buffer pool. This facade is the only way
/// the CLI, benches, examples and the query server assemble the stack.
class Database {
 public:
  /// Takes ownership of a dataset (e.g. from LoadDataset; `objects` must be
  /// finalized and lie on `network`) and writes its CCAM file. The
  /// vocabulary is max term id + 1. The buffer pool starts
  /// large (for index construction); PrepareForQueries() shrinks it to
  /// the paper's 2% before measurements. `storage` selects the disk
  /// backend: the in-memory simulation (default) or a real index file
  /// (DiskBackendKind::kFile with a path). config() stays the default
  /// DatasetConfig.
  Database(std::unique_ptr<RoadNetwork> network,
           std::unique_ptr<ObjectSet> objects,
           const DiskOptions& storage = DiskOptions{});

  /// Generates the dataset from `config` and assembles it as above, but
  /// with the configured vocabulary size (which may exceed the largest
  /// term id the generator drew).
  explicit Database(const DatasetConfig& config,
                    const DiskOptions& storage = DiskOptions{});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  struct IndexBuildInfo {
    double build_millis = 0.0;
    uint64_t size_bytes = 0;
  };

  /// Builds (or replaces) the object index. May be called multiple times;
  /// a rebuild truncates the disk back to the post-CCAM watermark first,
  /// so superseded index pages are reclaimed instead of leaking (on the
  /// file backend this is the difference between a stable and an
  /// ever-growing index file). The "db.disk.leaked_pages" gauge reports
  /// any pages that still escape this accounting.
  IndexBuildInfo BuildIndex(const IndexOptions& options);

  /// Makes the current on-disk image durable: writes back every dirty
  /// buffer-pool frame, then flushes the disk backend (checksum sidecar +
  /// fsync on the file backend). Required before reopening an index file
  /// with DiskManager::OpenExisting.
  Status FlushStorage();

  /// Flushes everything and shrinks the buffer pool to
  /// max(min_frames, fraction · disk pages), then clears all statistics.
  void PrepareForQueries(double fraction = 0.02, size_t min_frames = 64);

  /// Resets the I/O and index counters (per-query measurement).
  void ResetCounters();

  /// Toggles speculative page prefetching (leaf readahead, posting-run
  /// batching hints and CCAM frontier prefetch all route through the
  /// pool's Prefetch). On by default; query results are bit-identical
  /// either way — only the I/O schedule changes.
  void SetPrefetchEnabled(bool enabled) {
    pool_->set_prefetch_enabled(enabled);
  }
  bool prefetch_enabled() const { return pool_->prefetch_enabled(); }

  /// Physical reads since the last ResetCounters (the paper's "# of I/O").
  uint64_t IoCount() const;

  /// Exposes the pool and disk counters as live sources under
  /// "<prefix>.pool.*" and "<prefix>.disk.*". The Database must outlive
  /// the binding; UnbindMetrics (or destroying the registry) releases it.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "db") const;
  void UnbindMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix = "db") const;

  /// Runs Algorithm 3 to exhaustion; `*out` receives the result objects.
  /// This is the API boundary: the query is validated and canonicalized
  /// (NormalizeSkQuery plus edge-range checks against this network) and a
  /// malformed one returns InvalidArgument instead of aborting. Storage
  /// errors surface as the returned Status with the work done so far
  /// accounted in the context's QueryTrace. Pass a long-lived per-thread
  /// QueryContext to amortize scratch allocations across queries (nullptr:
  /// the search allocates a private one).
  Status RunSkQuery(const SkQuery& query, const QueryEdgeInfo& edge,
                    std::vector<SkResult>* out, QueryContext* ctx = nullptr);

  /// Value-returning convenience for trusted callers (tests, benches):
  /// CHECK-fails on invalid input or a faulty disk.
  std::vector<SkResult> RunSkQuery(const SkQuery& query,
                                   const QueryEdgeInfo& edge,
                                   QueryContext* ctx = nullptr);

  /// Runs a diversified query with SEQ or COM. `strategy` selects the
  /// pairwise-distance scheme (shared expansion by default). Validation
  /// and error reporting as in RunSkQuery; `out->status` mirrors the
  /// returned Status.
  Status RunDivQuery(const DivQuery& query, const QueryEdgeInfo& edge,
                     bool use_com, DivSearchOutput* out,
                     QueryContext* ctx = nullptr,
                     OracleStrategy strategy = OracleStrategy::kSharedExpansion);

  /// Value-returning convenience for trusted callers; CHECK-fails on
  /// invalid input or a faulty disk.
  DivSearchOutput RunDivQuery(
      const DivQuery& query, const QueryEdgeInfo& edge, bool use_com,
      QueryContext* ctx = nullptr,
      OracleStrategy strategy = OracleStrategy::kSharedExpansion);

  /// Boolean k-nearest-neighbour SK query (all keywords, k closest).
  /// With a context, its I/O is charged there and a trace gets the root
  /// span (these searches record no phase spans of their own).
  Status RunKnnQuery(const SkQuery& query, const QueryEdgeInfo& edge,
                     size_t k, std::vector<SkResult>* out,
                     QueryContext* ctx = nullptr);
  std::vector<SkResult> RunKnnQuery(const SkQuery& query,
                                    const QueryEdgeInfo& edge, size_t k);

  /// Ranked top-k SK query (OR semantics, distance/text score blend).
  /// Context handling as in RunKnnQuery.
  Status RunRankedQuery(const RankedQuery& query, const QueryEdgeInfo& edge,
                        std::vector<RankedResult>* out,
                        QueryContext* ctx = nullptr);
  std::vector<RankedResult> RunRankedQuery(const RankedQuery& query,
                                           const QueryEdgeInfo& edge);

  const RoadNetwork& network() const { return *network_; }
  const ObjectSet& objects() const { return *objects_; }
  const TermStats& term_stats() const { return *term_stats_; }
  const DatasetConfig& config() const { return config_; }
  ObjectIndex* index() { return index_.get(); }
  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return &disk_; }
  const CcamGraph& ccam_graph() const { return *ccam_graph_; }
  uint64_t ccam_size_bytes() const { return ccam_file_.size_bytes(); }

 private:
  /// Writes the CCAM file and mounts the build-size pool; shared by both
  /// constructors once the dataset members are set.
  void Assemble(size_t vocab_size);

  /// Boundary checks a normalized query cannot do on its own: edge ids
  /// must exist in this network and the query edge must be coherent.
  Status CheckQueryEdge(const SkQuery& query,
                        const QueryEdgeInfo& edge) const;

  DatasetConfig config_;
  std::unique_ptr<RoadNetwork> network_;
  std::unique_ptr<ObjectSet> objects_;
  std::unique_ptr<TermStats> term_stats_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  CcamFile ccam_file_;
  std::unique_ptr<CcamGraph> ccam_graph_;
  std::unique_ptr<ObjectIndex> index_;
  /// Disk watermark right after the CCAM build: rebuilds truncate back to
  /// here, and pages beyond `index_base_pages_ + index_pages_` are leaks.
  size_t index_base_pages_ = 0;
  /// Pages allocated by the most recent BuildIndex.
  size_t index_pages_ = 0;
};

}  // namespace dsks

#endif  // DSKS_HARNESS_DATABASE_H_
