#include "harness/database.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "datagen/network_generator.h"
#include "datagen/object_generator.h"
#include "index/inverted_file.h"
#include "index/inverted_rtree.h"
#include "index/sif.h"
#include "index/sif_group.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsks {

std::string IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kIR:
      return "IR";
    case IndexKind::kIF:
      return "IF";
    case IndexKind::kSIF:
      return "SIF";
    case IndexKind::kSIFP:
      return "SIF-P";
    case IndexKind::kSIFG:
      return "SIF-G";
  }
  return "?";
}

namespace {

/// Build-phase pool: large enough that construction is not eviction-bound.
constexpr size_t kBuildPoolFrames = 64 * 1024;  // 256 MiB of frames

}  // namespace

Database::Database(std::unique_ptr<RoadNetwork> network,
                   std::unique_ptr<ObjectSet> objects,
                   const DiskOptions& storage)
    : network_(std::move(network)),
      objects_(std::move(objects)),
      disk_(storage) {
  DSKS_CHECK_MSG(network_ != nullptr && objects_ != nullptr &&
                     objects_->finalized() &&
                     &objects_->network() == network_.get(),
                 "Database needs a finalized object set on its network");
  size_t vocab_size = 0;
  for (const SpatioTextualObject& o : objects_->objects()) {
    for (const TermId t : o.terms) {
      vocab_size = std::max<size_t>(vocab_size, t + 1);
    }
  }
  Assemble(vocab_size);
}

Database::Database(const DatasetConfig& config, const DiskOptions& storage)
    : config_(config),
      network_(GenerateRoadNetwork(config.network)),
      objects_(GenerateObjects(*network_, config.objects)),
      disk_(storage) {
  Assemble(config.objects.vocab_size);
}

void Database::Assemble(size_t vocab_size) {
  term_stats_ = std::make_unique<TermStats>(*objects_, vocab_size);
  pool_ = std::make_unique<BufferPool>(&disk_, kBuildPoolFrames);
  ccam_file_ = CcamFileBuilder::Build(*network_, &disk_);
  ccam_graph_ = std::make_unique<CcamGraph>(&ccam_file_, pool_.get());
  index_base_pages_ = disk_.num_pages();
}

Database::IndexBuildInfo Database::BuildIndex(const IndexOptions& options) {
  const size_t vocab = term_stats_->vocab_size();
  const size_t min_postings = options.signature_min_postings == 0
                                  ? PostingFile::EntriesPerPage()
                                  : options.signature_min_postings;
  if (index_ != nullptr) {
    // Reclaim the superseded index's extent: drop the index (its pages
    // may still be pinned through pool frames only until the unique_ptr
    // goes), write back / drop every cached frame, then truncate the disk
    // to the post-CCAM watermark so the rebuild reuses the same page
    // range. Without this, every rebuild leaked its predecessor's pages.
    index_.reset();
    const Status clear_status = pool_->Clear();
    DSKS_CHECK_MSG(clear_status.ok(), "index rebuild on a faulty disk");
    const Status trunc_status = disk_.TruncatePages(index_base_pages_);
    DSKS_CHECK_MSG(trunc_status.ok(), "index rebuild on a faulty disk");
    index_pages_ = 0;
  }
  Timer timer;
  switch (options.kind) {
    case IndexKind::kIR:
      index_ = std::make_unique<InvertedRTreeIndex>(pool_.get(), *objects_,
                                                    vocab);
      break;
    case IndexKind::kIF:
      index_ =
          std::make_unique<InvertedFileIndex>(pool_.get(), *objects_, vocab);
      break;
    case IndexKind::kSIF:
      index_ = std::make_unique<SifIndex>(pool_.get(), *objects_, vocab,
                                          min_postings);
      break;
    case IndexKind::kSIFP: {
      SifPConfig sifp = options.sifp;
      if (sifp.log_provider == nullptr) {
        sifp.log_provider = MakeQueryLogProvider(
            QueryLogMode::kFrequency, {}, /*terms_per_query=*/3,
            /*queries_per_edge=*/8, /*seed=*/config_.network.seed ^ 0xABCD);
      }
      index_ = std::make_unique<SifPartitionedIndex>(pool_.get(), *objects_,
                                                     vocab, sifp, min_postings);
      break;
    }
    case IndexKind::kSIFG:
      index_ = std::make_unique<SifGroupIndex>(pool_.get(), *objects_, vocab,
                                               options.sifg_frequent_terms,
                                               min_postings);
      break;
  }
  IndexBuildInfo info;
  info.build_millis = timer.ElapsedMillis();
  info.size_bytes = index_->SizeBytes();
  index_pages_ = disk_.num_pages() - index_base_pages_;
  return info;
}

Status Database::FlushStorage() {
  DSKS_RETURN_IF_ERROR(pool_->FlushAll());
  return disk_.Flush();
}

void Database::PrepareForQueries(double fraction, size_t min_frames) {
  DSKS_CHECK_MSG(index_ != nullptr, "build an index first");
  const Status flush_status = pool_->FlushAll();
  DSKS_CHECK_MSG(flush_status.ok(), "PrepareForQueries on a faulty disk");
  // Budget relative to the live dataset (CCAM + current index). Since
  // rebuilds truncate the superseded extent this normally equals the raw
  // disk, but the live sum stays correct even if a leak regresses.
  const double live_pages = static_cast<double>(
      (ccam_file_.size_bytes() + index_->SizeBytes()) / kPageSize);
  const auto frames = static_cast<size_t>(
      std::max(static_cast<double>(min_frames), fraction * live_pages));
  const Status clear_status = pool_->Clear();
  DSKS_CHECK_MSG(clear_status.ok(), "PrepareForQueries on a faulty disk");
  // Persist the built image (sidecar + fsync on the file backend) so the
  // measured phase starts from a durable, reopenable index.
  const Status disk_flush = disk_.Flush();
  DSKS_CHECK_MSG(disk_flush.ok(), "PrepareForQueries on a faulty disk");
  pool_->SetCapacity(frames);
  ResetCounters();
}

void Database::ResetCounters() {
  disk_.mutable_stats()->Reset();
  pool_->mutable_stats()->Reset();
  if (index_ != nullptr) {
    index_->stats().Reset();
  }
}

uint64_t Database::IoCount() const { return disk_.stats().reads; }

void Database::BindMetrics(obs::MetricsRegistry* registry,
                           const std::string& prefix) const {
  pool_->BindMetrics(registry, prefix + ".pool");
  disk_.BindMetrics(registry, prefix + ".disk");
  // Pages neither in the CCAM extent nor the current index: 0 unless the
  // rebuild-reclaim path regresses, in which case this gauge is how the
  // leak becomes visible.
  registry->BindSource(prefix + ".disk.leaked_pages", [this] {
    const size_t live = index_base_pages_ + index_pages_;
    const size_t total = disk_.num_pages();
    return static_cast<uint64_t>(total > live ? total - live : 0);
  });
}

void Database::UnbindMetrics(obs::MetricsRegistry* registry,
                             const std::string& prefix) const {
  registry->UnbindSourcesWithPrefix(prefix + ".");
}

namespace {

/// Everything a query entry point installs for its optional context:
/// the storage layer charges the query's I/O to the context, an attached
/// trace snapshots those per-context counters (so span deltas stay exact
/// under concurrency) and gets the kQuery root span. Construct it before
/// any query I/O: the SK search constructor already reads keyword pages.
class QueryScope {
 public:
  explicit QueryScope(QueryContext* ctx)
      : ctx_(ctx),
        io_account_(ctx == nullptr ? nullptr : &ctx->io),
        root_(BindTrace(ctx), obs::Phase::kQuery) {}

  /// Passes `status` through, stamping a failure's code into the trace;
  /// the spans recorded before the error remain as the partial-work
  /// account.
  Status Finish(const Status& status) {
    if (!status.ok() && ctx_ != nullptr && ctx_->trace != nullptr) {
      ctx_->trace->MarkError(status.code_name());
    }
    return status;
  }

 private:
  static obs::QueryTrace* BindTrace(QueryContext* ctx) {
    if (ctx == nullptr || ctx->trace == nullptr) {
      return nullptr;
    }
    ctx->trace->BindContextIo(&ctx->io);
    return ctx->trace;
  }

  QueryContext* ctx_;
  obs::ScopedIoAccount io_account_;
  obs::ScopedSpan root_;
};

}  // namespace

Status Database::CheckQueryEdge(const SkQuery& query,
                                const QueryEdgeInfo& edge) const {
  if (query.loc.edge >= network_->num_edges()) {
    return Status::InvalidArgument("query location edge does not exist");
  }
  if (edge.edge >= network_->num_edges()) {
    return Status::InvalidArgument("query edge does not exist");
  }
  if (edge.n1 >= edge.n2 || edge.n2 >= network_->num_nodes()) {
    return Status::InvalidArgument(
        "query edge endpoints must be (reference, far) ordered nodes");
  }
  if (!(edge.weight > 0.0) || edge.w1 < 0.0 || edge.w1 > edge.weight) {
    return Status::InvalidArgument(
        "query position must lie on its edge (0 <= w1 <= weight)");
  }
  return Status::Ok();
}

Status Database::RunSkQuery(const SkQuery& query, const QueryEdgeInfo& edge,
                            std::vector<SkResult>* out, QueryContext* ctx) {
  out->clear();
  SkQuery q = query;
  DSKS_RETURN_IF_ERROR(NormalizeSkQuery(&q));
  DSKS_RETURN_IF_ERROR(CheckQueryEdge(q, edge));
  QueryScope scope(ctx);
  IncrementalSkSearch search(ccam_graph_.get(), index_.get(), q, edge, ctx);
  SkResult r;
  while (search.Next(&r)) {
    out->push_back(r);
  }
  return scope.Finish(search.status());
}

std::vector<SkResult> Database::RunSkQuery(const SkQuery& query,
                                           const QueryEdgeInfo& edge,
                                           QueryContext* ctx) {
  std::vector<SkResult> results;
  const Status status = RunSkQuery(query, edge, &results, ctx);
  DSKS_CHECK_MSG(status.ok(), "RunSkQuery failed");
  return results;
}

Status Database::RunKnnQuery(const SkQuery& query, const QueryEdgeInfo& edge,
                             size_t k, std::vector<SkResult>* out,
                             QueryContext* ctx) {
  out->clear();
  SkQuery q = query;
  DSKS_RETURN_IF_ERROR(NormalizeSkQuery(&q));
  DSKS_RETURN_IF_ERROR(CheckQueryEdge(q, edge));
  if (k == 0) {
    return Status::InvalidArgument("kNN query needs k >= 1");
  }
  QueryScope scope(ctx);
  return scope.Finish(
      BooleanKnnSearch(ccam_graph_.get(), index_.get(), q, edge, k, out));
}

std::vector<SkResult> Database::RunKnnQuery(const SkQuery& query,
                                            const QueryEdgeInfo& edge,
                                            size_t k) {
  std::vector<SkResult> results;
  const Status status = RunKnnQuery(query, edge, k, &results);
  DSKS_CHECK_MSG(status.ok(), "RunKnnQuery failed");
  return results;
}

Status Database::RunRankedQuery(const RankedQuery& query,
                                const QueryEdgeInfo& edge,
                                std::vector<RankedResult>* out,
                                QueryContext* ctx) {
  out->clear();
  RankedQuery q = query;
  DSKS_RETURN_IF_ERROR(NormalizeSkQuery(&q.sk));
  DSKS_RETURN_IF_ERROR(CheckQueryEdge(q.sk, edge));
  if (q.k == 0) {
    return Status::InvalidArgument("ranked query needs k >= 1");
  }
  if (!(q.alpha >= 0.0 && q.alpha <= 1.0)) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  QueryScope scope(ctx);
  return scope.Finish(
      RankedSkSearch(ccam_graph_.get(), index_.get(), q, edge, out));
}

std::vector<RankedResult> Database::RunRankedQuery(const RankedQuery& query,
                                                   const QueryEdgeInfo& edge) {
  std::vector<RankedResult> results;
  const Status status = RunRankedQuery(query, edge, &results);
  DSKS_CHECK_MSG(status.ok(), "RunRankedQuery failed");
  return results;
}

Status Database::RunDivQuery(const DivQuery& query, const QueryEdgeInfo& edge,
                             bool use_com, DivSearchOutput* out,
                             QueryContext* ctx, OracleStrategy strategy) {
  *out = DivSearchOutput();
  DivQuery q = query;
  DSKS_RETURN_IF_ERROR(NormalizeDivQuery(&q));
  DSKS_RETURN_IF_ERROR(CheckQueryEdge(q.sk, edge));
  QueryScope scope(ctx);
  IncrementalSkSearch search(ccam_graph_.get(), index_.get(), q.sk, edge,
                             ctx);
  PairwiseDistanceOracle oracle(ccam_graph_.get(), 2.0 * q.sk.delta_max,
                                strategy, ctx);
  oracle.SetQueryEdge(edge);
  *out = use_com ? DiversifiedSearchCOM(&search, q, &oracle)
                 : DiversifiedSearchSEQ(&search, q, &oracle);
  return scope.Finish(out->status);
}

DivSearchOutput Database::RunDivQuery(const DivQuery& query,
                                      const QueryEdgeInfo& edge, bool use_com,
                                      QueryContext* ctx,
                                      OracleStrategy strategy) {
  DivSearchOutput out;
  const Status status = RunDivQuery(query, edge, use_com, &out, ctx, strategy);
  DSKS_CHECK_MSG(status.ok(), "RunDivQuery failed");
  return out;
}

}  // namespace dsks
