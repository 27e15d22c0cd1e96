#ifndef DSKS_HARNESS_QUERY_EXECUTOR_H_
#define DSKS_HARNESS_QUERY_EXECUTOR_H_

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/query_context.h"
#include "datagen/workload.h"
#include "harness/database.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace dsks {

/// Thread-pool settings for QueryExecutor.
struct ExecutorConfig {
  /// Worker threads running queries. 1 degenerates to (almost) the
  /// sequential harness, with one extra thread doing the work.
  size_t num_threads = 1;
  /// Bound on queued-but-unstarted tasks; Submit blocks when the queue is
  /// full so a fast producer cannot outrun the workers unboundedly.
  size_t queue_capacity = 1024;
  /// Registry each Drain publishes into ("executor.query_ms" histogram,
  /// "executor.queries" counter, "dsks.query.errors.<CODE>" counters).
  /// Null disables publication.
  obs::MetricsRegistry* metrics = &obs::GlobalMetrics();
  /// Bounded retry for *transient* faults: a query submitted with
  /// SubmitQuery that fails with IO_ERROR is re-run up to this many times
  /// before counting as failed. Corruption and invalid-argument failures
  /// never retry — re-reading a bad checksum or a bad query cannot help.
  size_t max_retries = 0;
  /// Backoff before retry r (1-based) is r * this many milliseconds.
  double retry_backoff_millis = 0.1;
  /// Always-on sampled tracing: each worker traces a deterministic
  /// 1-in-N subset of the queries it runs (sampling.sample_every; worker
  /// id is the sampler stream) into a reusable per-worker QueryTrace.
  /// Defaults to off, which keeps the per-query cost at one branch.
  obs::TraceSamplerConfig sampling;
  /// Sink for completed-query summaries: every sampled query, every
  /// errored query, and every query slower than sampling.slow_ms records
  /// one entry (see TraceSampler::ShouldRecord). Null disables recording;
  /// the recorder must outlive the executor.
  obs::FlightRecorder* flight_recorder = nullptr;
};

/// Identity carried alongside a submitted query into its flight-recorder
/// entry. Both fields are optional; `kind` must be a static-lifetime
/// string (a literal, a workload label).
struct QueryTag {
  const char* kind = "query";
  uint32_t terms = 0;
};

/// Aggregate results of a concurrent batch: throughput plus the latency
/// distribution merged from every worker's per-thread samples.
struct ThroughputMetrics {
  size_t num_threads = 0;
  size_t queries = 0;
  /// Wall-clock time of the whole batch (submit of the first query to
  /// drain), which is what queries/sec is computed from.
  double wall_millis = 0.0;
  double qps = 0.0;
  double avg_millis = 0.0;
  double p50_millis = 0.0;
  double p95_millis = 0.0;
  double p99_millis = 0.0;
  /// Queries that ended with a non-OK Status (after any retries). Failed
  /// queries that actually ran still count in `queries` and in the latency
  /// distribution — the time was spent either way. Queries rejected at the
  /// validation boundary (INVALID_ARGUMENT) count here and in `rejected`
  /// but NOT in `queries`/qps/percentiles: they never ran a search, and
  /// letting them inflate throughput skews benches under malformed-input
  /// chaos.
  uint64_t errors = 0;
  /// Validation-boundary rejections (INVALID_ARGUMENT), a subset of
  /// `errors`; excluded from `queries` and the latency distribution.
  uint64_t rejected = 0;
  /// errors / (queries + rejected) (0 when the batch is empty).
  double error_rate = 0.0;
  /// Failure breakdown indexed by Status::Code.
  std::array<uint64_t, Status::kNumCodes> errors_by_code{};
  /// Transient-fault re-runs that happened under the retry policy.
  uint64_t retries = 0;
  /// Queries that ran traced under the sampling policy (0 when off).
  uint64_t sampled = 0;
  /// The sampling config's 1-in-N (0 when sampling was off).
  uint32_t sample_rate = 0;
  /// Merge of the per-worker latency histograms for the batch; lets benches
  /// report the full distribution without keeping every raw sample.
  obs::HistogramSnapshot histogram;
};

/// Fixed-size thread pool with a bounded work queue, built for running
/// many independent read-only queries against one shared Database (whose
/// storage layer is concurrent-reader-safe — see DESIGN.md "Threading
/// model"). Each worker times every task it runs and keeps its latency
/// samples in a private vector; Drain() waits for the queue to empty and
/// merges the per-thread samples under the pool mutex, so no sample is
/// ever written and read concurrently.
///
/// Every worker owns a QueryContext, handed to tasks submitted with
/// SubmitWithContext — steady-state queries then reuse the worker's scratch
/// instead of allocating per query.
class QueryExecutor {
 public:
  explicit QueryExecutor(const ExecutorConfig& config);

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Drains outstanding work, then joins the workers.
  ~QueryExecutor();

  /// Enqueues one task; blocks while the queue is at capacity. Tasks must
  /// not touch single-writer state of the shared database (index builds,
  /// SetCapacity, Clear, counter resets).
  void Submit(std::function<void()> task);

  /// Like Submit, but the task receives the executing worker's private
  /// QueryContext.
  void SubmitWithContext(std::function<void(QueryContext*)> task);

  /// Enqueues a query that reports failure through a Status instead of
  /// aborting. A non-OK result is a *recorded failure*, never a crash:
  /// IO_ERROR failures are re-run up to config.max_retries times with
  /// linear backoff, and whatever Status survives is tallied per code in
  /// the next Drain (and into "dsks.query.errors.<CODE>"). The task must
  /// be safe to re-run from scratch — every Run*Query is.
  void SubmitQuery(std::function<Status(QueryContext*)> task);

  /// Like SubmitQuery, with an identity tag that shows up in the query's
  /// flight-recorder entry (when the sampling/recording policy keeps one).
  void SubmitQuery(const QueryTag& tag,
                   std::function<Status(QueryContext*)> task);

  /// Non-blocking admission: enqueues like SubmitQuery but never waits on
  /// a full queue. Returns false when the task was NOT admitted (queue
  /// full); the caller owns the rejection (a server answers
  /// RESOURCE_EXHAUSTED and counts the shed). This is the server-side
  /// admission path; the blocking SubmitQuery stays for benches, where
  /// back-pressure on the producer is the point.
  bool TrySubmitQuery(const QueryTag& tag,
                      std::function<Status(QueryContext*)> task);
  bool TrySubmitQuery(std::function<Status(QueryContext*)> task);

  /// What one Drain hands back: every per-thread latency sample plus the
  /// merge of the per-worker histograms over the same tasks (so
  /// latency.count == samples.size() always), plus the failure tallies of
  /// the batch.
  struct DrainResult {
    std::vector<double> samples;  // milliseconds, unordered
    obs::HistogramSnapshot latency;
    /// Final (post-retry) failures by Status::Code.
    std::array<uint64_t, Status::kNumCodes> errors{};
    /// Validation-boundary rejections (INVALID_ARGUMENT results), also
    /// tallied in errors[kInvalidArgument] but excluded from samples — a
    /// rejected query never ran a search, so it must not count as served
    /// throughput.
    uint64_t rejected = 0;
    /// Transient-fault re-runs performed by the retry policy.
    uint64_t retries = 0;
    /// Queries of the batch that ran traced under the sampling policy.
    uint64_t sampled = 0;

    uint64_t total_errors() const {
      uint64_t n = 0;
      for (const uint64_t e : errors) {
        n += e;
      }
      return n;
    }
  };

  /// Blocks until every submitted task has finished, then returns the
  /// consumed samples/histogram and publishes the batch into the
  /// configured metrics registry. The executor stays usable for further
  /// Submit calls.
  DrainResult Drain();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop(size_t worker_id);

  const size_t queue_capacity_;
  const size_t max_retries_;
  const double retry_backoff_millis_;

  std::mutex mu_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::condition_variable all_idle_;
  /// Queued tasks report through a Status; void submissions are wrapped to
  /// return OK so one queue serves both.
  struct Task {
    QueryTag tag;
    std::function<Status(QueryContext*)> fn;
  };
  std::deque<Task> queue_;
  size_t active_tasks_ = 0;
  bool stopping_ = false;

  /// samples_[i] is written by worker i between queue pops (i.e. while it
  /// owns an active task) and read by Drain only when no task is active.
  std::vector<std::vector<double>> samples_;
  /// hists_[i] records the same latencies as samples_[i]; Histogram is
  /// internally lock-free, and the active_tasks_ hand-off orders worker
  /// records before Drain's snapshot.
  std::vector<std::unique_ptr<obs::Histogram>> hists_;
  /// errors_[i]/retries_[i] follow the same ownership discipline as
  /// samples_[i]: written by worker i under mu_, read by Drain when idle.
  std::vector<std::array<uint64_t, Status::kNumCodes>> errors_;
  std::vector<uint64_t> rejected_;
  std::vector<uint64_t> retries_;
  /// sampled_[i]: queries worker i ran traced; same discipline as retries_.
  std::vector<uint64_t> sampled_;
  /// contexts_[i] is touched only by worker i.
  std::vector<std::unique_ptr<QueryContext>> contexts_;
  std::vector<std::thread> workers_;
  obs::MetricsRegistry* metrics_;
  const obs::TraceSamplerConfig sampling_;
  obs::FlightRecorder* const flight_recorder_;
  /// Resolved once at construction; workers Add/Sub around each task.
  obs::Gauge* in_flight_ = nullptr;
};

/// Computes the latency distribution of `samples` plus queries/sec from
/// the batch wall time. `errors` (failed queries among the samples) feeds
/// the error-rate fields.
ThroughputMetrics SummarizeThroughput(size_t num_threads, double wall_millis,
                                      std::vector<double> samples,
                                      uint64_t errors = 0,
                                      uint64_t rejected = 0);

/// Runs `repeat` passes over the workload's SK queries on `num_threads`
/// workers sharing `db` and reports aggregate throughput. Applies the same
/// ScopedIoDelay as the sequential harness so numbers are comparable.
/// `sampling`/`recorder` feed the executor's sampled-tracing policy (both
/// default to off/none).
ThroughputMetrics RunSkWorkloadConcurrent(
    Database* db, const Workload& workload, size_t num_threads,
    size_t repeat = 1, const obs::TraceSamplerConfig& sampling = {},
    obs::FlightRecorder* recorder = nullptr);

/// Concurrent counterpart of RunDivWorkload.
ThroughputMetrics RunDivWorkloadConcurrent(
    Database* db, const Workload& workload, size_t k, double lambda,
    bool use_com, size_t num_threads, size_t repeat = 1,
    const obs::TraceSamplerConfig& sampling = {},
    obs::FlightRecorder* recorder = nullptr);

}  // namespace dsks

#endif  // DSKS_HARNESS_QUERY_EXECUTOR_H_
