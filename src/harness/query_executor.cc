#include "harness/query_executor.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "harness/experiment.h"

namespace dsks {

QueryExecutor::QueryExecutor(const ExecutorConfig& config)
    : queue_capacity_(config.queue_capacity),
      max_retries_(config.max_retries),
      retry_backoff_millis_(config.retry_backoff_millis),
      metrics_(config.metrics),
      sampling_(config.sampling),
      flight_recorder_(config.flight_recorder) {
  DSKS_CHECK_MSG(config.num_threads > 0, "executor needs at least one thread");
  DSKS_CHECK_MSG(config.queue_capacity > 0, "queue capacity must be positive");
  if (metrics_ != nullptr) {
    in_flight_ = &metrics_->gauge("dsks.query.in_flight");
  }
  samples_.resize(config.num_threads);
  errors_.assign(config.num_threads, {});
  rejected_.assign(config.num_threads, 0);
  retries_.assign(config.num_threads, 0);
  sampled_.assign(config.num_threads, 0);
  hists_.reserve(config.num_threads);
  contexts_.reserve(config.num_threads);
  for (size_t i = 0; i < config.num_threads; ++i) {
    hists_.push_back(std::make_unique<obs::Histogram>());
    contexts_.push_back(std::make_unique<QueryContext>());
  }
  workers_.reserve(config.num_threads);
  for (size_t i = 0; i < config.num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QueryExecutor::~QueryExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void QueryExecutor::Submit(std::function<void()> task) {
  SubmitQuery([task = std::move(task)](QueryContext* /*ctx*/) {
    task();
    return Status::Ok();
  });
}

void QueryExecutor::SubmitWithContext(
    std::function<void(QueryContext*)> task) {
  SubmitQuery([task = std::move(task)](QueryContext* ctx) {
    task(ctx);
    return Status::Ok();
  });
}

void QueryExecutor::SubmitQuery(std::function<Status(QueryContext*)> task) {
  SubmitQuery(QueryTag{}, std::move(task));
}

void QueryExecutor::SubmitQuery(const QueryTag& tag,
                                std::function<Status(QueryContext*)> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_not_full_.wait(lock,
                         [this] { return queue_.size() < queue_capacity_; });
    queue_.push_back(Task{tag, std::move(task)});
  }
  queue_not_empty_.notify_one();
}

bool QueryExecutor::TrySubmitQuery(const QueryTag& tag,
                                   std::function<Status(QueryContext*)> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= queue_capacity_) {
      return false;  // immediate rejection — the producer never blocks
    }
    queue_.push_back(Task{tag, std::move(task)});
  }
  queue_not_empty_.notify_one();
  return true;
}

bool QueryExecutor::TrySubmitQuery(
    std::function<Status(QueryContext*)> task) {
  return TrySubmitQuery(QueryTag{}, std::move(task));
}

QueryExecutor::DrainResult QueryExecutor::Drain() {
  DrainResult result;
  {
    std::unique_lock<std::mutex> lock(mu_);
    all_idle_.wait(lock,
                   [this] { return queue_.empty() && active_tasks_ == 0; });
    // Workers are either blocked on queue_not_empty_ or about to block; the
    // mutex hand-off orders their sample writes before these reads.
    for (std::vector<double>& s : samples_) {
      result.samples.insert(result.samples.end(), s.begin(), s.end());
      s.clear();
    }
    for (const std::unique_ptr<obs::Histogram>& h : hists_) {
      result.latency.MergeFrom(h->Snapshot());
      h->Reset();
    }
    for (auto& e : errors_) {
      for (size_t c = 0; c < Status::kNumCodes; ++c) {
        result.errors[c] += e[c];
        e[c] = 0;
      }
    }
    for (uint64_t& r : rejected_) {
      result.rejected += r;
      r = 0;
    }
    for (uint64_t& r : retries_) {
      result.retries += r;
      r = 0;
    }
    for (uint64_t& s : sampled_) {
      result.sampled += s;
      s = 0;
    }
  }
  if (metrics_ != nullptr && result.latency.count > 0) {
    metrics_->histogram("executor.query_ms").MergeFrom(result.latency);
    metrics_->counter("executor.queries").Add(result.latency.count);
  }
  if (metrics_ != nullptr && result.sampled > 0) {
    metrics_->counter("dsks.query.sampled").Add(result.sampled);
  }
  if (metrics_ != nullptr) {
    for (size_t c = 0; c < Status::kNumCodes; ++c) {
      if (result.errors[c] > 0) {
        metrics_
            ->counter(std::string("dsks.query.errors.") +
                      Status::CodeName(static_cast<Status::Code>(c)))
            .Add(result.errors[c]);
      }
    }
    if (result.retries > 0) {
      metrics_->counter("dsks.query.retries").Add(result.retries);
    }
    if (result.rejected > 0) {
      metrics_->counter("dsks.query.rejected").Add(result.rejected);
    }
  }
  return result;
}

void QueryExecutor::WorkerLoop(size_t worker_id) {
  QueryContext* ctx = contexts_[worker_id].get();
  // Reusable per-worker trace sink (capacity survives Clear) bound to this
  // worker's context counters, plus this worker's slice of the sampling
  // stream. Both are worker-private: no locks on the trace path.
  obs::QueryTrace trace;
  trace.BindContextIo(&ctx->io);
  obs::TraceSampler sampler(sampling_, worker_id);
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_not_empty_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and no work left
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_tasks_;
    }
    queue_not_full_.notify_one();
    const bool traced = sampler.ShouldTrace();
    if (traced) {
      trace.Clear();
      ctx->trace = &trace;
    }
    if (in_flight_ != nullptr) {
      in_flight_->Add(1.0);
    }
    // Snapshot the context's attribution counters so the delta across the
    // task is this query's exact I/O — with or without a trace.
    const obs::IoCounters io_before = ctx->io;
    // The sample covers retries too — that time was spent on the query.
    Timer timer;
    Status status = task.fn(ctx);
    uint64_t task_retries = 0;
    while (status.IsIOError() && task_retries < max_retries_) {
      ++task_retries;
      if (retry_backoff_millis_ > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            retry_backoff_millis_ * static_cast<double>(task_retries)));
      }
      status = task.fn(ctx);
    }
    const double millis = timer.ElapsedMillis();
    if (in_flight_ != nullptr) {
      in_flight_->Sub(1.0);
    }
    if (traced) {
      ctx->trace = nullptr;
    }
    if (flight_recorder_ != nullptr &&
        sampler.ShouldRecord(traced, status.ok(), millis)) {
      obs::QuerySummary summary;
      summary.kind = task.tag.kind;
      summary.terms = task.tag.terms;
      summary.status = status.ok() ? "OK" : status.code_name();
      summary.error = !status.ok();
      summary.traced = traced;
      summary.total_ms = millis;
      summary.total_io = ctx->io - io_before;
      if (traced && trace.open_depth() == 0) {
        const auto totals = trace.AggregateByPhase();
        for (size_t p = 0; p < obs::kNumPhases; ++p) {
          summary.phase_exclusive_ns[p] = totals[p].exclusive_ns;
          summary.phase_io[p] = totals[p].io;
        }
      }
      flight_recorder_->Record(summary);
    }
    // A query rejected at the validation boundary never ran a search: it
    // counts as an error (and under `rejected`), but not as served
    // throughput — no latency sample, no histogram entry, no qps.
    const bool validation_reject = status.IsInvalidArgument();
    if (!validation_reject) {
      hists_[worker_id]->Record(millis);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!validation_reject) {
        samples_[worker_id].push_back(millis);
      } else {
        ++rejected_[worker_id];
      }
      if (!status.ok()) {
        ++errors_[worker_id][static_cast<size_t>(status.code())];
      }
      retries_[worker_id] += task_retries;
      sampled_[worker_id] += traced ? 1 : 0;
      --active_tasks_;
      if (queue_.empty() && active_tasks_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

ThroughputMetrics SummarizeThroughput(size_t num_threads, double wall_millis,
                                      std::vector<double> samples,
                                      uint64_t errors, uint64_t rejected) {
  ThroughputMetrics m;
  m.num_threads = num_threads;
  m.queries = samples.size();
  m.wall_millis = wall_millis;
  m.errors = errors;
  m.rejected = rejected;
  if (samples.size() + rejected > 0) {
    m.error_rate = static_cast<double>(errors) /
                   static_cast<double>(samples.size() + rejected);
  }
  if (samples.empty()) {
    return m;
  }
  m.qps = wall_millis > 0.0
              ? static_cast<double>(samples.size()) / (wall_millis / 1000.0)
              : 0.0;
  double sum = 0.0;
  for (double s : samples) {
    sum += s;
  }
  m.avg_millis = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  // Shared nearest-rank definition, matching the sequential harness's p95.
  m.p50_millis = obs::NearestRankPercentile(samples, 50);
  m.p95_millis = obs::NearestRankPercentile(samples, 95);
  m.p99_millis = obs::NearestRankPercentile(samples, 99);
  return m;
}

namespace {

ThroughputMetrics RunConcurrent(
    Database* db, const Workload& workload, size_t num_threads, size_t repeat,
    const obs::TraceSamplerConfig& sampling, obs::FlightRecorder* recorder,
    const char* kind,
    const std::function<Status(const WorkloadQuery&, QueryContext*)>&
        run_one) {
  DSKS_CHECK_MSG(!workload.queries.empty(), "empty workload");
  DSKS_CHECK_MSG(repeat > 0, "repeat must be positive");
  // Yielding delay: a blocked "disk read" frees its core, so concurrent
  // queries overlap I/O the way they would on a real disk.
  ScopedIoDelay delay(db, /*yielding=*/true);
  ExecutorConfig config;
  config.num_threads = num_threads;
  config.sampling = sampling;
  config.flight_recorder = recorder;
  QueryExecutor exec(config);
  Timer wall;
  for (size_t r = 0; r < repeat; ++r) {
    for (const WorkloadQuery& wq : workload.queries) {
      QueryTag tag;
      tag.kind = kind;
      tag.terms = static_cast<uint32_t>(wq.sk.terms.size());
      exec.SubmitQuery(tag, [&run_one, &wq](QueryContext* ctx) {
        return run_one(wq, ctx);
      });
    }
  }
  QueryExecutor::DrainResult drained = exec.Drain();
  ThroughputMetrics m =
      SummarizeThroughput(num_threads, wall.ElapsedMillis(),
                          std::move(drained.samples), drained.total_errors(),
                          drained.rejected);
  m.errors_by_code = drained.errors;
  m.retries = drained.retries;
  m.sampled = drained.sampled;
  m.sample_rate = sampling.sample_every;
  m.histogram = drained.latency;
  return m;
}

}  // namespace

ThroughputMetrics RunSkWorkloadConcurrent(
    Database* db, const Workload& workload, size_t num_threads, size_t repeat,
    const obs::TraceSamplerConfig& sampling, obs::FlightRecorder* recorder) {
  return RunConcurrent(db, workload, num_threads, repeat, sampling, recorder,
                       "sk",
                       [db](const WorkloadQuery& wq, QueryContext* ctx) {
                         std::vector<SkResult> results;
                         return db->RunSkQuery(wq.sk, wq.edge, &results, ctx);
                       });
}

ThroughputMetrics RunDivWorkloadConcurrent(
    Database* db, const Workload& workload, size_t k, double lambda,
    bool use_com, size_t num_threads, size_t repeat,
    const obs::TraceSamplerConfig& sampling, obs::FlightRecorder* recorder) {
  return RunConcurrent(
      db, workload, num_threads, repeat, sampling, recorder,
      use_com ? "div-com" : "div-seq",
      [db, k, lambda, use_com](const WorkloadQuery& wq, QueryContext* ctx) {
        DivQuery dq;
        dq.sk = wq.sk;
        dq.k = k;
        dq.lambda = lambda;
        DivSearchOutput out;
        return db->RunDivQuery(dq, wq.edge, use_com, &out, ctx);
      });
}

}  // namespace dsks
