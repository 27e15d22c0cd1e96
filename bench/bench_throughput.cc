// Concurrent query throughput: many SK / diversified searches sharing one
// disk-resident SIF index and one LRU buffer pool, executed by the
// QueryExecutor thread pool at 1/2/4/8 threads. The paper's experiments
// (§5) are sequential; this bench measures what the latched storage layer
// adds on top — aggregate queries/sec and tail latency under concurrency.
//
// Knobs: DSKS_BENCH_SCALE, DSKS_BENCH_QUERIES (as everywhere),
// DSKS_BENCH_THREADS (comma list, default "1,2,4,8"),
// DSKS_IO_DELAY_US (per-read simulated latency, default 50),
// DSKS_BENCH_SAMPLE (trace 1-in-N queries on the timed path, default 0 =
// off so the perf baseline stays comparable; the check.sh overhead gate
// compares a sampled run against the unsampled smoke),
// DSKS_BENCH_STATS_PORT (serve /metrics, /varz, /tracez on that port
// while the bench runs; 0 picks an ephemeral port, printed as a "STATS
// http://..." line), DSKS_BENCH_STATS_LINGER_MS (keep serving that long
// after the benches finish, so scrapers never race bench exit).
//
// Besides the table, every measurement is emitted as one JSON line
// (prefix "JSON ") for scripted consumption. The measured series run
// untraced unless DSKS_BENCH_SAMPLE is set (each record says so via
// "sample_rate"/"sampled_queries"); a separate single-threaded traced
// pass per workload emits a "phase_profile" record attributing time and
// I/O to the query phases.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "harness/query_executor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "server/query_server.h"

using namespace dsks;         // NOLINT
using namespace dsks::bench;  // NOLINT

namespace {

std::vector<size_t> ThreadCountsFromEnv() {
  const char* s = std::getenv("DSKS_BENCH_THREADS");
  if (s == nullptr) {
    return {1, 2, 4, 8};
  }
  std::vector<size_t> counts;
  const std::string csv = s;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    const size_t n =
        static_cast<size_t>(std::atoll(csv.substr(pos, comma - pos).c_str()));
    if (n > 0) {
      counts.push_back(n);
    }
    pos = comma + 1;
  }
  return counts.empty() ? std::vector<size_t>{1} : counts;
}

/// Accumulates every measurement for the BENCH_throughput.json artifact.
std::vector<std::string>& JsonRecords() {
  static std::vector<std::string> records;
  return records;
}

/// Set once in main from BenchBackend; stamped into every JSON record so
/// sim and file numbers can never be compared silently.
const char* g_backend_name = "sim";

/// The I/O regime ("sync", the only one), stamped like the backend name
/// so records stay comparable with perf_gate.py's regime check.
const char* g_io_name = "sync";

/// Sampled-tracing policy for the measured series, from DSKS_BENCH_SAMPLE.
/// Off by default: a sampled run is a different experiment than the perf
/// baseline, and every record says which one it was.
obs::TraceSamplerConfig g_sampling;

/// Sink for the sampled queries' summaries; also what /tracez serves when
/// the stats server is up. Null when neither is enabled.
obs::FlightRecorder* g_recorder = nullptr;

/// Live stats endpoint over GlobalMetrics + the flight recorder, gated on
/// DSKS_BENCH_STATS_PORT: a QueryServer on the bench's database, whose
/// HTTP routes serve both. Construction binds the db's pool/disk counters
/// into the registry and prints one discoverable "STATS http://..." line;
/// destruction optionally lingers (DSKS_BENCH_STATS_LINGER_MS) so external
/// scrapers started against that line never race bench exit.
class ScopedStatsEndpoint {
 public:
  ScopedStatsEndpoint(Database* db, obs::FlightRecorder* recorder) {
    const char* port_env = std::getenv("DSKS_BENCH_STATS_PORT");
    if (port_env == nullptr) {
      return;
    }
    db_ = db;
    db_->BindMetrics(&obs::GlobalMetrics());
    server::ServerConfig config;
    config.service.metrics = &obs::GlobalMetrics();
    config.service.flight_recorder = recorder;
    server_ = std::make_unique<server::QueryServer>(db, config);
    const Status started =
        server_->Start(static_cast<uint16_t>(std::atoi(port_env)));
    if (!started.ok()) {
      std::fprintf(stderr, "stats server failed to start: %s\n",
                   started.message().c_str());
      server_.reset();
      return;
    }
    std::printf("STATS http://127.0.0.1:%u\n",
                static_cast<unsigned>(server_->port()));
    std::fflush(stdout);
  }

  ~ScopedStatsEndpoint() {
    if (server_ != nullptr) {
      // Flush before the linger opens: with stdout redirected to a file the
      // bench's final lines are fully buffered, and scrapers keyed off that
      // file must see them while the server is still answering.
      std::fflush(stdout);
      if (const char* linger = std::getenv("DSKS_BENCH_STATS_LINGER_MS");
          linger != nullptr && std::atoi(linger) > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::atoi(linger)));
      }
      server_->Stop();
    }
    if (db_ != nullptr) {
      db_->UnbindMetrics(&obs::GlobalMetrics());
    }
  }

 private:
  Database* db_ = nullptr;
  std::unique_ptr<server::QueryServer> server_;
};

void EmitJson(const char* workload, const ThroughputMetrics& m,
              double speedup) {
  // hist_* come from the merged per-worker histograms (bucketed, so upper
  // bounds); the exact sample percentiles stay the primary numbers.
  // "cold":0 marks the warm-cache regime — the perf gate refuses to
  // compare cold and warm records (different experiments).
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"throughput\",\"backend\":\"%s\",\"io\":\"%s\","
      "\"workload\":\"%s\","
      "\"cold\":0,\"prefetch\":1,\"threads\":%zu,"
      "\"queries\":%zu,\"wall_ms\":%.2f,\"qps\":%.1f,\"avg_ms\":%.3f,"
      "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"speedup\":%.2f,"
      "\"errors\":%llu,\"error_rate\":%.6f,"
      "\"hist_count\":%llu,\"hist_p50_ms\":%.3f,\"hist_p99_ms\":%.3f,"
      "\"sample_rate\":%u,\"sampled_queries\":%llu}",
      g_backend_name, g_io_name, workload, m.num_threads,
      m.queries, m.wall_millis, m.qps,
      m.avg_millis,
      m.p50_millis, m.p95_millis, m.p99_millis, speedup,
      static_cast<unsigned long long>(m.errors), m.error_rate,
      static_cast<unsigned long long>(m.histogram.count),
      m.histogram.Percentile(50), m.histogram.Percentile(99), m.sample_rate,
      static_cast<unsigned long long>(m.sampled));
  std::printf("JSON %s\n", buf);
  JsonRecords().push_back(buf);
}

/// Cold-cache A/B: single-threaded, the buffer pool cleared before every
/// query so each one pays its full miss path — the regime where batched
/// misses and readahead show up (a warm pool hides them). Runs the
/// workload twice, prefetch off then on; the off run is the baseline the
/// on run's pool_misses reduction is judged against (EXPERIMENTS.md).
void RunColdSeries(const char* workload, Database* db, const Workload& wl,
                   bool div) {
  // Sleeping delay, not the sequential harness's busy-wait: a blocking
  // read frees its core, and the cold A/B keeps the same device model as
  // the concurrent series (ScopedIoDelay's yielding mode).
  ScopedIoDelay delay(db, /*yielding=*/true);
  TablePrinter table({"prefetch", "queries", "wall ms", "qps", "avg ms",
                      "p95 ms", "misses", "reads", "pf issued", "pf hits",
                      "pf wasted", "pf dropped"});
  QueryContext ctx;
  uint64_t baseline_misses = 0;
  for (int mode = 0; mode < 2; ++mode) {
    const bool prefetch_on = mode == 1;
    db->SetPrefetchEnabled(prefetch_on);
    db->ResetCounters();
    obs::Histogram hist;
    std::vector<double> lat;
    lat.reserve(wl.queries.size());
    const auto batch_start = std::chrono::steady_clock::now();
    for (const WorkloadQuery& wq : wl.queries) {
      const Status cleared = db->pool()->Clear();
      DSKS_CHECK_MSG(cleared.ok(), "cold-cache clear on a faulty disk");
      const auto q_start = std::chrono::steady_clock::now();
      if (div) {
        DivQuery dq;
        dq.sk = wq.sk;
        dq.k = 10;
        dq.lambda = 0.8;
        db->RunDivQuery(dq, wq.edge, /*use_com=*/true, &ctx);
      } else {
        db->RunSkQuery(wq.sk, wq.edge, &ctx);
      }
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - q_start)
              .count();
      lat.push_back(ms);
      hist.Record(ms);
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - batch_start)
                               .count();
    std::sort(lat.begin(), lat.end());
    auto pct = [&lat](double p) {
      if (lat.empty()) {
        return 0.0;
      }
      const size_t i = static_cast<size_t>(p * (lat.size() - 1) / 100.0);
      return lat[i];
    };
    double sum = 0.0;
    for (double v : lat) {
      sum += v;
    }
    const size_t n = lat.size();
    const double qps = wall_ms > 0.0 ? 1000.0 * n / wall_ms : 0.0;
    const BufferPoolStatsSnapshot pool = db->pool()->stats_snapshot();
    const uint64_t reads = db->disk()->stats_snapshot().reads;
    if (!prefetch_on) {
      baseline_misses = pool.misses;
    }
    const obs::HistogramSnapshot hs = hist.Snapshot();
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"throughput\",\"backend\":\"%s\",\"io\":\"%s\","
        "\"workload\":\"%s\","
        "\"cold\":1,\"prefetch\":%d,\"threads\":1,"
        "\"queries\":%zu,\"wall_ms\":%.2f,\"qps\":%.1f,\"avg_ms\":%.3f,"
        "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"speedup\":1.00,"
        "\"errors\":0,\"error_rate\":0,"
        "\"hist_count\":%llu,\"hist_p50_ms\":%.3f,\"hist_p99_ms\":%.3f,"
        "\"sample_rate\":0,\"sampled_queries\":0,"
        "\"pool_misses\":%llu,\"disk_reads\":%llu,"
        "\"prefetch_issued\":%llu,\"prefetch_hits\":%llu,"
        "\"prefetch_wasted\":%llu,\"prefetch_dropped\":%llu}",
        g_backend_name, g_io_name, workload, prefetch_on ? 1 : 0,
        n, wall_ms, qps,
        n > 0 ? sum / n : 0.0, pct(50), pct(95), pct(99),
        static_cast<unsigned long long>(hs.count), hs.Percentile(50),
        hs.Percentile(99), static_cast<unsigned long long>(pool.misses),
        static_cast<unsigned long long>(reads),
        static_cast<unsigned long long>(pool.prefetch_issued),
        static_cast<unsigned long long>(pool.prefetch_hits),
        static_cast<unsigned long long>(pool.prefetch_wasted),
        static_cast<unsigned long long>(pool.prefetch_dropped));
    std::printf("JSON %s\n", buf);
    JsonRecords().push_back(buf);
    table.AddRow({prefetch_on ? "on" : "off", std::to_string(n),
                  TablePrinter::Fmt(wall_ms, 1), TablePrinter::Fmt(qps, 1),
                  TablePrinter::Fmt(n > 0 ? sum / n : 0.0, 3),
                  TablePrinter::Fmt(pct(95), 3), std::to_string(pool.misses),
                  std::to_string(reads), std::to_string(pool.prefetch_issued),
                  std::to_string(pool.prefetch_hits),
                  std::to_string(pool.prefetch_wasted),
                  std::to_string(pool.prefetch_dropped)});
    if (prefetch_on && baseline_misses > 0) {
      std::printf("[%s cold] blocking misses: %llu -> %llu (%.1f%% fewer)\n",
                  workload,
                  static_cast<unsigned long long>(baseline_misses),
                  static_cast<unsigned long long>(pool.misses),
                  100.0 * (1.0 - static_cast<double>(pool.misses) /
                                     static_cast<double>(baseline_misses)));
    }
  }
  db->SetPrefetchEnabled(true);
  std::printf("\n[%s cold-cache A/B]\n", workload);
  table.Print();
}

void EmitPhaseProfile(const char* workload, Database* db, const Workload& wl,
                      bool div) {
  // Single-threaded with the spin-wait delay of the sequential harness, so
  // phase times include the simulated I/O cost. The I/O deltas come from
  // the context's own counters, which Database::Run* binds to the trace.
  ScopedIoDelay delay(db);
  db->ResetCounters();
  obs::QueryTrace trace;
  QueryContext ctx;
  ctx.trace = &trace;
  const size_t n = std::min<size_t>(wl.queries.size(), 32);
  for (size_t i = 0; i < n; ++i) {
    const WorkloadQuery& wq = wl.queries[i];
    if (div) {
      DivQuery dq;
      dq.sk = wq.sk;
      dq.k = 10;
      dq.lambda = 0.8;
      db->RunDivQuery(dq, wq.edge, /*use_com=*/true, &ctx);
    } else {
      db->RunSkQuery(wq.sk, wq.edge, &ctx);
    }
  }
  const auto totals = trace.AggregateByPhase();
  std::string buf;
  char item[256];
  std::snprintf(item, sizeof(item),
                "{\"bench\":\"throughput\",\"backend\":\"%s\",\"io\":\"%s\","
                "\"workload\":\"%s\",\"queries\":%zu,\"phase_profile\":{",
                g_backend_name, g_io_name, workload, n);
  buf += item;
  bool first = true;
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    const auto& t = totals[p];
    if (t.spans == 0) {
      continue;
    }
    std::snprintf(item, sizeof(item),
                  "%s\"%s\":{\"spans\":%llu,\"ms\":%.3f,\"pool_hits\":%llu,"
                  "\"pool_misses\":%llu,\"disk_reads\":%llu,"
                  "\"prefetched_pages\":%llu}",
                  first ? "" : ",", obs::PhaseName(static_cast<obs::Phase>(p)),
                  static_cast<unsigned long long>(t.spans),
                  static_cast<double>(t.exclusive_ns) / 1e6,
                  static_cast<unsigned long long>(t.io.pool_hits),
                  static_cast<unsigned long long>(t.io.pool_misses),
                  static_cast<unsigned long long>(t.io.disk_reads),
                  static_cast<unsigned long long>(t.io.prefetched_pages));
    buf += item;
    first = false;
  }
  buf += "}}";
  std::printf("JSON %s\n", buf.c_str());
  JsonRecords().push_back(buf);
}

void RunSeries(const char* workload, Database* db, const Workload& wl,
               const std::vector<size_t>& thread_counts, size_t repeat,
               bool div) {
  TablePrinter table({"threads", "queries", "wall ms", "qps", "avg ms",
                      "p50 ms", "p95 ms", "p99 ms", "speedup"});
  double base_qps = 0.0;
  for (size_t threads : thread_counts) {
    db->ResetCounters();
    const ThroughputMetrics m =
        div ? RunDivWorkloadConcurrent(db, wl, /*k=*/10, /*lambda=*/0.8,
                                       /*use_com=*/true, threads, repeat,
                                       g_sampling, g_recorder)
            : RunSkWorkloadConcurrent(db, wl, threads, repeat, g_sampling,
                                      g_recorder);
    if (base_qps == 0.0) {
      base_qps = m.qps;
    }
    const double speedup = base_qps > 0.0 ? m.qps / base_qps : 0.0;
    table.AddRow({std::to_string(m.num_threads), std::to_string(m.queries),
                  TablePrinter::Fmt(m.wall_millis, 1),
                  TablePrinter::Fmt(m.qps, 1), TablePrinter::Fmt(m.avg_millis, 3),
                  TablePrinter::Fmt(m.p50_millis, 3),
                  TablePrinter::Fmt(m.p95_millis, 3),
                  TablePrinter::Fmt(m.p99_millis, 3),
                  TablePrinter::Fmt(speedup, 2)});
    EmitJson(workload, m, speedup);
  }
  std::printf("\n[%s]\n", workload);
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  bool cold = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cold") == 0) {
      cold = true;
    }
  }
  if (const char* env = std::getenv("DSKS_BENCH_COLD");
      env != nullptr && env[0] == '1') {
    cold = true;
  }

  PrintHeader(cold ? "Cold-cache query cost, prefetch off vs on"
                   : "Concurrent query throughput vs thread count",
              "no paper figure — production-scaling experiment");
  BenchBackend backend(argc, argv);
  g_backend_name = backend.name();
  g_io_name = backend.io_name();
  std::printf("storage backend: %s%s\n", g_backend_name,
              cold ? " (cold cache)" : "");
  const size_t num_queries = QueriesFromEnv(200);
  const std::vector<size_t> thread_counts = ThreadCountsFromEnv();
  // Every thread count processes the same total batch, so wall time (and
  // qps) are directly comparable across rows.
  const size_t repeat = 4;

  if (const char* env = std::getenv("DSKS_BENCH_SAMPLE");
      env != nullptr && std::atoi(env) > 0) {
    g_sampling.sample_every = static_cast<uint32_t>(std::atoi(env));
    g_sampling.seed = 42;
    std::printf("sampled tracing: 1 in %u\n", g_sampling.sample_every);
  }

  Database db(Scaled(PresetNA()), backend.options());
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  // The recorder exists whenever something consumes it: the sampling
  // policy files summaries into it, and /tracez serves it.
  obs::FlightRecorder recorder;
  if (g_sampling.sample_every > 0 ||
      std::getenv("DSKS_BENCH_STATS_PORT") != nullptr) {
    recorder.set_occupancy_gauge(
        &obs::GlobalMetrics().gauge("dsks.flight_recorder.entries"));
    g_recorder = &recorder;
  }
  ScopedStatsEndpoint stats(&db, g_recorder);

  WorkloadConfig wc;
  wc.num_queries = num_queries;
  wc.seed = 4242;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  if (cold) {
    RunColdSeries("sk", &db, wl, /*div=*/false);
    RunColdSeries("div-com", &db, wl, /*div=*/true);
    EmitPhaseProfile("sk", &db, wl, /*div=*/false);
    WriteJsonArrayFile("BENCH_throughput.json", JsonRecords());
    std::printf(
        "\nExpected: with prefetch on, pool_misses (blocking miss-path\n"
        "reads) drop — readahead turns demand misses into prefetch hits —\n"
        "while results stay bit-identical (prefetch_test asserts this).\n");
    return 0;
  }

  RunSeries("sk", &db, wl, thread_counts, repeat, /*div=*/false);
  EmitPhaseProfile("sk", &db, wl, /*div=*/false);
  RunSeries("div-com", &db, wl, thread_counts, repeat, /*div=*/true);
  EmitPhaseProfile("div-com", &db, wl, /*div=*/true);

  WriteJsonArrayFile("BENCH_throughput.json", JsonRecords());

  std::printf(
      "\nExpected: qps grows with threads (misses overlap their simulated\n"
      "I/O latency outside the pool latch); p99 grows more slowly than the\n"
      "thread count since queries are independent reads.\n");
  return 0;
}
