// dsks_perfbench: the repository benchmark. Runs one named workload
// against the public Database / QueryExecutor / QueryServer APIs on the
// file backend with zero simulated I/O delay, checks every answer against
// a reference, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (--trace 1) as the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See perfbench/README.md for the workloads and the metric map.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/presets.h"
#include "harness/database.h"
#include "probes.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dsks::Database;

constexpr size_t kSetupRepeats = 3;
constexpr size_t kQueries = 4096;
constexpr size_t kMissProbeSamples = 2000;
constexpr double kHitProbeSeconds = 0.5;

enum class Loop { kSkDisk, kDivMem, kMixedTcp };

struct WorkloadSpec {
  const char* name;
  Loop loop;
  double pool_fraction;
  double div_share;
  size_t probe_threads;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"sk-disk-1t", Loop::kSkDisk, 0.02, 0.0, kSkClients},
    {"div-mem-3t", Loop::kDivMem, 1.0, 1.0, kDivWorkers},
    {"mixed-tcp-4c", Loop::kMixedTcp, 0.02, kMixedDivShare,
     kMixedServiceWorkers},
};

/// Removes the index file and its checksum sidecar on every exit path.
struct IndexFileGuard {
  std::string path;
  ~IndexFileGuard() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".crc", ec);
  }
};

struct Setup {
  std::unique_ptr<Database> db;
  double setup_s = 0.0;
  double dataset_s = 0.0;
  double index_build_s = 0.0;
  uint64_t index_bytes = 0;
};

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Database construction + BuildIndex + PrepareForQueries, repeated
/// kSetupRepeats times; reports medians and keeps the last database.
Setup BuildDatabase(const Options& opts, const WorkloadSpec& spec,
                    const std::string& index_path) {
  dsks::DatasetConfig config = dsks::PresetNA();
  if (opts.scale != 1.0) {
    config = dsks::ScalePreset(config, opts.scale);
  }
  dsks::DiskOptions disk;
  disk.backend = dsks::DiskBackendKind::kFile;
  disk.path = index_path;
  disk.o_direct = false;
  disk.io = dsks::IoMode::kSync;
  dsks::IndexOptions index;
  index.kind = dsks::IndexKind::kSIF;

  Setup s;
  std::vector<double> total, dataset, build;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    s.db.reset();  // one index file at a time
    const int64_t t0 = NowNs();
    s.db = std::make_unique<Database>(config, disk);
    const int64_t t1 = NowNs();
    const Database::IndexBuildInfo info = s.db->BuildIndex(index);
    const int64_t t2 = NowNs();
    s.db->PrepareForQueries(spec.pool_fraction);
    const int64_t t3 = NowNs();
    total.push_back(Seconds(t0, t3));
    dataset.push_back(Seconds(t0, t1));
    build.push_back(Seconds(t1, t2));
    s.index_bytes = info.size_bytes;
  }
  // Zero simulated latency, stated explicitly (a no-op on the file
  // backend, whose reads are real).
  s.db->disk()->set_read_delay_us(0.0);
  s.db->disk()->set_read_delay_yields(false);
  s.setup_s = Median(total);
  s.dataset_s = Median(dataset);
  s.index_build_s = Median(build);
  return s;
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

void PrintRegime(const Options& opts, const WorkloadSpec& spec,
                 Database* db, const std::vector<BenchQuery>& queries) {
  std::printf(
      "REGIME {\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
      "\"build_type\":\"%s\",\"ndebug\":%s,\"backend\":\"%s\",\"io\":\"%s\","
      "\"o_direct\":false,\"read_delay_us\":%g,\"prefetch\":%s,"
      "\"pool_frames\":%zu,\"dataset_pages\":%zu,\"pool_fraction\":%g,"
      "\"preset\":\"%s\",\"scale\":%g,\"index\":\"SIF\",\"queries\":%zu,"
      "\"queries_fingerprint\":\"%016llx\"}\n",
      spec.name, static_cast<unsigned long long>(opts.seed),
      std::thread::hardware_concurrency(), DSKS_PERFBENCH_BUILD_TYPE,
      kNdebug ? "true" : "false", db->disk()->backend_name(),
      dsks::IoModeName(dsks::IoMode::kSync), db->disk()->read_delay_us(),
      db->prefetch_enabled() ? "true" : "false", db->pool()->capacity(),
      db->disk()->num_pages(), spec.pool_fraction, db->config().name.c_str(),
      opts.scale, queries.size(),
      static_cast<unsigned long long>(QueriesFingerprint(queries)));
}

double PerQuery(double total, uint64_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

double Qps(const RunResult& r) {
  return r.wall_s <= 0.0 ? 0.0
                         : static_cast<double>(r.attempted - r.failed) /
                               r.wall_s;
}

double PhaseMs(const RunResult& r, dsks::obs::Phase p) {
  return NsToMs(r.phases[static_cast<size_t>(p)].exclusive_ns);
}

const dsks::obs::IoCounters& PhaseIo(const RunResult& r,
                                     dsks::obs::Phase p) {
  return r.phases[static_cast<size_t>(p)].io;
}

void AddEndToEnd(const RunResult& u, const Setup& setup, MetricSet* m) {
  m->Add("qps", Qps(u), "1/s");
  m->Add("p50_ms", Percentile(u.latency_ms, 50.0), "ms");
  m->Add("p99_ms", Percentile(u.latency_ms, 99.0), "ms");
  m->Add("setup_s", setup.setup_s, "s");
  m->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

void AddPerLayer(const RunResult& t, const RunResult& u, const Setup& setup,
                 double setup_peak_mb, double hit_ns, double miss_us,
                 size_t num_objects, MetricSet* m) {
  using dsks::obs::Phase;
  const uint64_t q = t.traced_queries;
  const Counters& d = t.deltas;
  m->Add("storage.pool_hit_ratio", d.pool.hit_rate(), "ratio");
  m->Add("storage.misses_per_query",
         PerQuery(static_cast<double>(d.pool.misses), q), "count/query");
  m->Add("storage.disk_reads_per_query",
         PerQuery(static_cast<double>(d.disk_reads), q), "count/query");
  m->Add("storage.evictions_per_query",
         PerQuery(static_cast<double>(d.pool.evictions), q), "count/query");
  m->Add("storage.prefetch_useful_ratio",
         Ratio(d.pool.prefetch_hits, d.pool.prefetch_issued), "ratio");
  m->Add("storage.fetch_hit_ns", hit_ns, "ns");
  m->Add("storage.fetch_miss_us", miss_us, "us");
  m->Add("index.lookup_ms_per_query",
         PerQuery(PhaseMs(t, Phase::kKeywordLookup), q), "ms/query");
  m->Add("index.lookup_reads_per_query",
         PerQuery(static_cast<double>(
                      PhaseIo(t, Phase::kKeywordLookup).disk_reads),
                  q),
         "count/query");
  m->Add("index.returned_per_loaded",
         Ratio(d.objects_returned, d.objects_loaded), "ratio");
  m->Add("index.false_hits_per_probe", Ratio(d.false_hits, d.edges_probed),
         "ratio");
  m->Add("graph.expansion_ms_per_query",
         PerQuery(PhaseMs(t, Phase::kNetworkExpansion), q), "ms/query");
  m->Add("graph.expansion_misses_per_query",
         PerQuery(static_cast<double>(
                      PhaseIo(t, Phase::kNetworkExpansion).pool_misses),
                  q),
         "count/query");
  m->Add("core.oracle_ms_per_query",
         PerQuery(PhaseMs(t, Phase::kOracleSharedExpansion) +
                      PhaseMs(t, Phase::kOracleFieldDijkstra),
                  q),
         "ms/query");
  m->Add("core.field_dijkstras_per_query",
         PerQuery(static_cast<double>(
                      t.phases[static_cast<size_t>(Phase::kOracleFieldDijkstra)]
                          .spans),
                  q),
         "count/query");
  m->Add("core.greedy_ms_per_query",
         PerQuery(PhaseMs(t, Phase::kGreedySelection), q), "ms/query");
  m->Add("harness.queue_wait_ms_p50", Percentile(t.queue_wait_ms, 50.0),
         "ms");
  m->Add("harness.queue_wait_ms_p99", Percentile(t.queue_wait_ms, 99.0),
         "ms");
  m->Add("harness.run_ms_p50", Percentile(t.task_ms, 50.0), "ms");
  m->Add("server.overhead_ms_p50", Percentile(t.server_overhead_ms, 50.0),
         "ms");
  m->Add("server.overhead_ms_p99", Percentile(t.server_overhead_ms, 99.0),
         "ms");
  m->Add("server.shed_share",
         Ratio(t.server_shed + u.server_shed,
               t.server_requests + u.server_requests),
         "ratio");
  m->Add("server.repeat_share", u.repeat_share, "ratio");
  const double untraced_qps = Qps(u);
  m->Add("obs.trace_overhead_ratio",
         untraced_qps > 0.0 ? Qps(t) / untraced_qps : 0.0, "ratio");
  m->Add("setup.dataset_s", setup.dataset_s, "s");
  m->Add("setup.index_build_s", setup.index_build_s, "s");
  m->Add("setup.index_mb", static_cast<double>(setup.index_bytes) / 1048576.0,
         "MiB");
  m->Add("setup.index_bytes_per_object",
         Ratio(setup.index_bytes, num_objects), "B");
  m->Add("setup.peak_rss_mb", setup_peak_mb, "MiB");
  m->Add("e2e.sk_p99_ms", Percentile(u.sk_latency_ms, 99.0), "ms");
  m->Add("e2e.div_p99_ms", Percentile(u.div_latency_ms, 99.0), "ms");
}

void PrintPhase(const char* label, const RunResult& r) {
  std::printf(
      "PHASE %-9s attempted=%llu failed=%llu mismatches=%llu wall_s=%.3f "
      "qps=%.1f passes=%llu latency_samples=%zu sk_samples=%zu "
      "div_samples=%zu\n",
      label, static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.mismatches), r.wall_s, Qps(r),
      static_cast<unsigned long long>(r.whole_passes), r.latency_ms.size(),
      r.sk_latency_ms.size(), r.div_latency_ms.size());
  for (const std::string& f : r.invariant_failures) {
    std::printf("INVARIANT FAILED (%s): %s\n", label, f.c_str());
  }
}

int Run(const Options& opts) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opts.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (want sk-disk-1t, "
                 "div-mem-3t or mixed-tcp-4c)\n", opts.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opts.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  // Per-process file name, so concurrent runs never share an index.
  const IndexFileGuard index_file{opts.work_dir + "/index-" +
                                  std::to_string(::getpid()) + ".dsks"};

  Setup setup = BuildDatabase(opts, *spec, index_file.path);
  Database* db = setup.db.get();
  std::vector<BenchQuery> queries =
      MakeQueries(*db, opts.seed, kQueries, spec->div_share);
  PrintRegime(opts, *spec, db, queries);
  size_t disagreements = 0;
  const int64_t refs_start = NowNs();
  if (const dsks::Status st = ComputeReferences(db, &queries, &disagreements);
      !st.ok()) {
    std::fprintf(stderr, "reference computation failed: %s\n",
                 st.message().c_str());
    return 1;
  }
  std::printf("PREP setup_s=%.3f (median of %zu) references_s=%.3f\n",
              setup.setup_s, kSetupRepeats, Seconds(refs_start, NowNs()));
  if (opts.perturb_reference) {
    PerturbReference(&queries);
  }
  // peak_rss_mb covers serving only: the warm-up and measured phases.
  // The repeated setups and the references peak far higher, reported
  // apart as setup.peak_rss_mb.
  const double setup_peak_mb = PeakRssMb();
  std::vector<std::string> failures;
  if (!ResetPeakRss()) {
    failures.push_back("cannot reset the peak RSS (/proc/self/clear_refs)");
  }

  WorkloadEnv env;
  env.db = db;
  env.queries = &queries;
  env.seed = opts.seed;
  std::unique_ptr<MixedTcpLoop> tcp;
  if (spec->loop == Loop::kMixedTcp) {
    tcp = std::make_unique<MixedTcpLoop>(&env);
    if (const dsks::Status st = tcp->Start(); !st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", st.message().c_str());
      return 1;
    }
  }
  auto run = [&](const Limit& limit, bool traced) {
    if (tcp != nullptr) {
      return tcp->Run(limit, traced);
    }
    return spec->loop == Loop::kSkDisk ? RunSkDisk(&env, limit, traced)
                                           : RunDivMem(&env, limit, traced);
  };

  // Untimed warm-up: one pass over the query list, answers still checked.
  const RunResult warm = run(Limit{0.0, 1}, false);
  PrintPhase("warmup", warm);
  failures.insert(failures.end(), warm.invariant_failures.begin(),
                  warm.invariant_failures.end());
  if (warm.failed > 0) {
    failures.push_back(std::to_string(warm.failed) +
                       " warm-up queries failed or answered wrong");
  }
  if (disagreements > 0) {
    failures.push_back(std::to_string(disagreements) +
                       " div queries where single-threaded SEQ and COM "
                       "disagree");
  }

  // Every measured phase runs whole passes over the query list, so a run
  // measures the same queries equally often whatever the host's speed; on
  // sk-disk-1t the per-query counts then repeat exactly from run to run.
  MetricSet metrics;
  RunResult measured;
  if (!opts.trace) {
    measured = run(Limit{opts.seconds, 0}, false);
    PrintPhase("untraced", measured);
    AddEndToEnd(measured, setup, &metrics);
  } else {
    // The traced half runs first, straight after the warm-up pass, so its
    // pool starts from the same state in every run.
    RunResult traced = run(Limit{opts.seconds / 2.0, 0}, true);
    PrintPhase("traced", traced);
    measured = run(Limit{opts.seconds / 2.0, 0}, false);
    PrintPhase("untraced", measured);
    if (tcp != nullptr) {
      tcp->Stop();
    }
    std::string probe_error;
    const size_t pages = db->disk()->num_pages();
    const double hit_ns =
        ProbeFetchHitNs(db->pool(), pages, spec->probe_threads, opts.seed,
                        kHitProbeSeconds, &probe_error);
    const double miss_us = ProbeFetchMissUs(db->pool(), pages, opts.seed,
                                            kMissProbeSamples, &probe_error);
    if (!probe_error.empty()) {
      failures.push_back(probe_error);
    }
    AddPerLayer(traced, measured, setup, setup_peak_mb, hit_ns, miss_us,
                db->objects().size(), &metrics);
    traced.spans.PrintSummary();
    const std::string spans_path =
        opts.work_dir + "/spans-" + spec->name + ".jsonl";
    if (traced.spans.WriteJsonl(spans_path)) {
      std::printf("SPANS written to %s (%zu spans)\n", spans_path.c_str(),
                  traced.spans.spans().size());
    }
    failures.insert(failures.end(), traced.invariant_failures.begin(),
                    traced.invariant_failures.end());
    measured.attempted += traced.attempted;
    measured.failed += traced.failed;
    measured.mismatches += traced.mismatches;
  }
  failures.insert(failures.end(), measured.invariant_failures.begin(),
                  measured.invariant_failures.end());
  tcp.reset();
  setup.db.reset();

  for (const std::string& f : failures) {
    std::printf("FAILURE %s\n", f.c_str());
  }
  const bool correct = measured.mismatches == 0 && failures.empty();
  metrics.Print();
  std::printf("SUMMARY workload=%s correct=%s attempted=%llu failed=%llu "
              "mismatches=%llu error_rate=%.6g\n",
              spec->name, correct ? "true" : "false",
              static_cast<unsigned long long>(measured.attempted),
              static_cast<unsigned long long>(measured.failed),
              static_cast<unsigned long long>(measured.mismatches),
              Ratio(measured.failed, measured.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(measured.attempted),
              static_cast<unsigned long long>(measured.failed),
              metrics.ToJson().c_str());
  return correct && measured.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string error;
  if (!perfbench::ParseOptions(argc, argv, &opts, &error)) {
    std::fprintf(stderr, "dsks_perfbench: %s\n", error.c_str());
    return 2;
  }
  return perfbench::Run(opts);
}
