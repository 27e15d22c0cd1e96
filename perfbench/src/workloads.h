#ifndef DSKS_PERFBENCH_WORKLOADS_H_
#define DSKS_PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/database.h"
#include "obs/trace.h"
#include "reference.h"

namespace perfbench {

/// How long one measured phase runs: for exactly `passes` passes over the
/// query list when `passes` > 0, else until `seconds` have passed. The
/// time limit is only checked between passes, so every query of the list
/// runs equally often.
struct Limit {
  double seconds = 0.0;
  size_t passes = 0;
};

/// Storage and index counters the program exposes, read at the bench
/// boundary: absolute values, or their change over one phase.
struct Counters {
  dsks::BufferPoolStatsSnapshot pool;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t edges_probed = 0;
  uint64_t objects_loaded = 0;
  uint64_t objects_returned = 0;
  uint64_t false_hits = 0;
};

/// Everything one measured phase of a workload produced.
struct RunResult {
  uint64_t attempted = 0;
  /// Non-OK status, shed, or wrong answer.
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t whole_passes = 0;
  double wall_s = 0.0;
  /// Per request, client-observed; split by operation type.
  std::vector<double> latency_ms;
  std::vector<double> sk_latency_ms;
  std::vector<double> div_latency_ms;

  // Traced phases only.
  uint64_t traced_queries = 0;
  std::array<dsks::obs::QueryTrace::PhaseTotals, dsks::obs::kNumPhases>
      phases{};
  /// Σ of every query's own I/O account (its QueryContext counters).
  dsks::obs::IoCounters charged;
  Counters deltas;
  std::vector<double> queue_wait_ms;       // executor submit -> task start
  std::vector<double> task_ms;             // task start -> task end
  std::vector<double> server_overhead_ms;  // round trip - response "ms"
  uint64_t server_requests = 0;
  uint64_t server_shed = 0;
  double repeat_share = 0.0;
  SpanLog spans;
  /// Broken trace invariants, one message each.
  std::vector<std::string> invariant_failures;
};

/// The database and the queries (with their reference answers) a workload
/// runs against. `cursor` is the next query-list position; it persists
/// across phases so a warm-up and the measured phases continue one
/// sequence.
struct WorkloadEnv {
  dsks::Database* db = nullptr;
  std::vector<BenchQuery>* queries = nullptr;
  uint64_t seed = 0;
  size_t cursor = 0;
};

/// sk-disk-1t: one client calling Database::RunSkQuery back to back.
RunResult RunSkDisk(WorkloadEnv* env, const Limit& limit, bool traced);

/// div-mem-3t: three closed-loop clients on a 3-worker QueryExecutor
/// running div-COM.
RunResult RunDivMem(WorkloadEnv* env, const Limit& limit, bool traced);

/// mixed-tcp-4c: NDJSON over loopback to an in-process QueryServer with 2
/// service workers; one generator thread drives 4 connections, each with
/// one request outstanding. The server lives across phases.
class MixedTcpLoop {
 public:
  explicit MixedTcpLoop(WorkloadEnv* env);
  ~MixedTcpLoop();
  MixedTcpLoop(const MixedTcpLoop&) = delete;
  MixedTcpLoop& operator=(const MixedTcpLoop&) = delete;

  dsks::Status Start();
  RunResult Run(const Limit& limit, bool traced);
  /// Stops the server (before any single-writer pool operation).
  void Stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Clients (or workers) of each workload, which the fetch-hit probe also
/// uses as its thread count.
inline constexpr size_t kSkClients = 1;
inline constexpr size_t kDivWorkers = 3;
inline constexpr size_t kMixedServiceWorkers = 2;
inline constexpr size_t kMixedConnections = 4;
inline constexpr double kMixedDivShare = 0.3;
/// The mixed workload's skew: a request re-sends one of the last
/// kMixedRepeatWindow requests with this probability. Both values are an
/// unverified assumption, not taken from a query log or the paper; replace
/// them once a real query log is part of the repository.
inline constexpr double kMixedRepeatProbability = 0.3;
inline constexpr size_t kMixedRepeatWindow = 16;

}  // namespace perfbench

#endif  // DSKS_PERFBENCH_WORKLOADS_H_
