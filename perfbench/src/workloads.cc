#include "workloads.h"

#include <poll.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <utility>

#include "common/random.h"
#include "core/query_context.h"
#include "harness/query_executor.h"
#include "server/client.h"
#include "server/json.h"
#include "server/query_server.h"

namespace perfbench {

using dsks::Database;
using dsks::QueryContext;
using dsks::Status;
namespace obs = dsks::obs;

namespace {

Counters ReadCounters(Database* db) {
  Counters c;
  c.pool = db->pool()->stats_snapshot();
  const dsks::DiskStatsSnapshot disk = db->disk()->stats_snapshot();
  c.disk_reads = disk.reads;
  c.disk_writes = disk.writes;
  const dsks::ObjectIndexStats& idx = db->index()->stats();
  c.edges_probed = idx.edges_probed.load();
  c.objects_loaded = idx.objects_loaded.load();
  c.objects_returned = idx.objects_returned.load();
  c.false_hits = idx.false_hits.load();
  return c;
}

Counters Delta(const Counters& a, const Counters& b) {
  Counters d;
  d.pool.hits = a.pool.hits - b.pool.hits;
  d.pool.misses = a.pool.misses - b.pool.misses;
  d.pool.evictions = a.pool.evictions - b.pool.evictions;
  d.pool.prefetch_issued = a.pool.prefetch_issued - b.pool.prefetch_issued;
  d.pool.prefetch_hits = a.pool.prefetch_hits - b.pool.prefetch_hits;
  d.pool.prefetch_wasted = a.pool.prefetch_wasted - b.pool.prefetch_wasted;
  d.pool.prefetch_dropped = a.pool.prefetch_dropped - b.pool.prefetch_dropped;
  d.disk_reads = a.disk_reads - b.disk_reads;
  d.disk_writes = a.disk_writes - b.disk_writes;
  d.edges_probed = a.edges_probed - b.edges_probed;
  d.objects_loaded = a.objects_loaded - b.objects_loaded;
  d.objects_returned = a.objects_returned - b.objects_returned;
  d.false_hits = a.false_hits - b.false_hits;
  return d;
}

void Fail(RunResult* r, const std::string& message) {
  // Keep the report readable when an invariant breaks on every query.
  if (r->invariant_failures.size() < 8) {
    r->invariant_failures.push_back(message);
  }
}

/// What one traced in-process query leaves behind: its per-phase
/// exclusive totals, its root span's inclusive totals and the I/O its
/// QueryContext was charged over the whole Run*Query call.
struct TraceSummary {
  std::array<obs::QueryTrace::PhaseTotals, obs::kNumPhases> phases{};
  int64_t root_ns = 0;
  obs::IoCounters root_io;
  obs::IoCounters charged;
};

TraceSummary Summarize(const obs::QueryTrace& trace,
                       const obs::IoCounters& charged) {
  TraceSummary s;
  s.phases = trace.AggregateByPhase();
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.parent == obs::TraceSpan::kNoParent) {
      s.root_ns += span.inclusive_ns;
      s.root_io += span.inclusive_io;
    }
  }
  s.charged = charged;
  return s;
}

/// Checks one query's trace invariants and folds it into the phase.
void Accumulate(const TraceSummary& s, RunResult* r) {
  int64_t sum_ns = 0;
  obs::IoCounters sum_io;
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    sum_ns += s.phases[p].exclusive_ns;
    sum_io += s.phases[p].io;
    r->phases[p].spans += s.phases[p].spans;
    r->phases[p].exclusive_ns += s.phases[p].exclusive_ns;
    r->phases[p].io += s.phases[p].io;
  }
  if (sum_ns != s.root_ns) {
    Fail(r, "per-phase exclusive ns sum != root inclusive ns");
  }
  if (!(sum_io == s.root_io)) {
    Fail(r, "per-phase exclusive I/O sum != root inclusive I/O");
  }
  if (!(s.root_io == s.charged)) {
    Fail(r, "root span I/O != the query context's I/O charge");
  }
  r->charged += s.charged;
  ++r->traced_queries;
}

/// Summed per-query charges must equal the global pool and disk deltas.
void CheckGlobalIo(RunResult* r) {
  const obs::IoCounters& c = r->charged;
  const Counters& d = r->deltas;
  if (c.pool_hits != d.pool.hits || c.pool_misses != d.pool.misses ||
      c.prefetched_pages != d.pool.prefetch_issued ||
      c.disk_reads != d.disk_reads || c.disk_writes != d.disk_writes) {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "summed per-query I/O != global deltas: hits %llu/%llu misses "
        "%llu/%llu prefetched %llu/%llu reads %llu/%llu writes %llu/%llu",
        static_cast<unsigned long long>(c.pool_hits),
        static_cast<unsigned long long>(d.pool.hits),
        static_cast<unsigned long long>(c.pool_misses),
        static_cast<unsigned long long>(d.pool.misses),
        static_cast<unsigned long long>(c.prefetched_pages),
        static_cast<unsigned long long>(d.pool.prefetch_issued),
        static_cast<unsigned long long>(c.disk_reads),
        static_cast<unsigned long long>(d.disk_reads),
        static_cast<unsigned long long>(c.disk_writes),
        static_cast<unsigned long long>(d.disk_writes));
    Fail(r, buf);
  }
}

/// Phase stop rule shared by the in-process loops: `done` queries so far
/// in a list of `n`.
bool PhaseOver(const Limit& limit, size_t done, size_t n, int64_t t0_ns) {
  if (limit.passes > 0) {
    return done >= limit.passes * n;
  }
  if (done % n != 0) {
    return false;
  }
  return NowNs() - t0_ns >= static_cast<int64_t>(limit.seconds * 1e9);
}

void RecordOutcome(const BenchQuery& b, bool ok_status, bool match,
                   double latency_ms, RunResult* r) {
  ++r->attempted;
  if (!ok_status || !match) {
    ++r->failed;
  }
  if (ok_status && !match) {
    ++r->mismatches;
  }
  r->latency_ms.push_back(latency_ms);
  (b.is_div ? r->div_latency_ms : r->sk_latency_ms).push_back(latency_ms);
}

QueryContext* ClientContext() {
  static thread_local QueryContext ctx;
  return &ctx;
}

}  // namespace

RunResult RunSkDisk(WorkloadEnv* env, const Limit& limit, bool traced) {
  RunResult r;
  Database* db = env->db;
  const std::vector<BenchQuery>& qs = *env->queries;
  QueryContext* ctx = ClientContext();
  obs::QueryTrace trace;
  std::vector<dsks::SkResult> results;
  const Counters before = ReadCounters(db);
  const int64_t t0 = NowNs();
  // Time the benchmark spends on its own work between queries (the answer
  // check, the trace bookkeeping); the one client does nothing else then,
  // so it is taken out of wall_s.
  int64_t bench_ns = 0;
  size_t done = 0;
  while (!PhaseOver(limit, done, qs.size(), t0)) {
    const BenchQuery& b = qs[env->cursor];
    env->cursor = (env->cursor + 1) % qs.size();
    if (traced) {
      trace.Clear();
      ctx->trace = &trace;
    }
    const obs::IoCounters io_before = ctx->io;
    const int64_t start = NowNs();
    const Status st = db->RunSkQuery(b.query.sk, b.query.edge, &results, ctx);
    const int64_t end = NowNs();
    ctx->trace = nullptr;
    const bool match =
        st.ok() && Matches(b, ToHits(results), results.size(), 0.0);
    RecordOutcome(b, st.ok(), match, NsToMs(end - start), &r);
    if (traced) {
      r.spans.Add(done, "db.RunSkQuery", start, end);
      Accumulate(Summarize(trace, ctx->io - io_before), &r);
    }
    ++done;
    bench_ns += NowNs() - end;
  }
  r.wall_s = static_cast<double>(NowNs() - t0 - bench_ns) / 1e9;
  r.whole_passes = done / qs.size();
  if (traced) {
    r.deltas = Delta(ReadCounters(db), before);
    CheckGlobalIo(&r);
  }
  return r;
}

namespace {

/// One div-mem-3t request in flight, written by the worker that runs it
/// and read by the generator after the completion hand-off under the loop
/// mutex. There are kDivWorkers of them, reused.
struct DivRecord {
  const BenchQuery* query = nullptr;
  uint64_t seq = 0;
  int64_t submit_ns = 0;
  int64_t start_ns = 0;
  int64_t run_begin_ns = 0;
  int64_t run_end_ns = 0;
  int64_t end_ns = 0;
  Status status;
  dsks::DivSearchOutput out;
  TraceSummary trace;
};

/// A measured div answer, kept until the phase is over and checked then,
/// so the check costs no measured time.
struct DivAnswer {
  const BenchQuery* query = nullptr;
  std::vector<Hit> hits;
  double objective = 0.0;
};

}  // namespace

RunResult RunDivMem(WorkloadEnv* env, const Limit& limit, bool traced) {
  RunResult r;
  Database* db = env->db;
  const std::vector<BenchQuery>& qs = *env->queries;
  dsks::ExecutorConfig config;
  config.num_threads = kDivWorkers;
  dsks::QueryExecutor executor(config);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<DivRecord*> completed;  // guarded by mu
  std::array<DivRecord, kDivWorkers> slots;
  std::vector<DivRecord*> idle;
  for (DivRecord& rec : slots) {
    idle.push_back(&rec);
  }
  std::vector<DivAnswer> answers;

  auto submit = [&](DivRecord* rec) {
    rec->submit_ns = NowNs();
    executor.SubmitQuery([rec, db, traced, &mu, &cv,
                          &completed](QueryContext* ctx) -> Status {
      static thread_local obs::QueryTrace trace;
      rec->start_ns = NowNs();
      if (traced) {
        trace.Clear();
        ctx->trace = &trace;
      }
      const obs::IoCounters io_before = ctx->io;
      rec->run_begin_ns = NowNs();
      rec->status = db->RunDivQuery(MakeDivQuery(rec->query->query),
                                    rec->query->query.edge, /*use_com=*/true,
                                    &rec->out, ctx);
      rec->run_end_ns = NowNs();
      if (traced) {
        ctx->trace = nullptr;
        rec->trace = Summarize(trace, ctx->io - io_before);
      }
      const Status status = rec->status;
      rec->end_ns = NowNs();
      {
        std::lock_guard<std::mutex> lock(mu);
        completed.push_back(rec);
      }
      cv.notify_one();
      return status;
    });
  };

  const Counters before = ReadCounters(db);
  const int64_t t0 = NowNs();
  size_t issued = 0;
  size_t outstanding = 0;
  auto issue_next = [&] {
    if (PhaseOver(limit, issued, qs.size(), t0)) {
      return;
    }
    DivRecord* rec = idle.back();
    idle.pop_back();
    rec->query = &qs[env->cursor];
    rec->seq = issued++;
    env->cursor = (env->cursor + 1) % qs.size();
    ++outstanding;
    submit(rec);
  };
  for (size_t c = 0; c < kDivWorkers; ++c) {
    issue_next();
  }
  int64_t last_end = t0;
  std::vector<DivRecord*> batch;
  while (outstanding > 0) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !completed.empty(); });
      batch.swap(completed);
    }
    for (DivRecord* rec : batch) {
      --outstanding;
      const BenchQuery& b = *rec->query;
      const bool ok = rec->status.ok();
      RecordOutcome(b, ok, /*match=*/true,
                    NsToMs(rec->end_ns - rec->submit_ns), &r);
      if (ok) {
        answers.push_back({&b, ToHits(rec->out.selected), rec->out.objective});
      }
      last_end = std::max(last_end, rec->end_ns);
      if (traced) {
        const int32_t root = r.spans.Add(rec->seq, "client.request",
                                         rec->submit_ns, rec->end_ns);
        r.spans.Add(rec->seq, "harness.queue_wait", rec->submit_ns,
                    rec->start_ns, root);
        const int32_t task = r.spans.Add(rec->seq, "harness.task",
                                         rec->start_ns, rec->end_ns, root);
        r.spans.Add(rec->seq, "db.RunDivQuery", rec->run_begin_ns,
                    rec->run_end_ns, task);
        r.queue_wait_ms.push_back(NsToMs(rec->start_ns - rec->submit_ns));
        r.task_ms.push_back(NsToMs(rec->end_ns - rec->start_ns));
        Accumulate(rec->trace, &r);
      }
      idle.push_back(rec);
      issue_next();
    }
    batch.clear();
  }
  executor.Drain();
  r.wall_s = static_cast<double>(last_end - t0) / 1e9;
  r.whole_passes = issued / qs.size();
  if (traced) {
    r.deltas = Delta(ReadCounters(db), before);
    CheckGlobalIo(&r);
  }
  for (DivAnswer& a : answers) {
    const size_t count = a.hits.size();
    if (!Matches(*a.query, std::move(a.hits), count, a.objective)) {
      ++r.failed;
      ++r.mismatches;
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// mixed-tcp-4c

struct MixedTcpLoop::Impl {
  WorkloadEnv* env = nullptr;
  std::unique_ptr<dsks::server::QueryServer> server;
  std::vector<std::unique_ptr<dsks::server::QueryClient>> clients;
  dsks::Random rng{0};
  /// Query-list positions of the most recent requests (the repeat window).
  std::deque<size_t> recent;
  uint64_t next_id = 1;

  /// Picks the next request: a recent one again with the repeat
  /// probability, else the next fresh query of the list. Sets `*repeat`
  /// when the keyword set equals one in the recent window.
  size_t NextQuery(bool* repeat) {
    size_t idx;
    if (!recent.empty() && rng.NextDouble() < kMixedRepeatProbability) {
      idx = recent[rng.Uniform(recent.size())];
    } else {
      idx = env->cursor;
      env->cursor = (env->cursor + 1) % env->queries->size();
    }
    const auto& terms = (*env->queries)[idx].query.sk.terms;
    *repeat = std::any_of(recent.begin(), recent.end(), [&](size_t j) {
      return (*env->queries)[j].query.sk.terms == terms;
    });
    recent.push_back(idx);
    if (recent.size() > kMixedRepeatWindow) {
      recent.pop_front();
    }
    return idx;
  }

  std::string RequestLine(const BenchQuery& b, uint64_t id,
                          bool traced) const {
    const dsks::SkQuery& q = b.query.sk;
    std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                       (b.is_div ? "div" : "sk") + "\",\"terms\":[";
    for (size_t i = 0; i < q.terms.size(); ++i) {
      if (i > 0) {
        line += ',';
      }
      line += std::to_string(q.terms[i]);
    }
    char buf[160];
    // %.17g round-trips the doubles exactly, so the server rebuilds the
    // very query the reference answered.
    std::snprintf(buf, sizeof(buf), "],\"edge\":%u,\"offset\":%.17g,\"delta\":%.17g",
                  static_cast<unsigned>(q.loc.edge), q.loc.offset,
                  q.delta_max);
    line += buf;
    if (b.is_div) {
      std::snprintf(buf, sizeof(buf), ",\"k\":%zu,\"lambda\":%.17g", kDivK,
                    kDivLambda);
      line += buf;
    }
    if (traced) {
      line += ",\"trace\":true";
    }
    return line + "}";
  }
};

MixedTcpLoop::MixedTcpLoop(WorkloadEnv* env)
    : impl_(std::make_unique<Impl>()) {
  impl_->env = env;
  impl_->rng = dsks::Random(env->seed ^ 0x5bd1e995ULL);
}

MixedTcpLoop::~MixedTcpLoop() { Stop(); }

Status MixedTcpLoop::Start() {
  dsks::server::ServerConfig config;
  config.service.threads = kMixedServiceWorkers;
  // Every hit of every response is listed, so every hit is checked.
  config.service.max_results = SIZE_MAX;
  impl_->server =
      std::make_unique<dsks::server::QueryServer>(impl_->env->db, config);
  DSKS_RETURN_IF_ERROR(impl_->server->Start(0));
  for (size_t c = 0; c < kMixedConnections; ++c) {
    auto client = std::make_unique<dsks::server::QueryClient>();
    DSKS_RETURN_IF_ERROR(client->Connect(impl_->server->port()));
    impl_->clients.push_back(std::move(client));
  }
  return Status::Ok();
}

void MixedTcpLoop::Stop() {
  impl_->clients.clear();
  if (impl_->server != nullptr) {
    impl_->server->Stop();
    impl_->server.reset();
  }
}

namespace {

/// Per-phase index of obs::PhaseName, for reading response traces.
int PhaseIndex(const std::string& name) {
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    if (name == obs::PhaseName(static_cast<obs::Phase>(p))) {
      return static_cast<int>(p);
    }
  }
  return -1;
}

uint64_t U64(const dsks::server::JsonValue* v) {
  return v != nullptr && v->is_number() ? static_cast<uint64_t>(v->number())
                                        : 0;
}

}  // namespace

RunResult MixedTcpLoop::Run(const Limit& limit, bool traced) {
  using dsks::server::JsonValue;
  Impl& im = *impl_;
  RunResult r;
  const std::vector<BenchQuery>& qs = *im.env->queries;
  struct Pending {
    size_t query = 0;
    uint64_t id = 0;
    int64_t send_ns = 0;
    bool active = false;
  };
  std::vector<Pending> pending(im.clients.size());
  uint64_t repeats = 0;
  size_t issued = 0;

  const Counters before = ReadCounters(im.env->db);
  const dsks::server::ServiceCounters service_before = im.server->counters();
  const int64_t t0 = NowNs();
  auto send_next = [&](size_t c) -> bool {
    if (PhaseOver(limit, issued, qs.size(), t0)) {
      return false;
    }
    bool repeat = false;
    Pending& p = pending[c];
    p.query = im.NextQuery(&repeat);
    p.id = im.next_id++;
    repeats += repeat ? 1 : 0;
    ++issued;
    p.active = true;
    p.send_ns = NowNs();
    const Status st =
        im.clients[c]->SendLine(im.RequestLine(qs[p.query], p.id, traced));
    if (!st.ok()) {
      Fail(&r, "send failed: " + st.message());
      p.active = false;
      return false;
    }
    return true;
  };
  size_t outstanding = 0;
  for (size_t c = 0; c < im.clients.size(); ++c) {
    outstanding += send_next(c) ? 1 : 0;
  }
  std::vector<pollfd> fds(im.clients.size());
  /// A response read but not yet checked.
  struct Received {
    Pending request;
    std::string line;
    int64_t recv_ns = 0;
  };
  std::vector<Received> received;
  int64_t last_end = t0;
  while (outstanding > 0) {
    for (size_t c = 0; c < fds.size(); ++c) {
      fds[c] = pollfd{pending[c].active ? im.clients[c]->fd() : -1, POLLIN, 0};
    }
    if (::poll(fds.data(), fds.size(), 10000) <= 0) {
      Fail(&r, "no response within 10 s");
      break;
    }
    // First read every ready response and put its connection back to
    // work; only then parse and check, so the check overlaps the server's
    // work instead of holding a connection idle.
    received.clear();
    for (size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].fd < 0 || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      Received& got = received.emplace_back();
      const Status read = im.clients[c]->ReadLine(&got.line);
      got.recv_ns = NowNs();
      got.request = pending[c];
      pending[c].active = false;
      --outstanding;
      last_end = std::max(last_end, got.recv_ns);
      if (!read.ok()) {
        Fail(&r, "read failed: " + read.message());
        received.pop_back();
        continue;
      }
      outstanding += send_next(c) ? 1 : 0;
    }
    for (const Received& got : received) {
      const Pending& p = got.request;
      const BenchQuery& b = qs[p.query];
      JsonValue doc;
      const bool parsed = JsonValue::Parse(got.line, &doc).ok() &&
                          doc.is_object() &&
                          U64(doc.Find("id")) == p.id;
      const JsonValue* status = parsed ? doc.Find("status") : nullptr;
      const bool ok_status =
          status != nullptr && status->is_string() &&
          status->string_value() == "OK";
      bool match = false;
      if (ok_status) {
        std::vector<Hit> hits;
        if (const JsonValue* res = doc.Find("results");
            res != nullptr && res->is_array()) {
          for (const JsonValue& h : res->array()) {
            hits.emplace_back(static_cast<dsks::ObjectId>(U64(h.Find("object"))),
                              h.Find("dist") != nullptr
                                  ? h.Find("dist")->number()
                                  : -1.0);
          }
        }
        const JsonValue* objective = doc.Find("objective");
        match = Matches(b, std::move(hits), U64(doc.Find("count")),
                        objective != nullptr ? objective->number() : 0.0);
      }
      const double rtt_ms = NsToMs(got.recv_ns - p.send_ns);
      RecordOutcome(b, ok_status, match, rtt_ms, &r);
      if (traced && ok_status) {
        r.spans.Add(p.id, "tcp.round_trip", p.send_ns, got.recv_ns);
        const JsonValue* ms = doc.Find("ms");
        r.server_overhead_ms.push_back(rtt_ms -
                                       (ms != nullptr ? ms->number() : 0.0));
        // The response carries the query's own I/O account and, asked
        // for with "trace":true, its per-phase exclusive totals.
        obs::IoCounters io;
        if (const JsonValue* j = doc.Find("io"); j != nullptr) {
          io.pool_hits = U64(j->Find("pool_hits"));
          io.pool_misses = U64(j->Find("pool_misses"));
          io.disk_reads = U64(j->Find("disk_reads"));
          io.disk_writes = U64(j->Find("disk_writes"));
          io.prefetched_pages = U64(j->Find("prefetched_pages"));
        }
        uint64_t phase_reads = 0;
        if (const JsonValue* t = doc.Find("trace");
            t != nullptr && t->is_object()) {
          for (const auto& [name, v] : t->object()) {
            const int p_idx = PhaseIndex(name);
            if (p_idx < 0) {
              continue;
            }
            auto& agg = r.phases[static_cast<size_t>(p_idx)];
            agg.spans += U64(v.Find("spans"));
            const JsonValue* pms = v.Find("ms");
            agg.exclusive_ns += static_cast<int64_t>(
                (pms != nullptr ? pms->number() : 0.0) * 1e6 + 0.5);
            agg.io.disk_reads += U64(v.Find("disk_reads"));
            phase_reads += U64(v.Find("disk_reads"));
          }
        }
        if (phase_reads != io.disk_reads) {
          Fail(&r, "per-phase disk reads != the response's I/O account");
        }
        r.charged += io;
        ++r.traced_queries;
      }
    }
  }
  r.wall_s = static_cast<double>(last_end - t0) / 1e9;
  r.whole_passes = issued / qs.size();
  r.repeat_share = issued == 0 ? 0.0
                               : static_cast<double>(repeats) /
                                     static_cast<double>(issued);
  const dsks::server::ServiceCounters service_after = im.server->counters();
  r.server_requests = service_after.requests - service_before.requests;
  r.server_shed = service_after.shed - service_before.shed;
  if (traced) {
    r.deltas = Delta(ReadCounters(im.env->db), before);
    CheckGlobalIo(&r);
  }
  return r;
}

}  // namespace perfbench
