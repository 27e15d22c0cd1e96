// Micro-benchmarks (google-benchmark) for the building blocks: Z-order
// encoding, Dijkstra, CCAM adjacency loads, B+tree lookups, signature
// tests, LoadObjects, core-pair maintenance, the full SK search, the flat
// hot-path containers, the pairwise distance oracle strategies and the
// buffer pool's fetch hit and miss paths.
//
// Results are written to BENCH_micro.json (google-benchmark JSON format)
// in the working directory, alongside the usual console table.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/flat_containers.h"
#include "common/macros.h"
#include "common/random.h"
#include "core/core_pairs.h"
#include "core/distance_oracle.h"
#include "core/div_search.h"
#include "core/query_context.h"
#include "core/sk_search.h"
#include "datagen/workload.h"
#include "graph/dijkstra.h"
#include "harness/database.h"
#include "index/sif.h"
#include "spatial/zorder.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace dsks {
namespace {

/// Shared medium-size fixture, built once: a Database with a SIF index
/// (signatures on every keyword) and its build-size pool, so every page
/// stays resident. The benches below time the layers directly.
struct World {
  std::unique_ptr<Database> db;
  const RoadNetwork* net = nullptr;
  const ObjectSet* objects = nullptr;
  const CcamGraph* graph = nullptr;
  SifIndex* index = nullptr;

  World() {
    DatasetConfig config;
    config.network.num_nodes = 4000;
    config.network.seed = 1;
    config.objects.num_objects = 40000;
    config.objects.vocab_size = 2000;
    config.objects.keywords_per_object = 8;
    config.objects.seed = 2;
    db = std::make_unique<Database>(config);
    IndexOptions options;
    options.kind = IndexKind::kSIF;
    options.signature_min_postings = 1;
    db->BuildIndex(options);
    net = &db->network();
    objects = &db->objects();
    graph = &db->ccam_graph();
    index = static_cast<SifIndex*>(db->index());  // kind is kSIF
  }
};

World& TheWorld() {
  static World* world = new World();
  return *world;
}

void BM_ZOrderEncode(benchmark::State& state) {
  Random rng(3);
  std::vector<Point> points(1024);
  for (auto& p : points) {
    p = {rng.UniformDouble(0, 10000), rng.UniformDouble(0, 10000)};
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZOrder::Encode(points[i++ & 1023]));
  }
}
BENCHMARK(BM_ZOrderEncode);

void BM_DijkstraFullNetwork(benchmark::State& state) {
  World& w = TheWorld();
  NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DijkstraFromNode(*w.net, src));
    src = (src + 97) % w.net->num_nodes();
  }
}
BENCHMARK(BM_DijkstraFullNetwork);

void BM_BoundedDijkstra(benchmark::State& state) {
  World& w = TheWorld();
  const double radius = static_cast<double>(state.range(0));
  EdgeId e = 0;
  for (auto _ : state) {
    NetworkLocation loc{e, w.net->edge(e).length / 2.0};
    benchmark::DoNotOptimize(BoundedDijkstraFromLocation(*w.net, loc, radius));
    e = (e + 131) % w.net->num_edges();
  }
}
BENCHMARK(BM_BoundedDijkstra)->Arg(500)->Arg(1500)->Arg(3000);

void BM_CcamAdjacency(benchmark::State& state) {
  World& w = TheWorld();
  std::vector<AdjacentEdge> adj;
  NodeId v = 0;
  for (auto _ : state) {
    w.graph->GetAdjacency(v, &adj);
    benchmark::DoNotOptimize(adj.size());
    v = (v + 61) % w.net->num_nodes();
  }
}
BENCHMARK(BM_CcamAdjacency);

/// A sim disk of `num_pages` pages behind a pool of `capacity` frames, for
/// the pool benches. Built once per bench and shared by all its threads.
struct PoolWorld {
  DiskManager disk;
  BufferPool pool;
  PageId num_pages;

  PoolWorld(PageId pages, size_t capacity)
      : pool(&disk, capacity), num_pages(pages) {
    for (PageId i = 0; i < pages; ++i) {
      disk.AllocatePage();
    }
  }
};

/// FetchPage + UnpinPage on `w`'s pages in turn, each thread from its own
/// offset.
void FetchPagesInTurn(benchmark::State& state, PoolWorld* w) {
  PageId id = static_cast<PageId>(state.thread_index()) * w->num_pages /
              static_cast<PageId>(state.threads());
  for (auto _ : state) {
    char* data = nullptr;
    if (!w->pool.FetchPage(id, &data).ok()) {
      state.SkipWithError("fetch failed");
      break;
    }
    benchmark::DoNotOptimize(data);
    w->pool.UnpinPage(id, /*dirty=*/false);
    id = (id + 1) % w->num_pages;
  }
  state.SetItemsProcessed(state.iterations());
}

/// The pool's hit path: every page is resident.
void BM_PoolFetchHit(benchmark::State& state) {
  static PoolWorld* w = [] {
    auto* world = new PoolWorld(256, 256);
    char* data = nullptr;
    for (PageId id = 0; id < world->num_pages; ++id) {
      DSKS_CHECK(world->pool.FetchPage(id, &data).ok());
      world->pool.UnpinPage(id, /*dirty=*/false);
    }
    return world;
  }();
  FetchPagesInTurn(state, w);
}
BENCHMARK(BM_PoolFetchHit)->Threads(1)->Threads(2)->Threads(4);

/// The pool's miss path at zero device delay: 4096 pages cycled through 64
/// frames, so LRU has evicted every page long before its next turn. Each
/// fetch evicts a frame, makes one and reads one page (copy + CRC check).
void BM_PoolFetchMiss(benchmark::State& state) {
  static PoolWorld* w = new PoolWorld(4096, 64);
  FetchPagesInTurn(state, w);
}
BENCHMARK(BM_PoolFetchMiss)->Threads(1)->Threads(2)->Threads(4);

void BM_BPlusTreeGet(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 1u << 14);
  BPlusTree tree = BPlusTree::Create(&pool);
  const uint64_t n = 100000;
  for (uint64_t k = 0; k < n; ++k) {
    tree.Insert(k * 7, k);
  }
  Random rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(rng.Uniform(n) * 7));
  }
}
BENCHMARK(BM_BPlusTreeGet);

void BM_SignatureTest(benchmark::State& state) {
  World& w = TheWorld();
  const SignatureFile& sig = w.index->signature();
  Random rng(5);
  for (auto _ : state) {
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(w.net->num_edges()));
    const TermId t = static_cast<TermId>(rng.Uniform(2000));
    benchmark::DoNotOptimize(sig.Test(e, t));
  }
}
BENCHMARK(BM_SignatureTest);

void BM_LoadObjects(benchmark::State& state) {
  World& w = TheWorld();
  Random rng(6);
  std::vector<LoadedObject> out;
  const std::vector<TermId> terms = {0, 1, 5};
  for (auto _ : state) {
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(w.net->num_edges()));
    w.index->LoadObjects(e, terms, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_LoadObjects);

void BM_SkSearchQuery(benchmark::State& state) {
  World& w = TheWorld();
  WorkloadConfig wc;
  wc.num_queries = 64;
  wc.num_keywords = 3;
  wc.seed = 7;
  const Workload wl = GenerateWorkload(*w.objects, w.db->term_stats(), wc);
  size_t i = 0;
  for (auto _ : state) {
    const WorkloadQuery& wq = wl.queries[i++ % wl.queries.size()];
    IncrementalSkSearch search(w.graph, w.index, wq.sk, wq.edge);
    SkResult r;
    size_t count = 0;
    while (search.Next(&r)) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SkSearchQuery);

void BM_CorePairUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(8);
  std::vector<std::vector<double>> theta(n, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      theta[i][j] = theta[j][i] = rng.NextDouble();
    }
  }
  const CorePairSet::ThetaById fn = [&theta](ObjectId a, ObjectId b) {
    return theta[a][b];
  };
  // Greedy pairs over the first ten objects (Algorithm 1 reference).
  auto greedy_init = [&theta]() {
    std::vector<ScoredPair> pairs;
    std::vector<ObjectId> remaining;
    for (ObjectId id = 0; id < 10; ++id) remaining.push_back(id);
    while (pairs.size() < 5) {
      ScoredPair best;
      bool found = false;
      ObjectId bi = 0;
      ObjectId bj = 0;
      for (size_t i = 0; i < remaining.size(); ++i) {
        for (size_t j = i + 1; j < remaining.size(); ++j) {
          const ScoredPair sp = ScoredPair::Make(
              theta[remaining[i]][remaining[j]], remaining[i], remaining[j]);
          if (!found || sp.Better(best)) {
            found = true;
            best = sp;
            bi = remaining[i];
            bj = remaining[j];
          }
        }
      }
      pairs.push_back(best);
      std::erase(remaining, bi);
      std::erase(remaining, bj);
    }
    return pairs;
  };
  for (auto _ : state) {
    CorePairSet cp(5);
    std::vector<ObjectId> seen;
    for (ObjectId id = 0; id < 10; ++id) {
      seen.push_back(id);
    }
    cp.Init(greedy_init());
    for (ObjectId id = 10; id < n; ++id) {
      seen.push_back(id);
      cp.OnArrival(id, seen, fn);
    }
    benchmark::DoNotOptimize(cp.threshold().theta);
  }
}
BENCHMARK(BM_CorePairUpdate)->Arg(50)->Arg(200);

/// The per-query fill-then-probe cycle of hot-path maps: insert `n` keys
/// into a cleared-but-warm map, probe them all, clear. Paired with
/// BM_UnorderedMapCycle below to show what the flat map buys.
void BM_FlatHashMapCycle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(9);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) {
    k = rng.Uniform(1u << 30);
  }
  FlatHashMap<uint64_t, double> map;
  for (auto _ : state) {
    map.clear();
    for (uint64_t k : keys) {
      map.try_emplace(k, 1.0);
    }
    double sum = 0.0;
    for (uint64_t k : keys) {
      sum += *map.find(k);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_FlatHashMapCycle)->Arg(64)->Arg(512)->Arg(4096);

void BM_UnorderedMapCycle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(9);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) {
    k = rng.Uniform(1u << 30);
  }
  std::unordered_map<uint64_t, double> map;
  for (auto _ : state) {
    map.clear();
    for (uint64_t k : keys) {
      map.try_emplace(k, 1.0);
    }
    double sum = 0.0;
    for (uint64_t k : keys) {
      sum += map.find(k)->second;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_UnorderedMapCycle)->Arg(64)->Arg(512)->Arg(4096);

/// Sparse per-query use of a num_nodes-sized tentative-distance array:
/// touch 256 of 65536 slots, then Reset(). The O(1) epoch reset is what
/// makes this shape affordable compared to refilling a dense vector.
void BM_EpochArrayCycle(benchmark::State& state) {
  const size_t n = 65536;
  EpochArray<double> arr;
  arr.EnsureSize(n);
  Random rng(10);
  std::vector<uint32_t> idx(256);
  for (auto& i : idx) {
    i = static_cast<uint32_t>(rng.Uniform(n));
  }
  for (auto _ : state) {
    arr.Reset();
    for (uint32_t i : idx) {
      arr.Set(i, 1.5);
    }
    double sum = 0.0;
    for (uint32_t i : idx) {
      const double* v = arr.Find(i);
      if (v != nullptr) {
        sum += *v;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_EpochArrayCycle);

/// Same sparse cycle through a dense vector that must be refilled per
/// query — the cost EpochArray::Reset avoids.
void BM_DenseVectorRefillCycle(benchmark::State& state) {
  const size_t n = 65536;
  std::vector<double> arr(n);
  Random rng(10);
  std::vector<uint32_t> idx(256);
  for (auto& i : idx) {
    i = static_cast<uint32_t>(rng.Uniform(n));
  }
  for (auto _ : state) {
    std::fill(arr.begin(), arr.end(), -1.0);
    for (uint32_t i : idx) {
      arr[i] = 1.5;
    }
    double sum = 0.0;
    for (uint32_t i : idx) {
      sum += arr[i];
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DenseVectorRefillCycle);

/// Full diversified COM query through the pairwise oracle, comparing the
/// shared-expansion strategy (range(1) == 0) against per-object Dijkstra
/// (range(1) == 1) at k in {5, 10, 20}. Counters expose the per-object
/// field expansions — the quantity the shared strategy exists to shrink —
/// and the certified-pair ratio.
void BM_DivComOracle(benchmark::State& state) {
  World& w = TheWorld();
  const size_t k = static_cast<size_t>(state.range(0));
  const OracleStrategy strategy = state.range(1) == 0
                                      ? OracleStrategy::kSharedExpansion
                                      : OracleStrategy::kPerObjectDijkstra;
  WorkloadConfig wc;
  wc.num_queries = 32;
  wc.num_keywords = 3;
  wc.seed = 11;
  const Workload wl = GenerateWorkload(*w.objects, w.db->term_stats(), wc);
  QueryContext ctx;
  uint64_t fields = 0;
  uint64_t pairs = 0;
  uint64_t shared_exact = 0;
  uint64_t queries = 0;
  size_t i = 0;
  for (auto _ : state) {
    const WorkloadQuery& wq = wl.queries[i++ % wl.queries.size()];
    DivQuery dq;
    dq.sk = wq.sk;
    dq.k = k;
    dq.lambda = 0.8;
    IncrementalSkSearch search(w.graph, w.index, dq.sk, wq.edge, &ctx);
    PairwiseDistanceOracle oracle(w.graph, 2.0 * dq.sk.delta_max,
                                  strategy, &ctx);
    oracle.SetQueryEdge(wq.edge);
    const DivSearchOutput out = DiversifiedSearchCOM(&search, dq, &oracle);
    benchmark::DoNotOptimize(out.objective);
    fields += oracle.stats().fields_computed;
    pairs += oracle.stats().pairs_evaluated;
    shared_exact += oracle.stats().pairs_shared_exact;
    ++queries;
  }
  const double q = queries > 0 ? static_cast<double>(queries) : 1.0;
  state.counters["fields_per_query"] = static_cast<double>(fields) / q;
  state.counters["pairs_per_query"] = static_cast<double>(pairs) / q;
  state.counters["shared_exact_per_query"] =
      static_cast<double>(shared_exact) / q;
}
BENCHMARK(BM_DivComOracle)
    ->ArgNames({"k", "per_object"})
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({20, 0})
    ->Args({20, 1});

}  // namespace
}  // namespace dsks

int main(int argc, char** argv) {
  // Default the JSON artifact to BENCH_micro.json in the working directory
  // (tools/check.sh runs from the repo root, so it lands next to
  // BENCH_throughput.json); an explicit --benchmark_out wins.
  std::vector<char*> args(argv, argv + argc);
  char out_flag[] = "--benchmark_out=BENCH_micro.json";
  char fmt_flag[] = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
