#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "bench_util.h"
#include "common/random.h"
#include "core/query_context.h"
#include "graph/dijkstra.h"

namespace perfbench {

using dsks::Database;
using dsks::ObjectId;
using dsks::SkResult;
using dsks::Status;

dsks::DivQuery MakeDivQuery(const dsks::WorkloadQuery& q) {
  dsks::DivQuery d;
  d.sk = q.sk;
  d.k = kDivK;
  d.lambda = kDivLambda;
  return d;
}

std::vector<BenchQuery> MakeQueries(const Database& db, uint64_t seed,
                                    size_t n, double div_share) {
  dsks::WorkloadConfig wc;
  wc.num_queries = n;
  wc.num_keywords = 3;
  wc.delta_max_override = 1500.0;
  wc.keyword_source = dsks::KeywordSource::kCoLocatedObject;
  wc.seed = seed;
  dsks::Workload wl = dsks::GenerateWorkload(db.objects(), db.term_stats(), wc);
  // The op draw uses its own stream so the locations and keywords of a
  // seed are the same whatever the div share.
  dsks::Random op_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<BenchQuery> out;
  out.reserve(n);
  for (dsks::WorkloadQuery& q : wl.queries) {
    BenchQuery b;
    b.query = std::move(q);
    b.is_div = op_rng.NextDouble() < div_share;
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<Hit> ToHits(const std::vector<SkResult>& results) {
  std::vector<Hit> hits;
  hits.reserve(results.size());
  for (const SkResult& r : results) {
    hits.emplace_back(r.id, r.dist);
  }
  return hits;
}

namespace {

void SortHits(std::vector<Hit>* hits) {
  std::sort(hits->begin(), hits->end(), [](const Hit& a, const Hit& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
}

std::vector<Hit> Canonical(const std::vector<SkResult>& results) {
  std::vector<Hit> hits = ToHits(results);
  SortHits(&hits);
  return hits;
}

/// Object ids per term, built from the object set itself (not from any
/// index of the program), so a brute-force query only scans the objects
/// that carry its rarest keyword.
std::vector<std::vector<ObjectId>> TermLists(const dsks::ObjectSet& objects) {
  std::vector<std::vector<ObjectId>> lists;
  for (const auto& obj : objects.objects()) {
    for (const dsks::TermId t : obj.terms) {
      if (t >= lists.size()) {
        lists.resize(t + 1);
      }
      lists[t].push_back(obj.id);
    }
  }
  return lists;
}

std::vector<Hit> BruteForceSk(const Database& db,
                              const std::vector<std::vector<ObjectId>>& lists,
                              const dsks::SkQuery& q) {
  const dsks::ObjectSet& objects = db.objects();
  const std::vector<ObjectId>* scan = nullptr;
  for (const dsks::TermId t : q.terms) {
    if (t >= lists.size()) {
      return {};
    }
    if (scan == nullptr || lists[t].size() < scan->size()) {
      scan = &lists[t];
    }
  }
  std::vector<dsks::NetworkLocation> locs;
  std::vector<ObjectId> ids;
  for (const ObjectId id : *scan) {
    if (objects.ObjectHasAllTerms(id, q.terms)) {
      const auto& obj = objects.object(id);
      locs.push_back(dsks::NetworkLocation{obj.edge, obj.offset});
      ids.push_back(id);
    }
  }
  const std::vector<double> dist =
      dsks::DistancesToLocations(db.network(), q.loc, locs);
  std::vector<Hit> hits;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (dist[i] <= q.delta_max) {
      hits.emplace_back(ids[i], dist[i]);
    }
  }
  SortHits(&hits);
  return hits;
}

}  // namespace

Status ComputeReferences(Database* db, std::vector<BenchQuery>* queries,
                         size_t* disagreements) {
  // The brute force reads only the in-memory network and object set, so
  // it runs on several threads; the div references run one at a time.
  const std::vector<std::vector<ObjectId>> lists = TermLists(db->objects());
  const size_t threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < queries->size(); i += threads) {
        BenchQuery& b = (*queries)[i];
        if (!b.is_div) {
          b.expected = BruteForceSk(*db, lists, b.query.sk);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  dsks::QueryContext ctx;
  *disagreements = 0;
  for (BenchQuery& b : *queries) {
    if (!b.is_div) {
      continue;
    }
    const dsks::DivQuery dq = MakeDivQuery(b.query);
    dsks::DivSearchOutput seq, com;
    DSKS_RETURN_IF_ERROR(db->RunDivQuery(dq, b.query.edge,
                                         /*use_com=*/false, &seq, &ctx));
    DSKS_RETURN_IF_ERROR(db->RunDivQuery(dq, b.query.edge,
                                         /*use_com=*/true, &com, &ctx));
    b.expected = Canonical(seq.selected);
    b.expected_objective = com.objective;
    // SEQ and COM sum f(S) over their selections in different orders, so
    // their objectives may differ in the last few bits.
    if (Canonical(com.selected) != b.expected ||
        std::fabs(com.objective - seq.objective) >
            kObjectiveTolerance * std::fabs(seq.objective)) {
      ++*disagreements;
    }
  }
  return Status::Ok();
}

void PerturbReference(std::vector<BenchQuery>* queries) {
  if (queries->empty()) {
    return;
  }
  BenchQuery& b = queries->front();
  if (b.is_div) {
    b.expected_objective = std::nextafter(
        b.expected_objective, std::numeric_limits<double>::infinity());
  } else {
    b.expected.emplace_back(dsks::kInvalidObjectId, 0.0);
  }
}

bool Matches(const BenchQuery& ref, std::vector<Hit> hits, size_t count,
             double objective) {
  if (count != ref.expected.size() || hits.size() != count) {
    return false;
  }
  SortHits(&hits);
  if (hits != ref.expected) {
    return false;
  }
  return !ref.is_div || objective == ref.expected_objective;
}

uint64_t QueriesFingerprint(const std::vector<BenchQuery>& queries) {
  uint64_t h = Fnv1a(nullptr, 0);
  for (const BenchQuery& b : queries) {
    const dsks::SkQuery& q = b.query.sk;
    h = Fnv1a(&q.loc.edge, sizeof(q.loc.edge), h);
    h = Fnv1a(&q.loc.offset, sizeof(q.loc.offset), h);
    h = Fnv1a(&q.delta_max, sizeof(q.delta_max), h);
    h = Fnv1a(q.terms.data(), q.terms.size() * sizeof(q.terms[0]), h);
    h = Fnv1a(&b.is_div, sizeof(b.is_div), h);
  }
  return h;
}

}  // namespace perfbench
