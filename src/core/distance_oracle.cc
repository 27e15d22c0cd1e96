#include "core/distance_oracle.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/trace.h"

namespace dsks {

namespace {

/// Certification margin. The shared-field lower bounds are computed in
/// floating point and can overshoot the true bound by a few ulps; requiring
/// the exact candidate to win by this margin keeps "certified" honest.
/// Pairs inside the margin simply take the fallback field — correctness is
/// unaffected, only the sharing rate.
constexpr double kCertSlack = 1e-9;

/// Every kPrefetchInterval settles, hand the buffer pool the CCAM pages of
/// the heap's shallow layers — a sample of the nodes this Dijkstra pass
/// settles next. Purely advisory: the pool drops failures and the pass
/// never waits, so settled distances are bit-identical either way.
constexpr size_t kPrefetchInterval = 32;
constexpr size_t kFrontierSample = 16;

void PrefetchFrontier(const CcamGraph& graph,
                      const ReusableMinHeap<std::pair<double, uint32_t>>& heap) {
  const std::vector<std::pair<double, uint32_t>>& entries = heap.storage();
  const size_t n = std::min(entries.size(), kFrontierSample);
  if (n == 0) {
    return;
  }
  NodeId nodes[kFrontierSample];
  for (size_t i = 0; i < n; ++i) {
    nodes[i] = entries[i].second;
  }
  graph.PrefetchNodes(std::span<const NodeId>(nodes, n));
}

}  // namespace

PairwiseDistanceOracle::PairwiseDistanceOracle(const CcamGraph* graph,
                                               double radius,
                                               OracleStrategy strategy,
                                               QueryContext* ctx)
    : graph_(graph), radius_(radius), strategy_(strategy) {
  if (ctx == nullptr) {
    owned_ctx_ = std::make_unique<QueryContext>();
    ctx = owned_ctx_.get();
  }
  ctx_ = ctx;
  o_ = &ctx_->oracle;
  DSKS_DCHECK_MSG(!ctx_->oracle_in_use,
                  "QueryContext serves one oracle at a time");
  ctx_->oracle_in_use = true;
  // Recycle every pooled field from the previous query on this context.
  o_->field_index.clear();
  o_->free_fields.clear();
  for (uint32_t i = 0; i < o_->field_pool.size(); ++i) {
    o_->free_fields.push_back(i);
  }
  o_->pair_cache.clear();
}

PairwiseDistanceOracle::~PairwiseDistanceOracle() {
  ctx_->oracle_in_use = false;
}

void PairwiseDistanceOracle::SetQueryEdge(const QueryEdgeInfo& query_edge) {
  query_edge_ = query_edge;
  has_query_edge_ = true;
  shared_ready_ = false;
}

PairwiseDistanceOracle::FieldMap& PairwiseDistanceOracle::FieldOf(
    const SkResult& a) {
  if (const uint32_t* idx = o_->field_index.find(a.id)) {
    return o_->field_pool[*idx];
  }
  obs::ScopedSpan span(ctx_->trace, obs::Phase::kOracleFieldDijkstra);
  ++stats_.fields_computed;
  uint32_t idx;
  if (!o_->free_fields.empty()) {
    idx = o_->free_fields.back();
    o_->free_fields.pop_back();
  } else {
    idx = static_cast<uint32_t>(o_->field_pool.size());
    o_->field_pool.emplace_back();
  }
  o_->field_index.try_emplace(a.id, idx);
  FieldMap& field = o_->field_pool[idx];
  field.clear();

  o_->field_tentative.EnsureSize(graph_->num_nodes());
  o_->field_tentative.Reset();
  o_->heap.clear();
  auto relax = [&](NodeId v, double d) {
    if (d > radius_) {
      return;
    }
    const double* t = o_->field_tentative.Find(v);
    if (t == nullptr || d < *t) {
      o_->field_tentative.Set(v, d);
      o_->heap.push({d, v});
    }
  };
  relax(a.n1, a.w1);
  relax(a.n2, a.edge_weight - a.w1);

  size_t settles = 0;
  while (!o_->heap.empty()) {
    const auto [d, v] = o_->heap.top();
    o_->heap.pop();
    if (field.contains(v)) {
      continue;
    }
    field.try_emplace(v, d);
    if (++settles % kPrefetchInterval == 0) {
      // Same settle-batch deadline poll as the SK expansion: a cancelled
      // query leaves a partial field (safe — distances only fall back to
      // the radius cap) and a sticky CANCELLED status the caller checks.
      if (ctx_->DeadlineExceeded()) {
        if (status_.ok()) {
          status_ = Status::Cancelled("query deadline exceeded in oracle");
        }
        break;
      }
      PrefetchFrontier(*graph_, o_->heap);
    }
    if (const Status s = graph_->GetAdjacency(v, &o_->adjacency); !s.ok()) {
      if (status_.ok()) {
        status_ = s;
      }
      break;  // partial field: distances fall back to the radius cap
    }
    for (const AdjacentEdge& adj : o_->adjacency) {
      if (!field.contains(adj.neighbor)) {
        relax(adj.neighbor, d + adj.weight);
      }
    }
  }
  return field;
}

void PairwiseDistanceOracle::BuildSharedField() {
  obs::ScopedSpan span(ctx_->trace, obs::Phase::kOracleSharedExpansion);
  const size_t n = graph_->num_nodes();
  o_->shared_dist.EnsureSize(n);
  o_->shared_tentative.EnsureSize(n);
  o_->pending_edge.EnsureSize(n);
  o_->pending_parent.EnsureSize(n);
  o_->parent_edge.EnsureSize(n);
  o_->local_index.EnsureSize(n);
  o_->shared_dist.Reset();
  o_->shared_tentative.Reset();
  o_->pending_edge.Reset();
  o_->pending_parent.Reset();
  o_->parent_edge.Reset();
  o_->local_index.Reset();
  o_->order.clear();
  o_->parent_local.clear();
  o_->heap.clear();

  // Seeds replicate the SK search's exactly, so every settled distance
  // here is bit-identical to the distance the search computed for the same
  // node (Dijkstra's settled values are independent of tie order: an
  // equal-distance relaxation is never a strict improvement).
  auto relax = [&](NodeId v, double d, EdgeId via_edge, NodeId via_parent) {
    if (d > radius_ || o_->shared_dist.Contains(v)) {
      return;
    }
    const double* t = o_->shared_tentative.Find(v);
    if (t == nullptr || d < *t) {
      o_->shared_tentative.Set(v, d);
      o_->pending_edge.Set(v, via_edge);
      o_->pending_parent.Set(v, via_parent);
      o_->heap.push({d, v});
    }
  };
  relax(query_edge_.n1, query_edge_.w1, kInvalidEdgeId, kInvalidNodeId);
  relax(query_edge_.n2, query_edge_.weight - query_edge_.w1, kInvalidEdgeId,
        kInvalidNodeId);

  while (!o_->heap.empty()) {
    const auto [d, v] = o_->heap.top();
    o_->heap.pop();
    if (o_->shared_dist.Contains(v)) {
      continue;
    }
    o_->shared_dist.Set(v, d);
    const auto local = static_cast<uint32_t>(o_->order.size());
    o_->local_index.Set(v, local);
    o_->order.push_back(v);
    o_->parent_edge.Set(v, o_->pending_edge.Get(v));
    const NodeId parent = o_->pending_parent.Get(v);
    o_->parent_local.push_back(parent == kInvalidNodeId
                                   ? UINT32_MAX
                                   : o_->local_index.Get(parent));
    if (o_->order.size() % kPrefetchInterval == 0) {
      if (ctx_->DeadlineExceeded()) {
        if (status_.ok()) {
          status_ = Status::Cancelled("query deadline exceeded in oracle");
        }
        break;  // partial shared field: fewer pairs certify, none wrongly
      }
      PrefetchFrontier(*graph_, o_->heap);
    }
    if (const Status s = graph_->GetAdjacency(v, &o_->adjacency); !s.ok()) {
      if (status_.ok()) {
        status_ = s;
      }
      break;  // partial shared field: fewer pairs certify, none wrongly
    }
    for (const AdjacentEdge& adj : o_->adjacency) {
      if (!o_->shared_dist.Contains(adj.neighbor)) {
        relax(adj.neighbor, d + adj.weight, adj.edge, v);
      }
    }
  }
  ++stats_.shared_expansions;

  // Subtree (Euler) intervals over the shortest-path forest, so "is node x
  // below a's edge" is two comparisons. Children CSR first (parents settle
  // before their children, so parent_local[i] < i always).
  const auto m = static_cast<uint32_t>(o_->order.size());
  o_->child_head.assign(m + 1, 0);
  for (uint32_t i = 0; i < m; ++i) {
    if (o_->parent_local[i] != UINT32_MAX) {
      ++o_->child_head[o_->parent_local[i] + 1];
    }
  }
  for (uint32_t i = 0; i < m; ++i) {
    o_->child_head[i + 1] += o_->child_head[i];
  }
  o_->child_cursor.assign(o_->child_head.begin(), o_->child_head.end());
  o_->child_list.resize(o_->child_head[m]);
  for (uint32_t i = 0; i < m; ++i) {
    if (o_->parent_local[i] != UINT32_MAX) {
      o_->child_list[o_->child_cursor[o_->parent_local[i]]++] = i;
    }
  }
  o_->tin.resize(m);
  o_->tout.resize(m);
  o_->dfs_stack.clear();
  uint32_t t = 0;
  for (uint32_t root = 0; root < m; ++root) {
    if (o_->parent_local[root] != UINT32_MAX) {
      continue;  // only the (up to two) seed nodes are roots
    }
    o_->tin[root] = t++;
    o_->dfs_stack.push_back({root, o_->child_head[root]});
    while (!o_->dfs_stack.empty()) {
      auto& [v, cursor] = o_->dfs_stack.back();
      if (cursor < o_->child_head[v + 1]) {
        const uint32_t c = o_->child_list[cursor++];
        o_->tin[c] = t++;
        o_->dfs_stack.push_back({c, o_->child_head[c]});
      } else {
        o_->tout[v] = t++;
        o_->dfs_stack.pop_back();
      }
    }
  }
  shared_ready_ = true;
}

bool PairwiseDistanceOracle::TrySharedExact(const SkResult& a,
                                            const SkResult& b, double* best) {
  if (!shared_ready_) {
    if (!has_query_edge_) {
      return false;
    }
    BuildSharedField();
  }
  const double da = a.dist;

  // Locate the SPT subtree(s) hanging below a: every shortest path from q
  // into such a subtree passes over a, so for any node x in it
  // δ(a,x) = δ(q,x) − δ(q,a) (triangle lower bound meets the explicit
  // tree-path upper bound; see DESIGN.md). Two cases:
  //  * a on an ordinary edge: the endpoint r settled *through* a's edge,
  //    provided a's emitted distance is exactly "other endpoint + offset".
  //  * a on the query's own edge: each endpoint whose settled distance is
  //    the direct along-edge path AND with a lying between q and it —
  //    then q reaches that whole side over a. At δ(q,a) = 0 both sides
  //    qualify and every settled node is certified.
  uint32_t roots[2] = {UINT32_MAX, UINT32_MAX};
  if (a.edge == query_edge_.edge) {
    if (a.w1 <= query_edge_.w1 && o_->shared_dist.Contains(a.n1) &&
        o_->shared_dist.Get(a.n1) == query_edge_.w1 &&
        da == query_edge_.w1 - a.w1) {
      roots[0] = o_->local_index.Get(a.n1);
    }
    if (a.w1 >= query_edge_.w1 && o_->shared_dist.Contains(a.n2) &&
        o_->shared_dist.Get(a.n2) == query_edge_.weight - query_edge_.w1 &&
        da == a.w1 - query_edge_.w1) {
      roots[1] = o_->local_index.Get(a.n2);
    }
  } else {
    NodeId r = kInvalidNodeId;
    NodeId other = kInvalidNodeId;
    double off_other = 0.0;
    if (o_->shared_dist.Contains(a.n1) &&
        o_->parent_edge.Get(a.n1) == a.edge) {
      r = a.n1;
      other = a.n2;
      off_other = a.edge_weight - a.w1;
    } else if (o_->shared_dist.Contains(a.n2) &&
               o_->parent_edge.Get(a.n2) == a.edge) {
      r = a.n2;
      other = a.n1;
      off_other = a.w1;
    }
    if (r != kInvalidNodeId && o_->shared_dist.Contains(other) &&
        o_->shared_dist.Get(other) + off_other == da) {
      roots[0] = o_->local_index.Get(r);
    }
  }

  double exact = *best;  // the radius cap and same-edge path are exact
  double lb = kInfDistance;
  auto probe = [&](NodeId n, double off) {
    if (o_->shared_dist.Contains(n)) {
      const double dqn = o_->shared_dist.Get(n);
      const uint32_t n_local = o_->local_index.Get(n);
      if ((roots[0] != UINT32_MAX && IsAncestor(roots[0], n_local)) ||
          (roots[1] != UINT32_MAX && IsAncestor(roots[1], n_local))) {
        exact = std::min(exact, (dqn - da) + off);
      } else {
        // δ(a,n) >= |δ(q,n) − δ(q,a)| by the triangle inequality.
        lb = std::min(lb, std::abs(dqn - da) + off);
      }
    } else {
      // n was not settled within the shared radius: δ(q,n) > radius.
      lb = std::min(lb, std::max(0.0, radius_ - da) + off);
    }
  };
  probe(b.n1, b.w1);
  probe(b.n2, b.edge_weight - b.w1);

  if (exact <= lb - kCertSlack) {
    *best = exact;
    return true;
  }
  return false;
}

double PairwiseDistanceOracle::Distance(const SkResult& a_in,
                                        const SkResult& b_in) {
  if (a_in.id == b_in.id) {
    return 0.0;
  }
  // Evaluate from the canonical side — the object with the smaller
  // (dist, id) — so that δ(a,b) is bit-identical to δ(b,a) and a pure
  // function of the pair: the two directions sum the same edge weights in
  // different orders and can disagree in the last ulp, which would let
  // near-tied greedy choices diverge between SEQ and COM.
  const bool swap =
      a_in.dist != b_in.dist ? a_in.dist > b_in.dist : a_in.id > b_in.id;
  const SkResult& a = swap ? b_in : a_in;
  const SkResult& b = swap ? a_in : b_in;

  const uint64_t key = (static_cast<uint64_t>(a.id) << 32) | b.id;
  if (const double* cached = o_->pair_cache.find(key)) {
    return *cached;
  }
  ++stats_.pairs_evaluated;

  double best = radius_;
  if (a.edge == b.edge) {
    best = std::min(best, std::abs(a.w1 - b.w1));
  }
  if (strategy_ == OracleStrategy::kSharedExpansion &&
      TrySharedExact(a, b, &best)) {
    ++stats_.pairs_shared_exact;
    o_->pair_cache.try_emplace(key, best);
    return best;
  }
  const FieldMap& field = FieldOf(a);
  if (const double* d = field.find(b.n1)) {
    best = std::min(best, *d + b.w1);
  }
  if (const double* d = field.find(b.n2)) {
    best = std::min(best, *d + (b.edge_weight - b.w1));
  }
  o_->pair_cache.try_emplace(key, best);
  return best;
}

double PairwiseDistanceOracle::DistanceUpperBound(const SkResult& a,
                                                 const SkResult& b) const {
  if (a.id == b.id) {
    return 0.0;
  }
  // δ(a,b) ≤ δ(q,a) + δ(q,b) (a walk through the query location), and
  // Distance() never returns more than the radius cap. Both candidates are
  // also in Distance()'s own minimization, so ub >= exact always holds.
  double ub = std::min(radius_, a.dist + b.dist);
  if (a.edge == b.edge) {
    ub = std::min(ub, std::abs(a.w1 - b.w1));
  }
  return ub;
}

void PairwiseDistanceOracle::EnsureField(const SkResult& a) {
  if (strategy_ == OracleStrategy::kPerObjectDijkstra) {
    FieldOf(a);
  }
}

void PairwiseDistanceOracle::DropField(ObjectId id) {
  if (const uint32_t* idx = o_->field_index.find(id)) {
    o_->free_fields.push_back(*idx);
    o_->field_index.erase(id);
  }
}

}  // namespace dsks
