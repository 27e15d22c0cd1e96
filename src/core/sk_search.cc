#include "core/sk_search.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/trace.h"

namespace dsks {

namespace {

/// Every kPrefetchInterval settles, hand the buffer pool the CCAM pages of
/// the heap's shallow layers — a sample of the nodes Dijkstra settles next.
/// Purely advisory: the pool drops failures and the expansion never waits,
/// so settled distances are bit-identical with prefetching on or off.
constexpr uint64_t kPrefetchInterval = 32;
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

IncrementalSkSearch::IncrementalSkSearch(const CcamGraph* graph,
                                         ObjectIndex* index,
                                         const SkQuery& query,
                                         const QueryEdgeInfo& query_edge,
                                         QueryContext* ctx)
    : graph_(graph),
      index_(index),
      delta_max_(query.delta_max),
      terms_(query.terms) {
  DSKS_CHECK_MSG(!terms_.empty(), "SK query needs at least one keyword");
  DSKS_CHECK_MSG(delta_max_ > 0.0, "delta_max must be positive");
  DSKS_CHECK(std::is_sorted(terms_.begin(), terms_.end()));
  DSKS_CHECK_MSG(query_edge.n1 < query_edge.n2,
                 "query edge endpoints must be (reference, far) ordered");

  if (ctx == nullptr) {
    owned_ctx_ = std::make_unique<QueryContext>();
    ctx = owned_ctx_.get();
  }
  ctx_ = ctx;
  s_ = &ctx_->sk_search;
  DSKS_DCHECK_MSG(!ctx_->sk_search_in_use,
                  "QueryContext serves one SK search at a time");
  ctx_->sk_search_in_use = true;

  // Reset-not-free: epoch bumps and clears that keep all capacity from the
  // previous query on this context.
  s_->tentative.EnsureSize(graph_->num_nodes());
  s_->settled.EnsureSize(graph_->num_nodes());
  s_->tentative.Reset();
  s_->settled.Reset();
  s_->node_heap.clear();
  s_->object_heap.clear();
  s_->edge_slot.clear();
  s_->edge_pool_used = 0;
  s_->object_state.clear();
  if (s_->adjacency.capacity() == 0) {
    s_->adjacency.reserve(16);
  }

  // Seed Dijkstra with the two endpoints of the query's edge.
  RelaxNode(query_edge.n1, query_edge.w1);
  RelaxNode(query_edge.n2, query_edge.weight - query_edge.w1);

  // Objects on the query's own edge are reachable directly along the edge
  // (δ(q,p) = w(q,p) when both lie on the same edge, §2.1); paths through
  // the endpoints are applied when those endpoints settle.
  const uint32_t slot = AllocEdgeSlot();
  LoadedEdgeSlot& le = s_->edge_pool[slot];
  le.weight = query_edge.weight;
  {
    obs::ScopedSpan span(ctx_->trace, obs::Phase::kKeywordLookup);
    status_ = index_->LoadObjects(query_edge.edge, terms_, &le.objects);
  }
  if (!status_.ok()) {
    le.objects.clear();
    return;
  }
  s_->edge_slot.try_emplace(query_edge.edge, slot);
  for (const LoadedObject& o : le.objects) {
    UpdateObject(o, query_edge.edge, query_edge.n1, query_edge.n2,
                 query_edge.weight, std::abs(o.w1 - query_edge.w1));
  }
}

IncrementalSkSearch::~IncrementalSkSearch() {
  ctx_->sk_search_in_use = false;
}

uint32_t IncrementalSkSearch::AllocEdgeSlot() {
  if (s_->edge_pool_used == s_->edge_pool.size()) {
    s_->edge_pool.emplace_back();
  }
  LoadedEdgeSlot& slot = s_->edge_pool[s_->edge_pool_used];
  slot.objects.clear();  // keeps the vector's capacity
  return static_cast<uint32_t>(s_->edge_pool_used++);
}

void IncrementalSkSearch::RelaxNode(NodeId v, double dist) {
  if (dist > delta_max_ || s_->settled.Contains(v)) {
    return;
  }
  const double* t = s_->tentative.Find(v);
  if (t == nullptr || dist < *t) {
    s_->tentative.Set(v, dist);
    s_->node_heap.push({dist, v});
  }
}

void IncrementalSkSearch::UpdateObject(const LoadedObject& o, EdgeId e,
                                       NodeId n1, NodeId n2, double w,
                                       double dist) {
  auto [st, inserted] = s_->object_state.try_emplace(o.id);
  if (inserted) {
    st->best = dist;
    st->edge = e;
    st->n1 = n1;
    st->n2 = n2;
    st->w1 = o.w1;
    st->edge_weight = w;
    s_->object_heap.push({dist, o.id});
    return;
  }
  if (dist < st->best) {
    DSKS_CHECK_MSG(!st->emitted, "emitted object distance improved");
    st->best = dist;
    s_->object_heap.push({dist, o.id});
  }
}

void IncrementalSkSearch::ProcessEdge(EdgeId e, double w, NodeId v, NodeId nb,
                                      double d) {
  const uint32_t* found = s_->edge_slot.find(e);
  uint32_t slot;
  if (found == nullptr) {
    ++stats_.edges_processed;
    slot = AllocEdgeSlot();
    LoadedEdgeSlot& le = s_->edge_pool[slot];
    le.weight = w;
    // The index loads straight into the pooled vector — no intermediate
    // scratch copy.
    {
      obs::ScopedSpan span(ctx_->trace, obs::Phase::kKeywordLookup);
      status_ = index_->LoadObjects(e, terms_, &le.objects);
    }
    if (!status_.ok()) {
      le.objects.clear();
      return;
    }
    s_->edge_slot.try_emplace(e, slot);
  } else {
    slot = *found;
  }
  // v was just settled at distance d; the cost from v to an object at
  // offset w1 (from the reference node n1 = min endpoint id) is w1 if v is
  // n1, else w - w1.
  const bool v_is_n1 = v < nb;
  const NodeId n1 = std::min(v, nb);
  const NodeId n2 = std::max(v, nb);
  const std::vector<LoadedObject>& objects = s_->edge_pool[slot].objects;
  for (const LoadedObject& o : objects) {
    const double via_v = d + (v_is_n1 ? o.w1 : w - o.w1);
    UpdateObject(o, e, n1, n2, w, via_v);
  }
}

double IncrementalSkSearch::NodeLowerBound() {
  while (!s_->node_heap.empty()) {
    const auto& [d, v] = s_->node_heap.top();
    if (s_->settled.Contains(v)) {
      s_->node_heap.pop();
      continue;
    }
    const double* t = s_->tentative.Find(v);
    if (t == nullptr || *t != d) {
      s_->node_heap.pop();  // superseded entry
      continue;
    }
    if (d > delta_max_) {
      expansion_done_ = true;
      return kInfDistance;
    }
    return d;
  }
  expansion_done_ = true;
  return kInfDistance;
}

bool IncrementalSkSearch::ExpandOneNode() {
  const double d = NodeLowerBound();
  if (expansion_done_) {
    return false;
  }
  obs::ScopedSpan span(ctx_->trace, obs::Phase::kNetworkExpansion);
  const NodeId v = s_->node_heap.top().second;
  s_->node_heap.pop();
  s_->settled.Set(v, d);
  ++stats_.nodes_settled;
  if (stats_.nodes_settled % kPrefetchInterval == 0) {
    // Deadline poll shares the settle-batch cadence with the prefetch
    // issuer: one clock read per batch, never per node. The spans and I/O
    // recorded so far remain as the cancelled query's partial-work account.
    if (ctx_->DeadlineExceeded()) {
      status_ = Status::Cancelled("query deadline exceeded during expansion");
      return false;
    }
    PrefetchFrontier(*graph_, s_->node_heap);
  }

  status_ = graph_->GetAdjacency(v, &s_->adjacency);
  if (!status_.ok()) {
    return false;
  }
  for (const AdjacentEdge& adj : s_->adjacency) {
    if (!s_->settled.Contains(adj.neighbor)) {
      RelaxNode(adj.neighbor, d + adj.weight);
    }
    ProcessEdge(adj.edge, adj.weight, v, adj.neighbor, d);
    if (!status_.ok()) {
      return false;
    }
  }
  return true;
}

bool IncrementalSkSearch::Next(SkResult* out) {
  if (terminated_ || !status_.ok()) {
    return false;
  }
  // One poll per pulled result catches deadlines that expire between
  // settle batches (or before the first one on a tiny expansion).
  if (ctx_->DeadlineExceeded()) {
    status_ = Status::Cancelled("query deadline exceeded");
    return false;
  }
  while (true) {
    const double delta_t =
        expansion_done_ ? kInfDistance : NodeLowerBound();

    // Emit the closest finalized object, if any.
    while (!s_->object_heap.empty()) {
      const auto [d, id] = s_->object_heap.top();
      SkObjectState* st = s_->object_state.find(id);
      DSKS_DCHECK(st != nullptr);
      if (st->emitted || d != st->best) {
        s_->object_heap.pop();  // stale or duplicate entry
        continue;
      }
      if (d > delta_t) {
        break;  // might still improve through an unsettled node
      }
      s_->object_heap.pop();
      st->emitted = true;
      if (d > delta_max_) {
        continue;  // final but outside the search range
      }
      ++stats_.objects_emitted;
      out->id = id;
      out->edge = st->edge;
      out->n1 = st->n1;
      out->n2 = st->n2;
      out->w1 = st->w1;
      out->edge_weight = st->edge_weight;
      out->dist = d;
      return true;
    }

    if (expansion_done_) {
      return false;  // nothing settleable left and all objects flushed
    }
    if (!ExpandOneNode()) {
      if (!status_.ok()) {
        return false;  // storage error; the caller reads status()
      }
      continue;  // expansion just finished; flush remaining objects
    }
  }
}

}  // namespace dsks
