#include "obs/trace.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

#include "common/macros.h"

namespace dsks::obs {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[320];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kQuery:
      return "query";
    case Phase::kKeywordLookup:
      return "keyword_lookup";
    case Phase::kNetworkExpansion:
      return "network_expansion";
    case Phase::kOracleSharedExpansion:
      return "oracle_shared_expansion";
    case Phase::kOracleFieldDijkstra:
      return "oracle_field_dijkstra";
    case Phase::kGreedySelection:
      return "greedy_selection";
  }
  return "?";
}

void QueryTrace::BindContextIo(const IoCounters* io) {
  DSKS_CHECK_MSG(open_.empty(),
                 "rebinding the trace I/O source with spans open");
  context_io_ = io;
}

void QueryTrace::Clear() {
  spans_.clear();
  open_.clear();
  epoch_ns_ = 0;
  error_code_name_ = nullptr;
}

IoCounters QueryTrace::ReadIo() const {
  // The context's counters are only written by the thread running its
  // query — this thread — so a plain copy is an exact snapshot.
  return context_io_ != nullptr ? *context_io_ : IoCounters{};
}

int64_t QueryTrace::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t QueryTrace::OpenSpan(Phase phase) {
  const int64_t now = NowNs();
  if (spans_.empty()) {
    epoch_ns_ = now;
  }
  const auto index = static_cast<uint32_t>(spans_.size());
  TraceSpan& s = spans_.emplace_back();
  s.phase = phase;
  s.depth = static_cast<uint16_t>(open_.size());
  s.parent = open_.empty() ? TraceSpan::kNoParent : open_.back();
  s.start_ns = now - epoch_ns_;
  // Stash the open-time absolute values in the delta fields; CloseSpan
  // turns them into real deltas.
  s.inclusive_ns = now;
  s.inclusive_io = ReadIo();
  open_.push_back(index);
  return index;
}

void QueryTrace::CloseSpan(uint32_t index) {
  DSKS_CHECK_MSG(!open_.empty() && open_.back() == index,
                 "trace spans must close in LIFO order");
  open_.pop_back();
  TraceSpan& s = spans_[index];
  s.inclusive_ns = NowNs() - s.inclusive_ns;
  s.inclusive_io = ReadIo() - s.inclusive_io;
  if (s.parent != TraceSpan::kNoParent) {
    TraceSpan& p = spans_[s.parent];
    p.child_ns += s.inclusive_ns;
    p.child_io += s.inclusive_io;
  }
}

std::array<QueryTrace::PhaseTotals, kNumPhases> QueryTrace::AggregateByPhase()
    const {
  DSKS_CHECK_MSG(open_.empty(), "aggregate with spans still open");
  std::array<PhaseTotals, kNumPhases> totals{};
  for (const TraceSpan& s : spans_) {
    PhaseTotals& t = totals[static_cast<size_t>(s.phase)];
    ++t.spans;
    t.exclusive_ns += s.exclusive_ns();
    t.io += s.exclusive_io();
  }
  return totals;
}

std::vector<QueryTrace::TreeNode> QueryTrace::AggregateTree() const {
  DSKS_CHECK_MSG(open_.empty(), "aggregate with spans still open");
  std::vector<TreeNode> nodes;
  // (parent tree node, phase) -> tree node; spans_ lists parents before
  // their children, so the parent's node always exists already.
  std::map<std::pair<uint32_t, Phase>, uint32_t> by_key;
  std::vector<uint32_t> span_node(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    const uint32_t parent_node = s.parent == TraceSpan::kNoParent
                                     ? TreeNode::kNoParent
                                     : span_node[s.parent];
    const auto key = std::make_pair(parent_node, s.phase);
    auto [it, inserted] = by_key.try_emplace(
        key, static_cast<uint32_t>(nodes.size()));
    if (inserted) {
      TreeNode& n = nodes.emplace_back();
      n.phase = s.phase;
      n.depth = s.depth;
      n.parent = parent_node;
    }
    span_node[i] = it->second;
    TreeNode& n = nodes[it->second];
    ++n.count;
    n.inclusive_ns += s.inclusive_ns;
    n.child_ns += s.child_ns;
    n.inclusive_io += s.inclusive_io;
    n.child_io += s.child_io;
  }
  return nodes;
}

std::string QueryTrace::ToText() const {
  const std::vector<TreeNode> nodes = AggregateTree();
  std::string out;
  if (error_code_name_ != nullptr) {
    AppendF(&out, "ERROR %s (spans below = work done before the failure)\n",
            error_code_name_);
  }
  AppendF(&out, "%-48s %8s %12s %12s %9s %9s %9s %9s %9s\n", "span", "count",
          "incl ms", "own ms", "hits", "misses", "reads", "writes",
          "prefetch");
  for (const TreeNode& n : nodes) {
    std::string label(static_cast<size_t>(n.depth) * 2, ' ');
    label += PhaseName(n.phase);
    const IoCounters own = n.exclusive_io();
    AppendF(&out,
            "%-48s %8llu %12.3f %12.3f %9llu %9llu %9llu %9llu %9llu\n",
            label.c_str(), static_cast<unsigned long long>(n.count),
            Ms(n.inclusive_ns), Ms(n.exclusive_ns()),
            static_cast<unsigned long long>(own.pool_hits),
            static_cast<unsigned long long>(own.pool_misses),
            static_cast<unsigned long long>(own.disk_reads),
            static_cast<unsigned long long>(own.disk_writes),
            static_cast<unsigned long long>(own.prefetched_pages));
  }
  return out;
}

std::string QueryTrace::ToJson() const {
  const std::vector<TreeNode> nodes = AggregateTree();
  std::string out = "{";
  if (error_code_name_ != nullptr) {
    AppendF(&out, "\"error\":\"%s\",", error_code_name_);
  }
  out.append("\"tree\":[");
  // Nodes are emitted flat with a parent index — nesting the JSON would
  // complicate consumers for no benefit (depth + parent reconstruct it).
  for (size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& n = nodes[i];
    const IoCounters own = n.exclusive_io();
    if (i > 0) {
      out.append(",");
    }
    AppendF(&out,
            "{\"phase\":\"%s\",\"depth\":%u,\"parent\":%lld,"
            "\"count\":%llu,\"ms\":%.6f,\"own_ms\":%.6f,"
            "\"pool_hits\":%llu,\"pool_misses\":%llu,"
            "\"disk_reads\":%llu,\"disk_writes\":%llu,"
            "\"prefetched_pages\":%llu}",
            PhaseName(n.phase), n.depth,
            n.parent == TreeNode::kNoParent ? -1LL
                                            : static_cast<long long>(n.parent),
            static_cast<unsigned long long>(n.count), Ms(n.inclusive_ns),
            Ms(n.exclusive_ns()),
            static_cast<unsigned long long>(own.pool_hits),
            static_cast<unsigned long long>(own.pool_misses),
            static_cast<unsigned long long>(own.disk_reads),
            static_cast<unsigned long long>(own.disk_writes),
            static_cast<unsigned long long>(own.prefetched_pages));
  }
  out.append("],\"phases\":{");
  const auto totals = AggregateByPhase();
  bool first = true;
  for (size_t p = 0; p < kNumPhases; ++p) {
    const PhaseTotals& t = totals[p];
    if (t.spans == 0) {
      continue;
    }
    if (!first) {
      out.append(",");
    }
    first = false;
    AppendF(&out,
            "\"%s\":{\"spans\":%llu,\"ms\":%.6f,\"pool_hits\":%llu,"
            "\"pool_misses\":%llu,\"disk_reads\":%llu,\"disk_writes\":%llu,"
            "\"prefetched_pages\":%llu}",
            PhaseName(static_cast<Phase>(p)),
            static_cast<unsigned long long>(t.spans), Ms(t.exclusive_ns),
            static_cast<unsigned long long>(t.io.pool_hits),
            static_cast<unsigned long long>(t.io.pool_misses),
            static_cast<unsigned long long>(t.io.disk_reads),
            static_cast<unsigned long long>(t.io.disk_writes),
            static_cast<unsigned long long>(t.io.prefetched_pages));
  }
  out.append("}}");
  return out;
}

}  // namespace dsks::obs
