#ifndef DSKS_PERFBENCH_REFERENCE_H_
#define DSKS_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "datagen/workload.h"
#include "harness/database.h"

namespace perfbench {

/// (object id, network distance), the unit every answer is compared in.
using Hit = std::pair<dsks::ObjectId, double>;

/// One benchmark query and the answer it must produce.
struct BenchQuery {
  dsks::WorkloadQuery query;
  bool is_div = false;
  /// SK: every result, sorted by (distance, id). Div: the selected set,
  /// sorted the same way.
  std::vector<Hit> expected;
  /// Div only: f(S) as a single-threaded COM run computes it; measured
  /// div-COM answers must reproduce it bit for bit.
  double expected_objective = 0.0;
};

/// Diversified-query knobs of every div workload (k = 10, λ = 0.8).
inline constexpr size_t kDivK = 10;
inline constexpr double kDivLambda = 0.8;

dsks::DivQuery MakeDivQuery(const dsks::WorkloadQuery& q);

/// `n` queries from GenerateWorkload (3 keywords co-occurring on one
/// object, δmax = 1500); each is a div query with probability
/// `div_share`, drawn from `seed`.
std::vector<BenchQuery> MakeQueries(const dsks::Database& db, uint64_t seed,
                                    size_t n, double div_share);

/// Relative tolerance between the SEQ and COM objectives of one query.
inline constexpr double kObjectiveTolerance = 1e-12;

/// Fills every query's expected answer, untimed. SK: brute force over the
/// object set (ObjectHasAllTerms, then one Dijkstra on the road network).
/// Div: the selection of a single-threaded SEQ run, and the objective of a
/// single-threaded COM run; `*disagreements` counts queries whose COM
/// selection differs from SEQ's or whose objectives differ by more than
/// kObjectiveTolerance.
dsks::Status ComputeReferences(dsks::Database* db,
                               std::vector<BenchQuery>* queries,
                               size_t* disagreements);

/// Deliberately corrupts the first query's expected answer (test hook
/// proving the comparison catches a wrong answer).
void PerturbReference(std::vector<BenchQuery>* queries);

/// The (id, distance) pairs of a result list, in its own order.
std::vector<Hit> ToHits(const std::vector<dsks::SkResult>& results);

/// Bit-exact comparison of a measured answer, in any order, with the
/// reference. SK answers compare ids and distances; div answers compare
/// the selected ids and distances plus the objective. `count` is the number of
/// results the engine reported; a TCP response that lists fewer hits than
/// its count fails. Pass hits.size() in-process.
bool Matches(const BenchQuery& ref, std::vector<Hit> hits, size_t count,
             double objective);

/// Fingerprint of the query set (locations, terms, δmax, op), so a run can
/// show which inputs it measured.
uint64_t QueriesFingerprint(const std::vector<BenchQuery>& queries);

}  // namespace perfbench

#endif  // DSKS_PERFBENCH_REFERENCE_H_
