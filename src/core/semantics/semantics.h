// Shared building blocks for the prior-work ranking semantics
// (paper Section 4.2): per-tuple top-k membership probabilities.
//
// The top-k probability of a tuple is the probability, across all possible
// worlds, that the tuple appears among the k highest-scored appearing
// tuples. In the attribute-level model every tuple appears in every world,
// so this is the cdf of its rank distribution at k-1; in the tuple-level
// model it is the sum of the first k positional probabilities (presence
// required). PT-k and Global-Topk are thin layers over these values.

#ifndef URANK_CORE_SEMANTICS_SEMANTICS_H_
#define URANK_CORE_SEMANTICS_SEMANTICS_H_

#include <functional>
#include <memory>
#include <vector>

#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "model/types.h"
#include "util/parallel.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// result[i] = Pr[t_i is in the top-k], indexed by tuple position.
// Requires k >= 1. O(s N³) attribute-level, O(N M²) worst-case tuple-level
// (the exact rank-distribution DPs).
std::vector<double> AttrTopKProbabilities(
    const AttrRelation& rel, int k,
    TiePolicy ties = TiePolicy::kBreakByIndex);
std::vector<double> TupleTopKProbabilities(
    const TupleRelation& rel, int k,
    TiePolicy ties = TiePolicy::kBreakByIndex);

// Prepared-state overloads: the attribute-level form reads the shared
// rank-distribution matrix (so every k shares one O(s N³) DP), the
// tuple-level form streams positional rows over the prepared rank order in
// O(N + M) memory; both memoize the probability vector per (k, ties).
// Results are bit-identical to the one-shot forms. Requires k >= 1.
std::vector<double> AttrTopKProbabilities(
    const PreparedAttrRelation& prepared, int k,
    TiePolicy ties = TiePolicy::kBreakByIndex);
std::vector<double> TupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k,
    TiePolicy ties = TiePolicy::kBreakByIndex);

// Parallel-aware prepared forms: a cache miss runs the underlying DP with
// `par` worker slots (bit-identical results regardless) and Merge()s what
// the kernel did into `report` when non-null; a cache hit leaves `report`
// untouched. Requires k >= 1.
std::vector<double> AttrTopKProbabilities(
    const PreparedAttrRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report);
std::vector<double> TupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report);

// The memoized vector behind the parallel-aware forms, shared instead of
// copied: the prepared PT-k and Global-Topk selections and QueryEngine
// read it in place. Requires k >= 1.
std::shared_ptr<const std::vector<double>> SharedAttrTopKProbabilities(
    const PreparedAttrRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report);
std::shared_ptr<const std::vector<double>> SharedTupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report);

namespace internal {

// The score-order scan behind TuplePTkPruned and TupleGlobalTopKPruned:
// a serial sweep of the prepared chunk grid (SweepChunksSerially) that
// computes each visited tuple's top-k probability exactly as
// SharedTupleTopKProbabilities does — p·appear, then ops.sum over the
// first min(k, row size) entries, clamped to 1 — so every value is
// bit-identical to that tuple's entry of the memoized vector.
// `visit(i, prob)` sees the tuples in rank order. `stop(bound)` runs at
// every run boundary with an upper bound on the top-k probability of
// every unvisited tuple: it is outranked by every flushed appearing
// tuple (own-rule siblings cannot appear with it), so its top-k
// probability is at most Pr[#appearing flushed tuples <= k]. Returning
// true ends the scan. Returns the stop position (N when the scan ran
// out). Requires k >= 1.
long long ScanTupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties,
    const std::function<void(int, double)>& visit,
    const std::function<bool(double)>& stop);

}  // namespace internal
}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_SEMANTICS_H_
