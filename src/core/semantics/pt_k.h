// Probabilistic threshold top-k (PT-k) semantics (Hua et al. [23]).
//
// Returns every tuple whose top-k probability meets a user threshold p.
// The answer is a set whose size is usually not k (it violates exact-k and
// only weakly satisfies containment — paper Section 4.2).

#ifndef URANK_CORE_SEMANTICS_PT_K_H_
#define URANK_CORE_SEMANTICS_PT_K_H_

#include <vector>

#include "core/ranking.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "model/types.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// Ids of all tuples with Pr[in top-k] >= threshold, ordered by descending
// top-k probability (ties by smaller id). Requires k >= 1 and threshold in
// (0, 1].
std::vector<int> AttrPTk(const AttrRelation& rel, int k, double threshold,
                         TiePolicy ties = TiePolicy::kBreakByIndex);
std::vector<int> TuplePTk(const TupleRelation& rel, int k, double threshold,
                          TiePolicy ties = TiePolicy::kBreakByIndex);

// Prepared-state overloads: the top-k probabilities come from the prepared
// cache (shared with Global-Topk and any other query at the same k), so
// only the threshold selection runs per call. Identical answers to the
// one-shot forms. Requires k >= 1 and threshold in (0, 1].
std::vector<int> AttrPTk(const PreparedAttrRelation& prepared, int k,
                         double threshold,
                         TiePolicy ties = TiePolicy::kBreakByIndex);
std::vector<int> TuplePTk(const PreparedTupleRelation& prepared, int k,
                          double threshold,
                          TiePolicy ties = TiePolicy::kBreakByIndex);

// The PT-k selection every entry point above ends in, over a top-k
// probability vector indexed like `ids`: the tuples with
// probs[i] >= threshold, ordered by (probability desc, id asc), each
// carrying -probs[i] as its statistic (lower is better). Costs
// O(N log c) for c qualifying tuples, not a full sort.
std::vector<RankedTuple> PTkSelection(const std::vector<int>& ids,
                                      const std::vector<double>& probs,
                                      double threshold);

// Early-terminating PT-k on the tuple-level model — the access pattern of
// Hua et al. [23]: consume tuples in decreasing score order, computing each
// seen tuple's exact top-k probability on the prepared sweep, and stop as
// soon as no unseen tuple can reach the threshold. The stop test is sound:
// an unseen tuple is outranked by every appearing tuple scanned so far
// (own-rule siblings cannot appear with it), so its top-k probability is
// at most Pr[#appearing seen tuples <= k]. `topk` equals
// PTkSelection(prepared.ids(), SharedTupleTopKProbabilities(...),
// threshold), statistic bits included (negated probabilities). Requires
// k >= 1 and threshold in (0, 1].
PrunedTopKResult TuplePTkPruned(const PreparedTupleRelation& prepared, int k,
                                double threshold,
                                TiePolicy ties = TiePolicy::kBreakByIndex);

}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_PT_K_H_
