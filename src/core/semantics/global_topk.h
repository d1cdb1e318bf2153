// Global-Topk semantics (Zhang & Chomicki [48]).
//
// Ranks tuples by their top-k probability and returns the k best. Always
// returns exactly k tuples (when N >= k) but fails containment: the
// probability being ranked against depends on k itself (paper Section 4.2).

#ifndef URANK_CORE_SEMANTICS_GLOBAL_TOPK_H_
#define URANK_CORE_SEMANTICS_GLOBAL_TOPK_H_

#include <vector>

#include "core/ranking.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "model/types.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// Ids of the k tuples with the highest top-k probability, in descending
// probability order (ties by smaller id). Requires k >= 1.
std::vector<int> AttrGlobalTopK(const AttrRelation& rel, int k,
                                TiePolicy ties = TiePolicy::kBreakByIndex);
std::vector<int> TupleGlobalTopK(const TupleRelation& rel, int k,
                                 TiePolicy ties = TiePolicy::kBreakByIndex);

// Prepared-state overloads: the top-k probabilities come from the prepared
// cache (shared with PT-k and any other query at the same k), so only the
// size-k selection runs per call. Identical answers to the one-shot forms.
// Requires k >= 1.
std::vector<int> AttrGlobalTopK(const PreparedAttrRelation& prepared, int k,
                                TiePolicy ties = TiePolicy::kBreakByIndex);
std::vector<int> TupleGlobalTopK(const PreparedTupleRelation& prepared,
                                 int k,
                                 TiePolicy ties = TiePolicy::kBreakByIndex);

// The Global-Topk selection every entry point above ends in, over a top-k
// probability vector indexed like `ids`: the min(k, N) tuples of highest
// probability, ordered by (probability desc, id asc), each carrying
// -probs[i] as its statistic (lower is better). O(N log k).
std::vector<RankedTuple> GlobalTopKSelection(const std::vector<int>& ids,
                                             const std::vector<double>& probs,
                                             int k);

// Early-terminating Global-Topk on the tuple-level model (the
// Zhang-Chomicki style scan): consume tuples in decreasing score order
// computing exact top-k probabilities on the prepared sweep, and stop once
// no unseen tuple can beat the k-th best seen probability — an unseen
// tuple's top-k probability is at most Pr[#appearing seen tuples <= k].
// `topk` equals GlobalTopKSelection(prepared.ids(),
// SharedTupleTopKProbabilities(...), k), statistic bits included (negated
// probabilities). Requires k >= 1.
PrunedTopKResult TupleGlobalTopKPruned(
    const PreparedTupleRelation& prepared, int k,
    TiePolicy ties = TiePolicy::kBreakByIndex);

}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_GLOBAL_TOPK_H_
