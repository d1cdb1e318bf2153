#include "core/semantics/pt_k.h"

#include "core/engine/prepared_relation.h"
#include "core/ranking.h"
#include "core/semantics/score_sweep.h"
#include "core/semantics/semantics.h"
#include "util/check.h"

namespace urank {

std::vector<RankedTuple> PTkSelection(const std::vector<int>& ids,
                                      const std::vector<double>& probs,
                                      double threshold) {
  URANK_DCHECK_MSG(internal::AllFiniteInRange(probs, 0.0, 1.0),
                   "top-k membership probability outside [0,1]");
  // The qualifying tuples are exactly the first `count` entries of the
  // descending-probability order, so a k-bounded selection suffices.
  int count = 0;
  std::vector<double> neg(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    neg[i] = -probs[i];
    count += probs[i] >= threshold ? 1 : 0;
  }
  return TopKByStatistic(ids, neg, count);
}

std::vector<int> AttrPTk(const AttrRelation& rel, int k, double threshold,
                         TiePolicy ties) {
  URANK_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
                  "threshold must be in (0,1]");
  std::vector<int> ids(static_cast<size_t>(rel.size()));
  for (int i = 0; i < rel.size(); ++i) ids[static_cast<size_t>(i)] = rel.tuple(i).id;
  return IdsOf(
      PTkSelection(ids, AttrTopKProbabilities(rel, k, ties), threshold));
}

std::vector<int> TuplePTk(const TupleRelation& rel, int k, double threshold,
                          TiePolicy ties) {
  URANK_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
                  "threshold must be in (0,1]");
  std::vector<int> ids(static_cast<size_t>(rel.size()));
  for (int i = 0; i < rel.size(); ++i) ids[static_cast<size_t>(i)] = rel.tuple(i).id;
  return IdsOf(
      PTkSelection(ids, TupleTopKProbabilities(rel, k, ties), threshold));
}

std::vector<int> AttrPTk(const PreparedAttrRelation& prepared, int k,
                         double threshold, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
                  "threshold must be in (0,1]");
  return IdsOf(PTkSelection(
      prepared.ids(),
      *SharedAttrTopKProbabilities(prepared, k, ties, ParallelismOptions{},
                                   nullptr),
      threshold));
}

std::vector<int> TuplePTk(const PreparedTupleRelation& prepared, int k,
                          double threshold, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
                  "threshold must be in (0,1]");
  return IdsOf(PTkSelection(
      prepared.ids(),
      *SharedTupleTopKProbabilities(prepared, k, ties, ParallelismOptions{},
                                    nullptr),
      threshold));
}

PTkPruneResult TuplePTkPruned(const TupleRelation& rel, int k,
                              double threshold, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
                  "threshold must be in (0,1]");
  ScoreOrderSweep sweep(rel, ties);
  std::vector<int> seen_ids;
  std::vector<double> seen_probs;
  while (sweep.HasNext()) {
    const int i = sweep.Next();
    seen_ids.push_back(rel.tuple(i).id);
    seen_probs.push_back(sweep.TopKProbability(k));
    // No unseen tuple can reach the threshold once the bound drops below.
    if (sweep.UnseenTopKBound(k) < threshold) break;
  }
  return {IdsOf(PTkSelection(seen_ids, seen_probs, threshold)),
          sweep.accessed()};
}

}  // namespace urank
