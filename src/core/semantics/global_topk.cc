#include "core/semantics/global_topk.h"

#include <functional>
#include <queue>

#include "core/engine/prepared_relation.h"
#include "core/internal/tuple_sweep.h"
#include "core/ranking.h"
#include "core/semantics/semantics.h"
#include "util/check.h"
#include "util/kernel_annotations.h"

namespace urank {

std::vector<RankedTuple> GlobalTopKSelection(const std::vector<int>& ids,
                                             const std::vector<double>& probs,
                                             int k) {
  URANK_DCHECK_MSG(internal::AllFiniteInRange(probs, 0.0, 1.0),
                   "top-k membership probability outside [0,1]");
  std::vector<double> neg(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) neg[i] = -probs[i];
  return TopKByStatistic(ids, neg, k);
}

std::vector<int> AttrGlobalTopK(const AttrRelation& rel, int k,
                                TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  std::vector<int> ids(static_cast<size_t>(rel.size()));
  for (int i = 0; i < rel.size(); ++i) ids[static_cast<size_t>(i)] = rel.tuple(i).id;
  return IdsOf(
      GlobalTopKSelection(ids, AttrTopKProbabilities(rel, k, ties), k));
}

std::vector<int> TupleGlobalTopK(const TupleRelation& rel, int k,
                                 TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  std::vector<int> ids(static_cast<size_t>(rel.size()));
  for (int i = 0; i < rel.size(); ++i) ids[static_cast<size_t>(i)] = rel.tuple(i).id;
  return IdsOf(
      GlobalTopKSelection(ids, TupleTopKProbabilities(rel, k, ties), k));
}

std::vector<int> AttrGlobalTopK(const PreparedAttrRelation& prepared, int k,
                                TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return IdsOf(GlobalTopKSelection(
      prepared.ids(),
      *SharedAttrTopKProbabilities(prepared, k, ties, ParallelismOptions{},
                                   nullptr),
      k));
}

std::vector<int> TupleGlobalTopK(const PreparedTupleRelation& prepared,
                                 int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return IdsOf(GlobalTopKSelection(
      prepared.ids(),
      *SharedTupleTopKProbabilities(prepared, k, ties, ParallelismOptions{},
                                    nullptr),
      k));
}

URANK_KERNEL PrunedTopKResult TupleGlobalTopKPruned(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  std::vector<int> seen_ids;
  std::vector<double> seen_probs;
  // Min-heap over the k best probabilities seen; top() is the k-th best.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      best_k;
  PrunedTopKResult result;
  result.tuples_scanned = internal::ScanTupleTopKProbabilities(
      prepared, k, ties,
      [&](int i, double prob) {
        seen_ids.push_back(prepared.ids()[static_cast<size_t>(i)]);
        seen_probs.push_back(prob);
        if (static_cast<int>(best_k.size()) < k) {
          best_k.push(prob);
        } else if (prob > best_k.top()) {
          best_k.pop();
          best_k.push(prob);
        }
      },
      [&](double bound) {
        // An unseen tuple bounded strictly below the k-th best can neither
        // beat it nor tie it (a tie would be broken by id).
        return static_cast<int>(best_k.size()) == k &&
               bound < best_k.top() - internal::kPruneStopSlack;
      });
  result.prune_stop_position = result.tuples_scanned;
  result.topk = GlobalTopKSelection(seen_ids, seen_probs, k);
  return result;
}

}  // namespace urank
