#include "core/semantics/pt_k.h"

#include <algorithm>

#include "core/engine/prepared_relation.h"
#include "core/internal/tuple_sweep.h"
#include "core/internal/vector_kernels.h"
#include "core/ranking.h"
#include "core/semantics/semantics.h"
#include "util/check.h"
#include "util/kernel_annotations.h"

namespace urank {

std::vector<RankedTuple> PTkSelection(const std::vector<int>& ids,
                                      const std::vector<double>& probs,
                                      double threshold) {
  URANK_DCHECK_MSG(internal::AllFiniteInRange(probs, 0.0, 1.0),
                   "top-k membership probability outside [0,1]");
  // The qualifying tuples are exactly the first `count` entries of the
  // descending-probability order, so a k-bounded selection suffices.
  const auto count = std::count_if(probs.begin(), probs.end(),
                                   [&](double p) { return p >= threshold; });
  // Multiplying by -1 is exact: the same bits as negation.
  std::vector<double> neg(probs.size());
  vk::Active().scale(neg.data(), probs.data(), -1.0, probs.size());
  return TopKByStatistic(ids, neg, static_cast<int>(count));
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

URANK_KERNEL PrunedTopKResult TuplePTkPruned(
    const PreparedTupleRelation& prepared, int k, double threshold,
    TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
                  "threshold must be in (0,1]");
  std::vector<int> seen_ids;
  std::vector<double> seen_probs;
  PrunedTopKResult result;
  result.tuples_scanned = internal::ScanTupleTopKProbabilities(
      prepared, k, ties,
      [&](int i, double prob) {
        seen_ids.push_back(prepared.ids()[static_cast<size_t>(i)]);
        seen_probs.push_back(prob);
      },
      [&](double bound) {
        return bound < threshold - internal::kPruneStopSlack;
      });
  result.prune_stop_position = result.tuples_scanned;
  result.topk = PTkSelection(seen_ids, seen_probs, threshold);
  return result;
}

}  // namespace urank
