#include "core/semantics/expected_score.h"

#include <limits>

#include "core/engine/prepared_relation.h"
#include "util/check.h"

namespace urank {
namespace {

std::vector<RankedTuple> NegatedTopK(const std::vector<double>& scores,
                                     const std::vector<int>& ids, int k) {
  std::vector<double> neg(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) neg[i] = -scores[i];
  return TopKByStatistic(ids, neg, k);
}

}  // namespace

std::vector<double> AttrExpectedScores(const AttrRelation& rel) {
  std::vector<double> scores(static_cast<size_t>(rel.size()), 0.0);
  for (int i = 0; i < rel.size(); ++i) {
    scores[static_cast<size_t>(i)] = rel.tuple(i).ExpectedScore();
  }
  // Score values are validated finite, so their expectations must be too.
  URANK_DCHECK_MSG(
      internal::AllFiniteInRange(scores,
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::infinity()),
      "expected score is not finite");
  return scores;
}

std::vector<double> TupleExpectedScores(const TupleRelation& rel) {
  std::vector<double> scores(static_cast<size_t>(rel.size()), 0.0);
  for (int i = 0; i < rel.size(); ++i) {
    URANK_DCHECK_PROB(rel.tuple(i).prob);
    scores[static_cast<size_t>(i)] = rel.tuple(i).prob * rel.tuple(i).score;
  }
  return scores;
}

std::vector<RankedTuple> AttrExpectedScoreTopK(const AttrRelation& rel,
                                               int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  std::vector<int> ids(static_cast<size_t>(rel.size()));
  for (int i = 0; i < rel.size(); ++i) ids[static_cast<size_t>(i)] = rel.tuple(i).id;
  return NegatedTopK(AttrExpectedScores(rel), ids, k);
}

std::vector<RankedTuple> TupleExpectedScoreTopK(const TupleRelation& rel,
                                                int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  std::vector<int> ids(static_cast<size_t>(rel.size()));
  for (int i = 0; i < rel.size(); ++i) ids[static_cast<size_t>(i)] = rel.tuple(i).id;
  return NegatedTopK(TupleExpectedScores(rel), ids, k);
}

std::vector<double> AttrExpectedScores(const PreparedAttrRelation& prepared) {
  return prepared.expected_scores();
}

namespace {

// The memoized expected-score vector, shared rather than copied.
std::shared_ptr<const std::vector<double>> CachedExpectedScores(
    const PreparedTupleRelation& prepared) {
  const StatKey key{StatKey::Kind::kExpectedScore, 0, 0.0,
                    TiePolicy::kBreakByIndex};
  return prepared.CachedStat(
      key, [&] { return TupleExpectedScores(prepared.relation()); });
}

}  // namespace

std::vector<double> TupleExpectedScores(
    const PreparedTupleRelation& prepared) {
  return *CachedExpectedScores(prepared);
}

std::vector<RankedTuple> AttrExpectedScoreTopK(
    const PreparedAttrRelation& prepared, int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return NegatedTopK(prepared.expected_scores(), prepared.ids(), k);
}

std::vector<RankedTuple> TupleExpectedScoreTopK(
    const PreparedTupleRelation& prepared, int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return NegatedTopK(*CachedExpectedScores(prepared), prepared.ids(), k);
}

}  // namespace urank
