// Quickstart: build a tiny uncertain relation in each model and answer a
// top-k query by expected rank — the paper's Figs. 2 and 4 end to end.
//
//   $ ./quickstart

#include <cstdio>

#include "core/expected_rank_attr.h"  // urank-lint: allow(engine-api)
#include "core/expected_rank_tuple.h"  // urank-lint: allow(engine-api)
#include "core/quantile_rank.h"  // urank-lint: allow(engine-api)
#include "model/attr_model.h"
#include "model/tuple_model.h"

namespace {

void PrintRanked(const char* title,
                 const std::vector<urank::RankedTuple>& ranked) {
  std::printf("%s\n", title);
  for (size_t pos = 0; pos < ranked.size(); ++pos) {
    std::printf("  #%zu: tuple t%d (statistic %.3f)\n", pos + 1,
                ranked[pos].id, ranked[pos].statistic);
  }
}

}  // namespace

int main() {
  // ---- Attribute-level model: every tuple exists, its score is a small
  // discrete pdf (paper Fig. 2).
  urank::AttrRelation attr({
      {1, {{100.0, 0.4}, {70.0, 0.6}}},
      {2, {{92.0, 0.6}, {80.0, 0.4}}},
      {3, {{85.0, 1.0}}},
  });
  PrintRanked("Attribute-level top-3 by expected rank (expect t2, t3, t1):",
              urank::AttrExpectedRankTopK(attr, 3));

  // ---- Tuple-level model: fixed scores, existence probabilities, and an
  // exclusion rule saying t2 and t4 never co-occur (paper Fig. 4).
  urank::TupleRelation tuples(
      {
          {1, 100.0, 0.4},
          {2, 90.0, 0.5},
          {3, 80.0, 1.0},
          {4, 70.0, 0.5},
      },
      {{0}, {1, 3}, {2}});
  PrintRanked("\nTuple-level top-4 by expected rank (expect t3, t1, t2, t4):",
              urank::TupleExpectedRankTopK(tuples, 4));

  // ---- The same query under the median rank: a more outlier-robust
  // statistic of the same rank distribution (paper Section 7).
  PrintRanked("\nTuple-level top-4 by median rank (expect t2, t3, t1, t4):",
              urank::TupleQuantileRankTopK(tuples, 4, /*phi=*/0.5));

  // ---- Pruned evaluation: same answer, fewer tuple accesses.
  const urank::PrunedTopKResult pruned =
      urank::TupleExpectedRankTopKPrune(tuples, 2);
  std::printf("\nT-ERank-Prune touched %lld of %d tuples for the top-2.\n",
              pruned.tuples_scanned, tuples.size());
  return 0;
}
