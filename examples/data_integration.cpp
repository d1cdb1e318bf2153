// Data integration / record matching: tuple-level uncertainty with
// exclusion rules (the paper's motivating application for that model).
//
// Two catalogues of the same product domain are merged. Each candidate
// match carries a relevance score and a matcher confidence (existence
// probability). Alternative matches for the same source record are
// mutually exclusive — exactly an x-relation. We ask for the k best
// products across the merged, uncertain catalogue.
//
//   $ ./data_integration

#include <cstdio>
#include <vector>

#include "core/expected_rank_tuple.h"  // urank-lint: allow(engine-api)
#include "core/quantile_rank.h"  // urank-lint: allow(engine-api)
#include "core/semantics/global_topk.h"  // urank-lint: allow(engine-api)
#include "core/semantics/u_topk.h"  // urank-lint: allow(engine-api)
#include "gen/tuple_gen.h"
#include "model/tuple_model.h"
#include "util/rng.h"

namespace {

// Builds the merged catalogue: `records` source records, each producing
// 1-3 alternative matches whose confidences sum to at most 1.
urank::TupleRelation BuildMergedCatalogue(int records, urank::Rng& rng) {
  std::vector<urank::TLTuple> tuples;
  std::vector<std::vector<int>> rules;
  int next_id = 0;
  for (int r = 0; r < records; ++r) {
    const int alternatives = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<double> conf =
        rng.RandomSimplex(alternatives, rng.Uniform(0.6, 1.0));
    const double base_score = rng.Uniform(0.0, 100.0);
    std::vector<int> rule;
    for (int a = 0; a < alternatives; ++a) {
      // Alternatives score similarly but not identically.
      tuples.push_back({next_id, base_score + rng.Uniform(-5.0, 5.0),
                        conf[static_cast<size_t>(a)]});
      rule.push_back(next_id);
      ++next_id;
    }
    rules.push_back(std::move(rule));
  }
  return urank::TupleRelation(std::move(tuples), std::move(rules));
}

}  // namespace

int main() {
  urank::Rng rng(7);
  const int kRecords = 400;
  const int k = 8;
  urank::TupleRelation catalogue = BuildMergedCatalogue(kRecords, rng);

  std::printf("Merged catalogue: %d candidate tuples from %d records "
              "(%d exclusion rules), E[|W|] = %.1f\n\n",
              catalogue.size(), kRecords, catalogue.num_rules(),
              catalogue.ExpectedWorldSize());

  std::printf("Top-%d products by expected rank:\n", k);
  for (const auto& rt : urank::TupleExpectedRankTopK(catalogue, k)) {
    const int idx = rt.id;  // ids are dense in this example
    std::printf("  match %4d  score %6.2f  conf %.2f  r = %.2f\n", rt.id,
                catalogue.tuple(idx).score, catalogue.tuple(idx).prob,
                rt.statistic);
  }

  std::printf("\nTop-%d by median rank:\n", k);
  for (const auto& rt : urank::TupleQuantileRankTopK(catalogue, k, 0.5)) {
    std::printf("  match %4d  median rank = %.0f\n", rt.id, rt.statistic);
  }

  std::printf("\nGlobal-Topk (by top-%d membership probability):\n", k);
  for (int id : urank::TupleGlobalTopK(catalogue, k)) {
    std::printf("  match %4d\n", id);
  }

  // The pruned algorithm reads matches in score order and stops early —
  // the access pattern a disk- or network-resident catalogue wants.
  const urank::PrunedTopKResult pruned =
      urank::TupleExpectedRankTopKPrune(catalogue, k);
  std::printf(
      "\nT-ERank-Prune touched %lld of %d matches (answer is exact).\n",
      pruned.tuples_scanned, catalogue.size());
  return 0;
}
