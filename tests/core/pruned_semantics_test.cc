// Tests for the early-terminating PT-k, Global-Topk and U-kRanks
// evaluations. Each pruned kernel runs on the prepared sweep the engine's
// unpruned kernels use, so its answer must equal the engine's prepared
// answer bit for bit — ids and statistic bits (memcmp) — not merely in
// its ids. The families below are the ones where the earlier standalone
// score-order sweep disagreed: tie-heavy relations with certain tuples
// and exactly-full rules, random small relations, the stress scenarios
// and a generator relation at N = 20k, under both tie policies.

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/scenario_gen.h"
#include "core/engine/prepared_relation.h"
#include "core/engine/query_engine.h"
#include "core/rank_distribution_tuple.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "core/semantics/semantics.h"
#include "core/semantics/u_kranks.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::PaperFig4;
using testing_util::RandomSmallTuple;

constexpr TiePolicy kBothTies[] = {TiePolicy::kStrictGreater,
                                   TiePolicy::kBreakByIndex};

std::shared_ptr<const PreparedTupleRelation> Prep(TupleRelation rel) {
  return QueryEngine::Prepare(std::move(rel));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The engine's prepared answer for one query, as ranked (id, statistic)
// pairs in the pruned kernels' convention: probabilities negated.
std::vector<RankedTuple> EngineTopK(
    const std::shared_ptr<const PreparedTupleRelation>& prepared,
    RankingSemantics semantics, int k, double threshold, TiePolicy ties) {
  QueryRequest request;
  request.options.semantics = semantics;
  request.options.k = k;
  request.options.threshold = threshold;
  request.options.ties = ties;
  const QueryResult result = QueryEngine(prepared).Run(request);
  EXPECT_TRUE(result.status.ok()) << result.status.message;
  std::vector<RankedTuple> ranked;
  for (size_t i = 0; i < result.answer.statistics.size(); ++i) {
    ranked.push_back({result.answer.ids[i], -result.answer.statistics[i]});
  }
  return ranked;
}

// U-kRanks: the engine reports winner ids only, so the winning
// probabilities come from the same prepared positional stream its kernel
// folds (-0.0 for a rank no tuple can occupy, as the pruned kernel
// reports).
std::vector<RankedTuple> EngineUKRanks(
    const std::shared_ptr<const PreparedTupleRelation>& prepared, int k,
    TiePolicy ties) {
  QueryRequest request;
  request.options.semantics = RankingSemantics::kUKRanks;
  request.options.k = k;
  request.options.ties = ties;
  const QueryResult result = QueryEngine(prepared).Run(request);
  EXPECT_TRUE(result.status.ok()) << result.status.message;
  std::vector<std::vector<double>> rows(
      static_cast<size_t>(prepared->size()));
  ForEachTuplePositionalDistribution(
      prepared->relation(), prepared->rank_order(), ties,
      ParallelismOptions{}, nullptr,
      [&](int /*chunk*/, int i, std::span<const double> row) {
        rows[static_cast<size_t>(i)].assign(row.begin(), row.end());
      },
      prepared->SweepEntries(ties).get());
  std::vector<RankedTuple> ranked;
  for (int r = 0; r < k; ++r) {
    const int id = result.answer.ids[static_cast<size_t>(r)];
    double best = 0.0;
    if (id >= 0) {
      best = rows[static_cast<size_t>(prepared->PositionOfId(id))]
                 [static_cast<size_t>(r)];
    }
    ranked.push_back({id, -best});
  }
  return ranked;
}

// Counts (rather than asserts) mismatches so a sweep over thousands of
// cases reports one readable failure per family.
int Mismatches(const std::vector<RankedTuple>& got,
               const std::vector<RankedTuple>& want) {
  if (got.size() != want.size()) return 1;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id ||
        !SameBits(got[i].statistic, want[i].statistic)) {
      return 1;
    }
  }
  return 0;
}

// Every pruned-vs-engine comparison for one relation; returns the number
// of (semantics, k, threshold, ties) cases that differ.
int CompareAll(const std::shared_ptr<const PreparedTupleRelation>& prepared,
               const std::vector<int>& ks,
               const std::vector<double>& thresholds) {
  int bad = 0;
  for (TiePolicy ties : kBothTies) {
    for (int k : ks) {
      for (double threshold : thresholds) {
        bad += Mismatches(
            TuplePTkPruned(*prepared, k, threshold, ties).topk,
            EngineTopK(prepared, RankingSemantics::kPTk, k, threshold, ties));
      }
      bad += Mismatches(TupleGlobalTopKPruned(*prepared, k, ties).topk,
                        EngineTopK(prepared, RankingSemantics::kGlobalTopk, k,
                                   0.5, ties));
      bad += Mismatches(TupleUKRanksPruned(*prepared, k, ties).topk,
                        EngineUKRanks(prepared, k, ties));
    }
  }
  return bad;
}

TEST(PrunedSemanticsIdentityTest, TieHeavyFamilyMatchesEngineBitForBit) {
  int bad = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    bad += CompareAll(Prep(testgen::TieHeavyTupleRelation(seed)),
                      {1, 2, 3, 4, 5, 6}, {1.0, 0.9, 0.7, 1.0 / 3.0});
  }
  EXPECT_EQ(bad, 0);
}

TEST(PrunedSemanticsIdentityTest, ScenarioGeneratorsMatchEngineBitForBit) {
  const std::vector<TupleRelation> scenarios = {
      testgen::CorrelatedTupleRelation(400, Correlation::kPositive, 61),
      testgen::CorrelatedTupleRelation(400, Correlation::kNegative, 62),
      testgen::ClusteredScoreTupleRelation(400, 7, 63),
      testgen::AdversarialRuleTupleRelation(400, 9, 64),
      testgen::DeconvolutionStressTupleRelation(301, 65),
  };
  for (const TupleRelation& rel : scenarios) {
    EXPECT_EQ(CompareAll(Prep(rel), {1, 5, 20}, {0.9, 0.5, 0.1}), 0);
  }
}

TEST(PrunedSemanticsIdentityTest, GeneratorAtTwentyThousandTuples) {
  TupleGenConfig config;
  config.num_tuples = 20000;
  config.seed = 47;
  EXPECT_EQ(CompareAll(Prep(GenerateTupleRelation(config)), {20}, {0.5, 0.1}),
            0);
}

TEST(PrunedScanTest, UnseenTopKBoundIsSound) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto prepared = Prep(RandomSmallTuple(rng, 10));
    const int k = 3;
    for (TiePolicy ties : kBothTies) {
      const std::vector<double> probs =
          TupleTopKProbabilities(*prepared, k, ties);
      std::vector<bool> seen(static_cast<size_t>(prepared->size()), false);
      const long long stop = internal::ScanTupleTopKProbabilities(
          *prepared, k, ties,
          [&](int i, double prob) {
            seen[static_cast<size_t>(i)] = true;
            EXPECT_TRUE(SameBits(prob, probs[static_cast<size_t>(i)]));
          },
          [&](double bound) {
            for (size_t j = 0; j < seen.size(); ++j) {
              if (!seen[j]) {
                EXPECT_LE(probs[j], bound + 1e-9);
              }
            }
            return false;
          });
      EXPECT_EQ(stop, prepared->size());
    }
  }
}

TEST(TuplePTkPrunedTest, MatchesUnprunedOnPaperExample) {
  const auto prepared = Prep(PaperFig4());
  for (double threshold : {0.1, 0.3, 0.5, 0.9}) {
    const PrunedTopKResult pruned = TuplePTkPruned(*prepared, 2, threshold);
    EXPECT_EQ(IdsOf(pruned.topk), TuplePTk(PaperFig4(), 2, threshold))
        << "threshold " << threshold;
    EXPECT_LE(pruned.tuples_scanned, 4);
    EXPECT_EQ(pruned.prune_stop_position, pruned.tuples_scanned);
  }
}

TEST(TuplePTkPrunedTest, MatchesUnprunedOnRandomInstances) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto prepared = Prep(RandomSmallTuple(rng, 10));
    for (int k : {1, 3, 6}) {
      for (double threshold : {0.05, 0.3, 0.7}) {
        for (TiePolicy ties : kBothTies) {
          EXPECT_EQ(Mismatches(
                        TuplePTkPruned(*prepared, k, threshold, ties).topk,
                        EngineTopK(prepared, RankingSemantics::kPTk, k,
                                   threshold, ties)),
                    0)
              << "k=" << k << " p=" << threshold;
        }
      }
    }
  }
}

TEST(TuplePTkPrunedTest, StopsEarlyOnLargeRelations) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.5;
  config.seed = 12;
  const auto prepared = Prep(GenerateTupleRelation(config));
  const PrunedTopKResult pruned = TuplePTkPruned(*prepared, 20, 0.5);
  EXPECT_LT(pruned.tuples_scanned, prepared->size() / 10);
  EXPECT_EQ(IdsOf(pruned.topk), TuplePTk(*prepared, 20, 0.5));
}

TEST(TuplePTkPrunedTest, HigherThresholdPrunesEarlier) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.3;
  config.seed = 13;
  const auto prepared = Prep(GenerateTupleRelation(config));
  const long long low = TuplePTkPruned(*prepared, 20, 0.05).tuples_scanned;
  const long long high = TuplePTkPruned(*prepared, 20, 0.8).tuples_scanned;
  EXPECT_LE(high, low);
}

TEST(TuplePTkPrunedDeathTest, RejectsBadArguments) {
  const PreparedTupleRelation prepared(PaperFig4());
  EXPECT_DEATH(TuplePTkPruned(prepared, 0, 0.5), "k must be >= 1");
  EXPECT_DEATH(TuplePTkPruned(prepared, 1, 0.0), "threshold");
}

TEST(TupleGlobalTopKPrunedTest, MatchesUnprunedOnPaperExample) {
  const auto prepared = Prep(PaperFig4());
  for (int k = 1; k <= 4; ++k) {
    const PrunedTopKResult pruned = TupleGlobalTopKPruned(*prepared, k);
    EXPECT_EQ(IdsOf(pruned.topk), TupleGlobalTopK(PaperFig4(), k))
        << "k=" << k;
  }
}

TEST(TupleGlobalTopKPrunedTest, MatchesUnprunedOnRandomInstances) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const auto prepared = Prep(RandomSmallTuple(rng, 10));
    for (int k : {1, 3, 6}) {
      for (TiePolicy ties : kBothTies) {
        EXPECT_EQ(Mismatches(TupleGlobalTopKPruned(*prepared, k, ties).topk,
                             EngineTopK(prepared, RankingSemantics::kGlobalTopk,
                                        k, 0.5, ties)),
                  0)
            << "k=" << k;
      }
    }
  }
}

TEST(TupleGlobalTopKPrunedTest, StopsEarlyOnLargeRelations) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.4;
  config.seed = 5;
  const auto prepared = Prep(GenerateTupleRelation(config));
  const PrunedTopKResult pruned = TupleGlobalTopKPruned(*prepared, 20);
  EXPECT_LT(pruned.tuples_scanned, prepared->size() / 10);
  EXPECT_EQ(IdsOf(pruned.topk), TupleGlobalTopK(*prepared, 20));
}

TEST(TupleUKRanksPrunedTest, MatchesUnprunedOnPaperExample) {
  const auto prepared = Prep(PaperFig4());
  for (int k = 1; k <= 4; ++k) {
    const PrunedTopKResult pruned = TupleUKRanksPruned(*prepared, k);
    EXPECT_EQ(IdsOf(pruned.topk), TupleUKRanks(PaperFig4(), k)) << "k=" << k;
  }
}

TEST(TupleUKRanksPrunedTest, MatchesUnprunedOnRandomInstances) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const auto prepared = Prep(RandomSmallTuple(rng, 10));
    for (int k : {1, 3, 6}) {
      for (TiePolicy ties : kBothTies) {
        EXPECT_EQ(Mismatches(TupleUKRanksPruned(*prepared, k, ties).topk,
                             EngineUKRanks(prepared, k, ties)),
                  0)
            << "k=" << k;
      }
    }
  }
}

TEST(TupleUKRanksPrunedTest, StopsEarlyOnLargeRelations) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.4;
  config.seed = 7;
  const auto prepared = Prep(GenerateTupleRelation(config));
  const PrunedTopKResult pruned = TupleUKRanksPruned(*prepared, 10);
  EXPECT_LT(pruned.tuples_scanned, prepared->size() / 10);
  EXPECT_EQ(IdsOf(pruned.topk), TupleUKRanks(*prepared, 10));
}

TEST(PrunedSemanticsDeathTest, RejectBadArguments) {
  const PreparedTupleRelation prepared(PaperFig4());
  EXPECT_DEATH(TupleGlobalTopKPruned(prepared, 0), "k must be >= 1");
  EXPECT_DEATH(TupleUKRanksPruned(prepared, 0), "k must be >= 1");
}

}  // namespace
}  // namespace urank
