#include "core/semantics/semantics.h"

#include <cstring>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "model/possible_worlds.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace urank {
namespace {

using testing_util::ExpectNearVectors;
using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::RandomSmallAttr;
using testing_util::RandomSmallTuple;

TEST(AttrTopKProbabilitiesTest, PaperFig2TopTwo) {
  // Derived in Section 4.2's PT-k discussion: top-2 probabilities are
  // 0.4 (t1), 0.84 (t2), 0.76 (t3).
  ExpectNearVectors(AttrTopKProbabilities(PaperFig2(), 2),
                    {0.4, 0.84, 0.76}, 1e-12);
}

TEST(AttrTopKProbabilitiesTest, TopNIsCertain) {
  // Every tuple is within the top-N in every world.
  Rng rng(1);
  AttrRelation rel = RandomSmallAttr(rng, 6, 3);
  for (double p : AttrTopKProbabilities(rel, rel.size())) {
    EXPECT_NEAR(p, 1.0, 1e-9);
  }
}

TEST(AttrTopKProbabilitiesTest, MonotoneInK) {
  Rng rng(2);
  AttrRelation rel = RandomSmallAttr(rng, 6, 3);
  const auto k1 = AttrTopKProbabilities(rel, 1);
  const auto k2 = AttrTopKProbabilities(rel, 2);
  const auto k4 = AttrTopKProbabilities(rel, 4);
  for (int i = 0; i < rel.size(); ++i) {
    EXPECT_LE(k1[static_cast<size_t>(i)], k2[static_cast<size_t>(i)] + 1e-12);
    EXPECT_LE(k2[static_cast<size_t>(i)], k4[static_cast<size_t>(i)] + 1e-12);
  }
}

TEST(TupleTopKProbabilitiesTest, PaperFig4Values) {
  // Worked out in Section 4.2's Global-Topk discussion: top-1 probs are
  // .4/.3/.3/0, top-2 probs .4/.5/.8/.3.
  ExpectNearVectors(TupleTopKProbabilities(PaperFig4(), 1),
                    {0.4, 0.3, 0.3, 0.0}, 1e-12);
  ExpectNearVectors(TupleTopKProbabilities(PaperFig4(), 2),
                    {0.4, 0.5, 0.8, 0.3}, 1e-12);
}

TEST(TupleTopKProbabilitiesTest, CappedByPresenceProbability) {
  Rng rng(3);
  TupleRelation rel = RandomSmallTuple(rng, 8);
  for (int k : {1, 3, 8}) {
    const auto probs = TupleTopKProbabilities(rel, k);
    for (int i = 0; i < rel.size(); ++i) {
      EXPECT_LE(probs[static_cast<size_t>(i)],
                rel.tuple(i).prob + 1e-9);
    }
  }
}

TEST(TupleTopKProbabilitiesTest, MatchesEnumeration) {
  Rng rng(4);
  for (int trial = 0; trial < 6; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, 7);
    for (int k : {1, 2, 4}) {
      const auto fast = TupleTopKProbabilities(rel, k);
      std::vector<double> worlds(static_cast<size_t>(rel.size()), 0.0);
      ForEachTupleWorld(rel, [&](const std::vector<bool>& present,
                                 double prob) {
        for (int i = 0; i < rel.size(); ++i) {
          if (present[static_cast<size_t>(i)] &&
              RankInTupleWorld(rel, present, i, TiePolicy::kBreakByIndex) <
                  k) {
            worlds[static_cast<size_t>(i)] += prob;
          }
        }
      });
      ExpectNearVectors(fast, worlds, 1e-9);
    }
  }
}

TEST(AttrTopKProbabilitiesTest, MatchesEnumeration) {
  Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    AttrRelation rel = RandomSmallAttr(rng, 5, 3);
    for (int k : {1, 2, 4}) {
      const auto fast = AttrTopKProbabilities(rel, k);
      std::vector<double> worlds(static_cast<size_t>(rel.size()), 0.0);
      ForEachAttrWorld(rel, [&](const std::vector<double>& scores,
                                double prob) {
        for (int i = 0; i < rel.size(); ++i) {
          if (RankInAttrWorld(scores, i, TiePolicy::kBreakByIndex) < k) {
            worlds[static_cast<size_t>(i)] += prob;
          }
        }
      });
      ExpectNearVectors(fast, worlds, 1e-9);
    }
  }
}

// The raw one-shot forms and the prepared (memoized, chunk-parallel)
// forms must agree bit for bit on every dispatch target. The reassociating
// sum kernel groups lanes by length, so this holds only because both sum
// exactly min(k, row size) entries of the same rows; k values above a
// row's support are what would expose a zero-padded sum.
TEST(TopKProbabilitiesIdentityTest, RawEqualsPreparedOnEveryTarget) {
  const SimdTarget saved = ActiveSimdTarget();
  for (SimdTarget target : {SimdTarget::kScalar, SimdTarget::kNeon,
                            SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!SimdTargetAvailable(target)) continue;
    SetSimdTarget(target);
    SCOPED_TRACE(ToString(target));
    for (uint64_t seed : {71u, 72u, 73u}) {
      TupleGenConfig tuple_config;
      tuple_config.num_tuples = 1500;
      tuple_config.seed = seed;
      const TupleRelation trel = GenerateTupleRelation(tuple_config);
      AttrGenConfig attr_config;
      attr_config.num_tuples = 60;
      attr_config.pdf_size = 4;
      attr_config.seed = seed;
      const AttrRelation arel = GenerateAttrRelation(attr_config);
      // Fresh prepared state per target: the memo must not carry values
      // computed under another target's kernels.
      const PreparedTupleRelation tprep(trel);
      const PreparedAttrRelation aprep(arel);
      for (TiePolicy ties :
           {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
        for (int k : {1, 5, 50, 400}) {
          const std::vector<double> traw =
              TupleTopKProbabilities(trel, k, ties);
          const std::vector<double> tprepared =
              TupleTopKProbabilities(tprep, k, ties);
          ASSERT_EQ(traw.size(), tprepared.size());
          EXPECT_EQ(std::memcmp(traw.data(), tprepared.data(),
                                traw.size() * sizeof(double)),
                    0)
              << "tuple seed " << seed << " k " << k;
          const std::vector<double> araw = AttrTopKProbabilities(arel, k, ties);
          const std::vector<double> aprepared =
              AttrTopKProbabilities(aprep, k, ties);
          ASSERT_EQ(araw.size(), aprepared.size());
          EXPECT_EQ(std::memcmp(araw.data(), aprepared.data(),
                                araw.size() * sizeof(double)),
                    0)
              << "attr seed " << seed << " k " << k;
        }
      }
    }
  }
  SetSimdTarget(saved);
}

TEST(TopKProbabilitiesDeathTest, RejectsNonPositiveK) {
  EXPECT_DEATH(AttrTopKProbabilities(PaperFig2(), 0), "k must be >= 1");
  EXPECT_DEATH(TupleTopKProbabilities(PaperFig4(), 0), "k must be >= 1");
}

}  // namespace
}  // namespace urank
