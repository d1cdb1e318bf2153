// Answer assembly of the query vocabulary (core/query.h) as the engine
// fills it: which statistic each semantics reports, in which sign, and
// how placeholders and sparse ids come through.

#include "core/query.h"

#include <string>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "core/quantile_rank.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "core/semantics/u_kranks.h"
#include "core/semantics/u_topk.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::PaperFig4;

RankingQueryOptions Options(RankingSemantics semantics, int k) {
  RankingQueryOptions options;
  options.semantics = semantics;
  options.k = k;
  return options;
}

// One query on a fresh engine over `rel`; fails the test on a bad status.
template <typename Relation>
RankingAnswer Answer(const Relation& rel, const RankingQueryOptions& options) {
  QueryRequest request;
  request.options = options;
  const QueryResult result = QueryEngine(rel).Run(request);
  EXPECT_TRUE(result.status.ok()) << result.status.message;
  return result.answer;
}

TEST(EngineAnswerTest, ExpectedRankMatchesDirectCall) {
  const TupleRelation rel = PaperFig4();
  const RankingAnswer answer =
      Answer(rel, Options(RankingSemantics::kExpectedRank, 4));
  const auto direct =
      TupleExpectedRankTopK(rel, 4, TiePolicy::kBreakByIndex);
  ASSERT_EQ(answer.ids.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(answer.ids[i], direct[i].id);
    EXPECT_DOUBLE_EQ(answer.statistics[i], direct[i].statistic);
  }
}

TEST(EngineAnswerTest, MedianAndQuantile) {
  const TupleRelation rel = PaperFig4();
  const RankingAnswer median =
      Answer(rel, Options(RankingSemantics::kMedianRank, 4));
  EXPECT_EQ(median.ids, (std::vector<int>{2, 3, 1, 4}));
  RankingQueryOptions options = Options(RankingSemantics::kQuantileRank, 4);
  options.phi = 0.5;
  EXPECT_EQ(Answer(rel, options).ids, median.ids);
}

TEST(EngineAnswerTest, UTopkCarriesAnswerProbability) {
  const AttrRelation rel = PaperFig2();
  const RankingAnswer answer =
      Answer(rel, Options(RankingSemantics::kUTopk, 2));
  EXPECT_EQ(answer.ids, (std::vector<int>{2, 3}));
  ASSERT_EQ(answer.statistics.size(), 2u);
  EXPECT_NEAR(answer.statistics[0], 0.36, 1e-12);
}

TEST(EngineAnswerTest, UKRanksKeepsPlaceholders) {
  const TupleRelation rel = PaperFig4();
  const RankingAnswer answer =
      Answer(rel, Options(RankingSemantics::kUKRanks, 4));
  ASSERT_EQ(answer.ids.size(), 4u);
  EXPECT_EQ(answer.ids[3], -1);
  EXPECT_TRUE(answer.statistics.empty());
}

TEST(EngineAnswerTest, PTkStatisticsAreTopKProbabilities) {
  const AttrRelation rel = PaperFig2();
  RankingQueryOptions options = Options(RankingSemantics::kPTk, 2);
  options.threshold = 0.4;
  const RankingAnswer answer = Answer(rel, options);
  ASSERT_EQ(answer.ids.size(), 3u);  // t2, t3, t1 by top-2 probability
  EXPECT_EQ(answer.ids[0], 2);
  EXPECT_NEAR(answer.statistics[0], 0.84, 1e-12);
  EXPECT_NEAR(answer.statistics[2], 0.4, 1e-12);
  // Every reported probability clears the threshold.
  for (double p : answer.statistics) EXPECT_GE(p, 0.4);
}

TEST(EngineAnswerTest, GlobalTopkMatchesDirectCall) {
  const TupleRelation rel = PaperFig4();
  const RankingAnswer answer =
      Answer(rel, Options(RankingSemantics::kGlobalTopk, 2));
  EXPECT_EQ(answer.ids, TupleGlobalTopK(rel, 2));
  ASSERT_EQ(answer.statistics.size(), 2u);
  EXPECT_NEAR(answer.statistics[0], 0.8, 1e-12);  // t3's top-2 probability
  EXPECT_NEAR(answer.statistics[1], 0.5, 1e-12);  // t2's
}

TEST(EngineAnswerTest, ExpectedScoreNegatedStatistic) {
  const AttrRelation rel = PaperFig2();
  const RankingAnswer answer =
      Answer(rel, Options(RankingSemantics::kExpectedScore, 1));
  EXPECT_EQ(answer.ids, (std::vector<int>{2}));
  EXPECT_NEAR(answer.statistics[0], -87.2, 1e-12);
}

TEST(EngineAnswerTest, AllSemanticsRunOnBothModels) {
  const AttrRelation arel = PaperFig2();
  const TupleRelation trel = PaperFig4();
  for (RankingSemantics semantics :
       {RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
        RankingSemantics::kQuantileRank, RankingSemantics::kUTopk,
        RankingSemantics::kUKRanks, RankingSemantics::kPTk,
        RankingSemantics::kGlobalTopk, RankingSemantics::kExpectedScore}) {
    const RankingAnswer a = Answer(arel, Options(semantics, 2));
    const RankingAnswer t = Answer(trel, Options(semantics, 2));
    EXPECT_FALSE(a.ids.empty()) << ToString(semantics);
    EXPECT_FALSE(t.ids.empty()) << ToString(semantics);
  }
}

TEST(EngineAnswerTest, SparseIdsAreHandled) {
  // Non-dense, large ids exercise the id->position lookup.
  TupleRelation rel = TupleRelation::Independent(
      {{1000, 30.0, 0.9}, {5, 20.0, 0.8}, {70, 10.0, 0.7}});
  const RankingAnswer answer =
      Answer(rel, Options(RankingSemantics::kGlobalTopk, 2));
  ASSERT_EQ(answer.ids.size(), 2u);
  EXPECT_EQ(answer.ids[0], 1000);
  EXPECT_GT(answer.statistics[0], 0.0);
}

TEST(ToStringTest, AllNames) {
  EXPECT_STREQ(ToString(RankingSemantics::kExpectedRank), "expected-rank");
  EXPECT_STREQ(ToString(RankingSemantics::kMedianRank), "median-rank");
  EXPECT_STREQ(ToString(RankingSemantics::kQuantileRank), "quantile-rank");
  EXPECT_STREQ(ToString(RankingSemantics::kUTopk), "u-topk");
  EXPECT_STREQ(ToString(RankingSemantics::kUKRanks), "u-kranks");
  EXPECT_STREQ(ToString(RankingSemantics::kPTk), "pt-k");
  EXPECT_STREQ(ToString(RankingSemantics::kGlobalTopk), "global-topk");
  EXPECT_STREQ(ToString(RankingSemantics::kExpectedScore), "expected-score");
}

TEST(EngineAnswerTest, ReportsArgumentChecks) {
  const QueryEngine engine(PaperFig2());
  QueryRequest request;
  request.options = Options(RankingSemantics::kExpectedRank, 0);
  QueryResult result = engine.Run(request);
  EXPECT_EQ(result.status.code, QueryStatusCode::kInvalidK);
  EXPECT_NE(result.status.message.find("k must be >= 1"), std::string::npos);
  request.options = Options(RankingSemantics::kQuantileRank, 2);
  request.options.phi = 0.0;
  result = engine.Run(request);
  EXPECT_EQ(result.status.code, QueryStatusCode::kInvalidPhi);
  EXPECT_NE(result.status.message.find("phi"), std::string::npos);
}

}  // namespace
}  // namespace urank
