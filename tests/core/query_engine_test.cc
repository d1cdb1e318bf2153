// QueryEngine tests: a shared engine against a fresh engine per query (the
// one-shot path) for every semantics on both uncertainty models, the
// recoverable validation taxonomy, RunBatch determinism across thread
// counts, and cache-reuse statistics.

#include "core/engine/query_engine.h"

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/query.h"
#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "model/possible_worlds.h"

namespace urank {
namespace {

// Same generator settings as consistency_fuzz_test.cc: overlapping values
// and multi-tuple rules stress every DP path.
AttrRelation MakeAttr(int n, uint64_t seed) {
  AttrGenConfig config;
  config.num_tuples = n;
  config.pdf_size = 4;
  config.value_spread = 100.0;
  config.seed = seed;
  return GenerateAttrRelation(config);
}

TupleRelation MakeTuple(int n, uint64_t seed) {
  TupleGenConfig config;
  config.num_tuples = n;
  config.multi_rule_fraction = 0.5;
  config.max_rule_size = 4;
  config.prob_lo = 0.05;
  config.seed = seed;
  return GenerateTupleRelation(config);
}

QueryRequest Req(const RankingQuery& q) {
  QueryRequest request;
  request.options = q;
  return request;
}

// One query per semantics; k/phi/threshold chosen to produce non-trivial
// answers on relations of a few dozen tuples.
std::vector<QueryRequest> AllSemanticsQueries(TiePolicy ties) {
  std::vector<QueryRequest> queries;
  for (RankingSemantics semantics :
       {RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
        RankingSemantics::kQuantileRank, RankingSemantics::kUTopk,
        RankingSemantics::kUKRanks, RankingSemantics::kPTk,
        RankingSemantics::kGlobalTopk, RankingSemantics::kExpectedScore}) {
    RankingQuery q;
    q.semantics = semantics;
    q.k = 5;
    q.phi = 0.3;
    q.threshold = 0.1;
    q.ties = ties;
    queries.push_back(Req(q));
  }
  return queries;
}

void ExpectSameAnswer(const RankingAnswer& got, const RankingAnswer& want,
                      const char* label) {
  ASSERT_EQ(got.ids, want.ids) << label;
  ASSERT_EQ(got.statistics.size(), want.statistics.size()) << label;
  for (size_t i = 0; i < want.statistics.size(); ++i) {
    // The prepared paths run the same arithmetic in the same order as the
    // one-shot entry points, so equality is exact, not approximate.
    EXPECT_EQ(got.statistics[i], want.statistics[i])
        << label << " statistic " << i;
  }
}

// The "facade" these tests name is the one-shot path: a fresh engine per
// query, which re-prepares and recomputes every statistic. The shared
// engine must answer every query identically while reusing its memos.
template <typename Relation>
RankingAnswer FreshAnswer(const Relation& rel, const QueryRequest& request) {
  return QueryEngine(rel).Run(request).answer;
}

class QueryEngineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryEngineEquivalence, AttrMatchesFacadeForEverySemantics) {
  // Eight tuples with pdf size four: 4^8 = 65536 worlds, small enough for
  // the U-Topk enumeration to be part of the sweep.
  const AttrRelation rel = MakeAttr(8, GetParam());
  const QueryEngine engine(rel);
  for (TiePolicy ties :
       {TiePolicy::kBreakByIndex, TiePolicy::kStrictGreater}) {
    for (const QueryRequest& request : AllSemanticsQueries(ties)) {
      const char* label = ToString(request.options.semantics);
      const QueryResult result = engine.Run(request);
      ASSERT_TRUE(result.status.ok()) << label;
      ExpectSameAnswer(result.answer, FreshAnswer(rel, request), label);
    }
  }
}

TEST_P(QueryEngineEquivalence, TupleMatchesFacadeForEverySemantics) {
  const TupleRelation rel = MakeTuple(60, GetParam());
  const QueryEngine engine(rel);
  for (TiePolicy ties :
       {TiePolicy::kBreakByIndex, TiePolicy::kStrictGreater}) {
    for (const QueryRequest& request : AllSemanticsQueries(ties)) {
      const char* label = ToString(request.options.semantics);
      const QueryResult result = engine.Run(request);
      ASSERT_TRUE(result.status.ok()) << label;
      ExpectSameAnswer(result.answer, FreshAnswer(rel, request), label);
    }
  }
}

TEST_P(QueryEngineEquivalence, RunBatchIsDeterministicAcrossThreadCounts) {
  const TupleRelation rel = MakeTuple(120, GetParam());
  const QueryEngine engine(rel);
  // Two tie policies' worth of queries, twice over: repeated queries make
  // the memoized statistics contended across workers.
  std::vector<QueryRequest> batch =
      AllSemanticsQueries(TiePolicy::kBreakByIndex);
  const auto more = AllSemanticsQueries(TiePolicy::kStrictGreater);
  batch.insert(batch.end(), more.begin(), more.end());
  batch.insert(batch.end(), batch.begin(), batch.end());

  std::vector<QueryResult> baseline;
  baseline.reserve(batch.size());
  for (const QueryRequest& request : batch) {
    baseline.push_back(engine.Run(request));
  }

  for (int threads : {1, 2, 5, 8}) {
    const std::vector<QueryResult> results = engine.RunBatch(batch, threads);
    ASSERT_EQ(results.size(), batch.size()) << "threads=" << threads;
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(results[i].status.ok());
      ExpectSameAnswer(results[i].answer, baseline[i].answer,
                       ToString(batch[i].options.semantics));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryEngineEquivalence,
                         ::testing::Values(uint64_t{101}, uint64_t{202},
                                           uint64_t{303}));

TEST(QueryEngineValidation, RejectsBadParametersRecoverably) {
  const QueryEngine engine(MakeTuple(20, 7));

  RankingQuery q;
  q.semantics = RankingSemantics::kExpectedRank;
  q.k = 0;
  QueryResult result = engine.Run(Req(q));
  EXPECT_EQ(result.status.code, QueryStatusCode::kInvalidK);
  EXPECT_NE(result.status.message.find("k must be >= 1"), std::string::npos);
  EXPECT_TRUE(result.answer.ids.empty());

  q = {};
  q.semantics = RankingSemantics::kQuantileRank;
  q.phi = 1.5;
  result = engine.Run(Req(q));
  EXPECT_EQ(result.status.code, QueryStatusCode::kInvalidPhi);
  EXPECT_NE(result.status.message.find("phi"), std::string::npos);

  // phi is only a quantile parameter: out-of-range values are ignored
  // elsewhere.
  q.semantics = RankingSemantics::kExpectedRank;
  EXPECT_TRUE(engine.Run(Req(q)).status.ok());

  q = {};
  q.semantics = RankingSemantics::kPTk;
  q.threshold = 0.0;
  result = engine.Run(Req(q));
  EXPECT_EQ(result.status.code, QueryStatusCode::kInvalidThreshold);
  EXPECT_NE(result.status.message.find("threshold"), std::string::npos);

  q = {};
  EXPECT_EQ(engine.Validate(q).code, QueryStatusCode::kOk);
  EXPECT_TRUE(engine.Validate(q).message.empty());
}

TEST(QueryEngineValidation, RejectsNonEnumerableUTopkWorldCount) {
  // 4^40 worlds saturates NumWorlds far past the enumeration limit.
  const AttrRelation rel = MakeAttr(40, 11);
  ASSERT_GT(rel.NumWorlds(), kMaxEnumerableWorlds);
  const QueryEngine engine(rel);

  RankingQuery q;
  q.semantics = RankingSemantics::kUTopk;
  q.k = 3;
  const QueryResult result = engine.Run(Req(q));
  EXPECT_EQ(result.status.code, QueryStatusCode::kWorldCountNotEnumerable);
  EXPECT_FALSE(result.status.ok());

  // Every other semantics still runs on the same engine.
  q.semantics = RankingSemantics::kExpectedRank;
  EXPECT_TRUE(engine.Run(Req(q)).status.ok());
}

TEST(QueryEngineStats, ReportsCacheReuseOnRepeatedStatistics) {
  const QueryEngine engine(MakeTuple(50, 13));

  RankingQuery q;
  q.semantics = RankingSemantics::kExpectedRank;
  q.k = 5;
  const QueryResult cold = engine.Run(Req(q));
  EXPECT_FALSE(cold.stats.reused_cache);
  EXPECT_GT(cold.stats.dp_cells, 0);
  EXPECT_EQ(cold.stats.tuples_pruned, 0);

  // A different k ranks by the same memoized expected-rank vector.
  q.k = 20;
  const QueryResult warm = engine.Run(Req(q));
  EXPECT_TRUE(warm.stats.reused_cache);
  EXPECT_EQ(warm.stats.dp_cells, 0);
  EXPECT_EQ(warm.stats.tuples_pruned, 50);

  // The median is the phi = 0.5 quantile: the two semantics share a cache
  // entry.
  q = {};
  q.semantics = RankingSemantics::kMedianRank;
  EXPECT_FALSE(engine.Run(Req(q)).stats.reused_cache);
  q.semantics = RankingSemantics::kQuantileRank;
  q.phi = 0.5;
  EXPECT_TRUE(engine.Run(Req(q)).stats.reused_cache);
  q.phi = 0.25;
  EXPECT_FALSE(engine.Run(Req(q)).stats.reused_cache);
}

TEST(QueryEngineStats, TinyRelationReportsOneThreadEvenWhenParallelismAsked) {
  // min_parallel_items suppresses the pool for tiny inputs, and
  // threads_used reports threads that actually participated — not the
  // requested ParallelismOptions — so a tiny N must report exactly 1.
  const QueryEngine engine(MakeTuple(40, 23));
  QueryRequest request;
  request.options.semantics = RankingSemantics::kQuantileRank;
  request.options.k = 5;
  request.options.phi = 0.5;
  request.parallelism.threads = 8;
  const QueryResult cold = engine.Run(request);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.stats.reused_cache);
  EXPECT_EQ(cold.stats.threads_used, 1);
}

TEST(QueryEngineStats, BatchComputesContendedStatisticExactlyOnce) {
  const auto prepared = QueryEngine::Prepare(MakeTuple(80, 17));
  const QueryEngine engine(prepared);

  RankingQuery q;
  q.semantics = RankingSemantics::kExpectedRank;
  q.k = 10;
  const std::vector<QueryRequest> batch(8, Req(q));
  const std::vector<QueryResult> results = engine.RunBatch(batch, 8);
  ASSERT_EQ(results.size(), batch.size());
  for (const QueryResult& r : results) EXPECT_TRUE(r.status.ok());
  // Single-flight memoization: eight concurrent queries over one shared
  // statistic trigger exactly one computation.
  EXPECT_EQ(prepared->cache_misses(), 1);
  EXPECT_EQ(prepared->cache_hits(), 7);
}

QueryRequest PrunedMedian(int k) {
  QueryRequest request;
  request.options.semantics = RankingSemantics::kMedianRank;
  request.options.k = k;
  request.prune = true;
  return request;
}

TEST(QueryEngineStats, WorldSizePmfIsBuiltOncePerPreparedRelation) {
  const auto prepared = QueryEngine::Prepare(MakeTuple(300, 41));
  const QueryEngine engine(prepared);
  EXPECT_EQ(prepared->world_size_builds(), 0);

  QueryRequest quantile;
  quantile.options.semantics = RankingSemantics::kQuantileRank;
  quantile.options.k = 10;
  quantile.options.phi = 0.25;
  const std::vector<QueryRequest> batch = {
      PrunedMedian(10), PrunedMedian(100), quantile,
      PrunedMedian(10), PrunedMedian(100), PrunedMedian(10)};
  const std::vector<QueryResult> results = engine.RunBatch(batch, 8);
  for (const QueryResult& r : results) ASSERT_TRUE(r.status.ok());

  // Two pruned keys and one unpruned quantile, run concurrently, share one
  // world-size pmf build.
  EXPECT_EQ(prepared->world_size_builds(), 1);
  // Each distinct key runs once; the repeats wait on (or hit) its result.
  EXPECT_EQ(prepared->cache_misses(), 3);
  int reused_k10 = 0;
  int reused_k100 = 0;
  for (size_t i : {0u, 3u, 5u}) reused_k10 += results[i].stats.reused_cache;
  for (size_t i : {1u, 4u}) reused_k100 += results[i].stats.reused_cache;
  EXPECT_EQ(reused_k10, 2);
  EXPECT_EQ(reused_k100, 1);

  // Same answers as an unpruned run on a fresh prepare.
  const QueryEngine fresh(MakeTuple(300, 41));
  for (size_t i = 0; i < batch.size(); ++i) {
    QueryRequest unpruned = batch[i];
    unpruned.prune = false;
    const QueryResult want = fresh.Run(unpruned);
    EXPECT_EQ(results[i].answer.ids, want.answer.ids) << i;
    EXPECT_EQ(results[i].answer.statistics, want.answer.statistics) << i;
  }

  // Later kernels over the same relation keep reusing the one build.
  quantile.options.phi = 0.75;
  ASSERT_TRUE(engine.Run(quantile).status.ok());
  EXPECT_EQ(prepared->world_size_builds(), 1);
}

TEST(QueryEngineStats, PrunedAnswerHitReusesTheFirstRun) {
  const QueryEngine engine(MakeTuple(300, 43));
  const QueryResult cold = engine.Run(PrunedMedian(10));
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.stats.reused_cache);
  EXPECT_GT(cold.stats.tuples_scanned, 0);
  EXPECT_GT(cold.stats.dp_cells, 0);

  const QueryResult hit = engine.Run(PrunedMedian(10));
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.stats.reused_cache);
  EXPECT_EQ(hit.stats.dp_cells, 0);
  EXPECT_EQ(hit.stats.tuples_scanned, 0);
  EXPECT_EQ(hit.stats.prune_stop_position, -1);
  EXPECT_EQ(hit.stats.tuples_pruned, 300);
  EXPECT_EQ(hit.answer.ids, cold.answer.ids);
  EXPECT_EQ(hit.answer.statistics, cold.answer.statistics);

  // Another k is another key: a fresh pruned run.
  EXPECT_FALSE(engine.Run(PrunedMedian(11)).stats.reused_cache);
}

TEST(QueryEngineStats, PrunedRunReportsUnscannedTuplesAsPruned) {
  const QueryResult tuple = QueryEngine(MakeTuple(300, 47)).Run(
      PrunedMedian(10));
  ASSERT_TRUE(tuple.status.ok());
  EXPECT_FALSE(tuple.stats.reused_cache);
  EXPECT_LT(tuple.stats.tuples_scanned, 300);
  EXPECT_EQ(tuple.stats.tuples_pruned, 300 - tuple.stats.tuples_scanned);

  const QueryResult attr = QueryEngine(MakeAttr(200, 47)).Run(
      PrunedMedian(5));
  ASSERT_TRUE(attr.status.ok());
  EXPECT_FALSE(attr.stats.reused_cache);
  EXPECT_GT(attr.stats.tuples_scanned, 0);
  EXPECT_EQ(attr.stats.tuples_pruned, 200 - attr.stats.tuples_scanned);

  // Without prune nothing is skipped on a cold run.
  QueryRequest plain = PrunedMedian(10);
  plain.prune = false;
  EXPECT_EQ(QueryEngine(MakeTuple(300, 47)).Run(plain).stats.tuples_pruned,
            0);
}

QueryRequest UTopK(int k) {
  QueryRequest request;
  request.options.semantics = RankingSemantics::kUTopk;
  request.options.k = k;
  return request;
}

TEST(QueryEngineStats, ConcurrentUTopKRunsEachKernelOncePerK) {
  const auto prepared = QueryEngine::Prepare(MakeTuple(300, 53));
  const QueryEngine engine(prepared);
  const std::vector<QueryRequest> batch = {UTopK(10),  UTopK(100),
                                           UTopK(10),  UTopK(100),
                                           UTopK(10),  UTopK(100)};
  const std::vector<QueryResult> results = engine.RunBatch(batch, 8);
  for (const QueryResult& r : results) ASSERT_TRUE(r.status.ok());

  // Two distinct k: two kernel runs; the repeats wait on (or hit) them.
  EXPECT_EQ(prepared->cache_misses(), 2);
  EXPECT_EQ(prepared->cache_hits(), 4);
  int reused_k10 = 0;
  int reused_k100 = 0;
  for (size_t i : {0u, 2u, 4u}) reused_k10 += results[i].stats.reused_cache;
  for (size_t i : {1u, 3u, 5u}) reused_k100 += results[i].stats.reused_cache;
  EXPECT_EQ(reused_k10, 2);
  EXPECT_EQ(reused_k100, 2);

  // Every answer equals a cold run on a fresh prepare.
  const QueryEngine fresh(MakeTuple(300, 53));
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryResult want = fresh.Run(batch[i]);
    EXPECT_EQ(results[i].answer.ids, want.answer.ids) << i;
    EXPECT_EQ(results[i].answer.statistics, want.answer.statistics) << i;
  }
}

TEST(QueryEngineStats, UTopKHitReusesTheFirstRun) {
  for (const bool tuple_level : {true, false}) {
    SCOPED_TRACE(tuple_level ? "tuple" : "attr");
    const int n = tuple_level ? 300 : 6;
    const QueryEngine engine = tuple_level ? QueryEngine(MakeTuple(n, 59))
                                           : QueryEngine(MakeAttr(n, 59));
    const int k = tuple_level ? 10 : 3;
    const QueryResult cold = engine.Run(UTopK(k));
    ASSERT_TRUE(cold.status.ok());
    EXPECT_FALSE(cold.stats.reused_cache);
    EXPECT_GT(cold.stats.dp_cells, 0);
    EXPECT_EQ(cold.stats.tuples_pruned, 0);

    const QueryResult hit = engine.Run(UTopK(k));
    ASSERT_TRUE(hit.status.ok());
    EXPECT_TRUE(hit.stats.reused_cache);
    EXPECT_EQ(hit.stats.dp_cells, 0);
    EXPECT_EQ(hit.stats.tuples_pruned, n);
    EXPECT_EQ(hit.answer.ids, cold.answer.ids);
    EXPECT_EQ(hit.answer.statistics, cold.answer.statistics);

    // Another k is another key: a fresh run.
    EXPECT_FALSE(engine.Run(UTopK(k + 1)).stats.reused_cache);
  }
}

TEST(QueryEngineSparseIds, HugeTupleIdsUseNoPositionalArray) {
  // Regression: query answering used to build a position array indexed by the
  // maximum id, so a single id near 10^9 allocated gigabytes. The id index
  // is now a hash map on both models.
  const TupleRelation rel({{1000000000, 30.0, 0.6},
                           {3, 20.0, 0.5},
                           {7, 10.0, 0.4}},
                          {{0}, {1}, {2}});
  const QueryEngine engine(rel);
  EXPECT_EQ(engine.tuple()->PositionOfId(1000000000), 0);
  EXPECT_EQ(engine.tuple()->PositionOfId(3), 1);
  EXPECT_EQ(engine.tuple()->PositionOfId(42), -1);

  RankingQuery q;
  q.semantics = RankingSemantics::kGlobalTopk;
  q.k = 2;
  const QueryResult result = engine.Run(Req(q));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.answer.ids.size(), 2u);
  ASSERT_EQ(result.answer.statistics.size(), 2u);
  for (double p : result.answer.statistics) EXPECT_GT(p, 0.0);
}

TEST(QueryEngineBatch, EmptyBatchAndThreadDefaultsAreSafe) {
  const QueryEngine engine(MakeTuple(10, 19));
  EXPECT_TRUE(engine.RunBatch(std::vector<QueryRequest>{}, 0).empty());
  EXPECT_TRUE(engine.RunBatch(std::vector<QueryRequest>{}, 4).empty());

  const QueryRequest request;
  const auto results =
      engine.RunBatch({request, request, request}, 0);  // hardware default
  ASSERT_EQ(results.size(), 3u);
  for (const QueryResult& r : results) EXPECT_TRUE(r.status.ok());
}

// --- The QueryRequest surface (PR 7 API redesign) ---------------------

TEST(QueryRequestSurface, PerRequestParallelismReplacesEngineSideChannel) {
  // Two requests with different parallelism: results must be
  // bit-identical (determinism contract), and each run uses exactly the
  // parallelism its request carries — the engine holds none of its own.
  const QueryEngine engine(MakeTuple(20000, 37));

  QueryRequest serial;
  serial.options.semantics = RankingSemantics::kExpectedRank;
  serial.options.k = 25;
  serial.parallelism.threads = 1;
  serial.parallelism.min_parallel_items = 1;

  QueryRequest parallel = serial;
  parallel.parallelism.threads = 4;

  const QueryResult serial_result = engine.Run(serial);
  // Fresh engine so the second run recomputes rather than hitting the
  // statistic memo.
  const QueryEngine engine2(MakeTuple(20000, 37));
  const QueryResult parallel_result = engine2.Run(parallel);
  ASSERT_TRUE(serial_result.status.ok());
  ASSERT_TRUE(parallel_result.status.ok());
  EXPECT_EQ(serial_result.answer.ids, parallel_result.answer.ids);
  EXPECT_EQ(serial_result.answer.statistics,
            parallel_result.answer.statistics);
  // threads_used reports how many slots actually grabbed a chunk, which
  // on a small machine can legitimately stay 1 even with a 4-thread
  // budget — so assert the budget bound, not a minimum.
  EXPECT_EQ(serial_result.stats.threads_used, 1);
  EXPECT_LE(parallel_result.stats.threads_used, 4);
}

TEST(QueryRequestSurface, ServeFieldsPassThroughWithoutAffectingExecution) {
  // deadline_ms and cache_mode are serving-layer concerns: the in-process
  // Run must ignore them (never shed, never consult a result cache).
  const QueryEngine engine(MakeTuple(30, 41));
  QueryRequest request;
  request.options.k = 5;
  request.deadline_ms = 1e-9;  // would shed instantly in urankd
  request.cache_mode = CacheMode::kBypass;
  const QueryResult result = engine.Run(request);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.answer.ids.size(), 5u);
}

TEST(QueryRequestSurface, ValidationErrorsSurfaceThroughRequestRun) {
  const QueryEngine engine(MakeTuple(10, 47));
  QueryRequest request;
  request.options.k = 0;
  EXPECT_EQ(engine.Run(request).status.code, QueryStatusCode::kInvalidK);
  request.options.k = 5;
  request.options.semantics = RankingSemantics::kQuantileRank;
  request.options.phi = 1.5;
  EXPECT_EQ(engine.Run(request).status.code, QueryStatusCode::kInvalidPhi);
}

}  // namespace
}  // namespace urank
