// Cache-keying and eviction tests for serve/result_cache.h — the
// satellite-4 contract: identical queries hit, an epoch bump misses,
// parameter canonicalization shares entries only where semantics permit,
// and eviction respects the byte budget in LRU order. (Bypass semantics —
// no lookup, no insert — are a Server decision and are covered in
// server_test.cc.)

#include "serve/result_cache.h"

#include <cstdint>
#include <memory>
#include <string>

#include "gtest/gtest.h"

namespace urank {
namespace serve {
namespace {

std::shared_ptr<const RankingAnswer> MakeAnswer(int n) {
  RankingAnswer answer;
  for (int i = 0; i < n; ++i) {
    answer.ids.push_back(i);
    answer.statistics.push_back(i * 0.5);
  }
  return std::make_shared<const RankingAnswer>(std::move(answer));
}

RankingQueryOptions MakeOptions(RankingSemantics semantics, int k) {
  RankingQueryOptions options;
  options.semantics = semantics;
  options.k = k;
  return options;
}

TEST(ResultCacheKey, IdenticalQueriesShareOneKey) {
  const ResultCacheKey a =
      MakeResultCacheKey("r", 1, MakeOptions(RankingSemantics::kExpectedRank, 10));
  const ResultCacheKey b =
      MakeResultCacheKey("r", 1, MakeOptions(RankingSemantics::kExpectedRank, 10));
  EXPECT_TRUE(a == b);
  EXPECT_EQ(ResultCacheKey::Hash{}(a), ResultCacheKey::Hash{}(b));
}

TEST(ResultCacheKey, EpochRelationAndParametersSeparateKeys) {
  const RankingQueryOptions options =
      MakeOptions(RankingSemantics::kExpectedRank, 10);
  const ResultCacheKey base = MakeResultCacheKey("r", 1, options);
  EXPECT_FALSE(base == MakeResultCacheKey("r", 2, options));
  EXPECT_FALSE(base == MakeResultCacheKey("other", 1, options));
  EXPECT_FALSE(base ==
               MakeResultCacheKey("r", 1,
                                  MakeOptions(RankingSemantics::kExpectedRank, 20)));
  EXPECT_FALSE(base ==
               MakeResultCacheKey("r", 1,
                                  MakeOptions(RankingSemantics::kMedianRank, 10)));
}

TEST(ResultCacheKey, InapplicableParametersAreCanonicalized) {
  // Expected-rank ignores phi and threshold: two requests differing only
  // there must share an entry.
  RankingQueryOptions a = MakeOptions(RankingSemantics::kExpectedRank, 10);
  a.phi = 0.5;
  a.threshold = 0.5;
  RankingQueryOptions b = MakeOptions(RankingSemantics::kExpectedRank, 10);
  b.phi = 0.9;
  b.threshold = 0.1;
  EXPECT_TRUE(MakeResultCacheKey("r", 1, a) == MakeResultCacheKey("r", 1, b));

  // For quantile-rank, phi is load-bearing; for PT-k, the threshold is.
  a = MakeOptions(RankingSemantics::kQuantileRank, 10);
  a.phi = 0.5;
  b = MakeOptions(RankingSemantics::kQuantileRank, 10);
  b.phi = 0.9;
  EXPECT_FALSE(MakeResultCacheKey("r", 1, a) == MakeResultCacheKey("r", 1, b));

  a = MakeOptions(RankingSemantics::kPTk, 10);
  a.threshold = 0.5;
  b = MakeOptions(RankingSemantics::kPTk, 10);
  b.threshold = 0.1;
  EXPECT_FALSE(MakeResultCacheKey("r", 1, a) == MakeResultCacheKey("r", 1, b));
}

TEST(ResultCache, HitAfterPutAndMissAfterEpochBump) {
  ResultCache cache(1 << 20);
  const RankingQueryOptions options =
      MakeOptions(RankingSemantics::kExpectedRank, 10);
  const ResultCacheKey key = MakeResultCacheKey("r", 1, options);

  EXPECT_EQ(cache.Get(key), nullptr);
  auto answer = MakeAnswer(10);
  cache.Put(key, answer);
  EXPECT_EQ(cache.Get(key), answer);

  // The relation is reloaded: epoch 2 keys must not see epoch 1 answers.
  const ResultCacheKey reloaded = MakeResultCacheKey("r", 2, options);
  EXPECT_EQ(cache.Get(reloaded), nullptr);

  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.insertions, 1);
}

TEST(ResultCache, EvictionRespectsByteBudgetInLruOrder) {
  const ResultCacheKey probe = MakeResultCacheKey(
      "r", 1, MakeOptions(RankingSemantics::kExpectedRank, 1));
  const std::uint64_t entry_bytes =
      ResultCache::ApproximateBytes(probe, *MakeAnswer(100));
  // Budget for exactly three entries.
  ResultCache cache(entry_bytes * 3);

  auto key_for_k = [](int k) {
    return MakeResultCacheKey(
        "r", 1, MakeOptions(RankingSemantics::kExpectedRank, k));
  };
  for (int k = 1; k <= 3; ++k) cache.Put(key_for_k(k), MakeAnswer(100));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_LE(cache.stats().bytes, cache.byte_budget());

  // Touch k=1 so k=2 is the coldest, then insert a fourth entry.
  EXPECT_NE(cache.Get(key_for_k(1)), nullptr);
  cache.Put(key_for_k(4), MakeAnswer(100));

  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_LE(cache.stats().bytes, cache.byte_budget());
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Get(key_for_k(2)), nullptr);   // evicted (coldest)
  EXPECT_NE(cache.Get(key_for_k(1)), nullptr);   // survived (touched)
  EXPECT_NE(cache.Get(key_for_k(3)), nullptr);
  EXPECT_NE(cache.Get(key_for_k(4)), nullptr);
}

TEST(ResultCache, OversizedAnswersAreNotCached) {
  ResultCache cache(64);  // smaller than any real entry's overhead
  const ResultCacheKey key = MakeResultCacheKey(
      "r", 1, MakeOptions(RankingSemantics::kExpectedRank, 10));
  cache.Put(key, MakeAnswer(1000));
  EXPECT_EQ(cache.Get(key), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ResultCache, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  const ResultCacheKey key = MakeResultCacheKey(
      "r", 1, MakeOptions(RankingSemantics::kExpectedRank, 10));
  cache.Put(key, MakeAnswer(1));
  EXPECT_EQ(cache.Get(key), nullptr);
}

TEST(ResultCache, RefreshingAKeyReplacesItsAnswerAndAccounting) {
  ResultCache cache(1 << 20);
  const ResultCacheKey key = MakeResultCacheKey(
      "r", 1, MakeOptions(RankingSemantics::kExpectedRank, 10));
  cache.Put(key, MakeAnswer(10));
  const std::uint64_t bytes_small = cache.stats().bytes;
  auto big = MakeAnswer(500);
  cache.Put(key, big);
  EXPECT_EQ(cache.Get(key), big);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().bytes, bytes_small);
  EXPECT_EQ(cache.stats().insertions, 1);  // refresh, not a new entry
}

TEST(ResultCache, ClearDropsEntriesButKeepsCounters) {
  ResultCache cache(1 << 20);
  const ResultCacheKey key = MakeResultCacheKey(
      "r", 1, MakeOptions(RankingSemantics::kExpectedRank, 10));
  cache.Put(key, MakeAnswer(10));
  EXPECT_NE(cache.Get(key), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Get(key), nullptr);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(ResultCache, EraseOlderEpochsDropsOnlyThatRelationsStaleEntries) {
  ResultCache cache(1 << 20);
  const RankingQueryOptions options =
      MakeOptions(RankingSemantics::kExpectedRank, 10);
  for (std::uint64_t epoch : {1u, 2u, 3u}) {
    cache.Put(MakeResultCacheKey("r", epoch, options), MakeAnswer(10));
    cache.Put(MakeResultCacheKey("other", epoch, options), MakeAnswer(10));
  }

  cache.EraseOlderEpochs("r", 3);
  EXPECT_EQ(cache.Get(MakeResultCacheKey("r", 1, options)), nullptr);
  EXPECT_EQ(cache.Get(MakeResultCacheKey("r", 2, options)), nullptr);
  EXPECT_NE(cache.Get(MakeResultCacheKey("r", 3, options)), nullptr);
  for (std::uint64_t epoch : {1u, 2u, 3u}) {
    EXPECT_NE(cache.Get(MakeResultCacheKey("other", epoch, options)),
              nullptr)
        << epoch;
  }
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  const auto answer = MakeAnswer(10);
  EXPECT_EQ(stats.bytes,
            ResultCache::ApproximateBytes(
                MakeResultCacheKey("r", 3, options), *answer) +
                3 * ResultCache::ApproximateBytes(
                        MakeResultCacheKey("other", 3, options), *answer));
  EXPECT_EQ(stats.evictions, 0);  // a purge is not a budget eviction

  // Idempotent, and a relation with no entries is a no-op.
  cache.EraseOlderEpochs("r", 3);
  cache.EraseOlderEpochs("missing", 100);
  EXPECT_EQ(cache.stats().entries, 4u);
}

}  // namespace
}  // namespace serve
}  // namespace urank
