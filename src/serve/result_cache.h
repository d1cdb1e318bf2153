// Epoch-keyed LRU result cache for the serving layer.
//
// The traffic shape this targets (Chang–Yu–Qin, PAPERS.md; ROADMAP open
// item 1) is the same relation interrogated under many (semantics, k,
// phi/threshold, ties) combinations by many clients: after the first
// computation, reuse — not recomputation — dominates. The cache stores
// complete RankingAnswers keyed on the full parameter tuple PLUS the
// relation's epoch, and sits *above* the prepared-relation statistic memo
// (prepared_relation.h): a hit returns the answer without touching the
// engine at all, so repeated traffic costs a hash lookup and a response
// serialization.
//
// Epoch keying is what makes reloads safe: every admin/load of a relation
// name bumps its epoch, so entries for the previous snapshot can never be
// returned for the new one. Lookups key on the current epoch, so the
// server purges a relation's older-epoch entries (EraseOlderEpochs) as soon
// as its epoch advances, by a mutate's publish or a reload; left in place
// they could never hit again and would only pin heap. A Put racing a
// publish may still insert one older-epoch entry after the purge; LRU
// eviction ages it out like everything else.
//
// Eviction is least-recently-used under a byte budget: every entry is
// charged its key + answer footprint (ApproximateBytes), and inserts
// evict from the cold end until the budget holds. An answer larger than
// the whole budget is simply not cached.
//
// Thread-safety: all methods are safe to call concurrently (one mutex; a
// hit is a lookup plus a list splice, never a copy of the shared answer).

#ifndef URANK_SERVE_RESULT_CACHE_H_
#define URANK_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/engine/query_engine.h"

namespace urank {
namespace serve {

// Identity of one cacheable answer. `phi` is only meaningful for
// quantile-rank and `threshold` only for PT-k; the canonicalization that
// zeroes inapplicable fields (so unrelated queries share entries) lives in
// MakeResultCacheKey.
struct ResultCacheKey {
  std::string relation;
  std::uint64_t epoch = 0;
  RankingSemantics semantics = RankingSemantics::kExpectedRank;
  int k = 0;
  double phi = 0.0;
  double threshold = 0.0;
  TiePolicy ties = TiePolicy::kBreakByIndex;

  bool operator==(const ResultCacheKey& other) const;

  struct Hash {
    std::size_t operator()(const ResultCacheKey& key) const;
  };
};

// Canonical key for `options` against (relation, epoch): parameters the
// semantics does not consume are zeroed so e.g. two expected-rank queries
// with different phi defaults land on one entry.
ResultCacheKey MakeResultCacheKey(const std::string& relation,
                                  std::uint64_t epoch,
                                  const RankingQueryOptions& options);

struct ResultCacheStats {
  long long hits = 0;
  long long misses = 0;
  long long insertions = 0;
  long long evictions = 0;
  std::uint64_t bytes = 0;
  std::size_t entries = 0;
};

class ResultCache {
 public:
  // A cache holding at most `byte_budget` bytes of entries (0 disables
  // caching entirely: every Get misses, every Put is dropped).
  explicit ResultCache(std::uint64_t byte_budget);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // The cached answer for `key` (marking it most-recently-used), or
  // nullptr on a miss. The answer is shared and immutable — callers must
  // not modify it.
  std::shared_ptr<const RankingAnswer> Get(const ResultCacheKey& key);

  // Inserts (or refreshes) `answer` under `key`, evicting cold entries
  // until the byte budget holds. Oversized answers are dropped.
  void Put(const ResultCacheKey& key,
           std::shared_ptr<const RankingAnswer> answer);

  // Drops every entry (stats counters keep accumulating).
  void Clear();

  // Drops the entries of `relation` keyed under an epoch older than
  // `epoch`; other relations' entries and newer epochs stay.
  void EraseOlderEpochs(const std::string& relation, std::uint64_t epoch);

  ResultCacheStats stats() const;
  std::uint64_t byte_budget() const { return byte_budget_; }

  // The byte footprint an entry for (key, answer) is charged with.
  static std::uint64_t ApproximateBytes(const ResultCacheKey& key,
                                        const RankingAnswer& answer);

 private:
  struct Entry {
    ResultCacheKey key;
    std::shared_ptr<const RankingAnswer> answer;
    std::uint64_t bytes = 0;
  };

  void EvictToBudgetLocked();
  void PublishGaugesLocked();

  const std::uint64_t byte_budget_;
  mutable std::mutex mu_;
  // Hot entries at the front; eviction pops from the back.
  std::list<Entry> lru_;
  std::unordered_map<ResultCacheKey, std::list<Entry>::iterator,
                     ResultCacheKey::Hash>
      index_;
  ResultCacheStats stats_;
};

}  // namespace serve
}  // namespace urank

#endif  // URANK_SERVE_RESULT_CACHE_H_
