#include "serve/result_cache.h"

#include <functional>
#include <utility>

#include "util/metrics.h"

namespace urank {
namespace serve {

namespace {

// Serve-layer cache metrics (docs/OBSERVABILITY.md, docs/SERVING.md).
struct CacheMetrics {
  metrics::Counter& hits =
      metrics::Registry::Global().counter("urank_serve_cache_hits_total");
  metrics::Counter& misses =
      metrics::Registry::Global().counter("urank_serve_cache_misses_total");
  metrics::Counter& evictions =
      metrics::Registry::Global().counter("urank_serve_cache_evictions_total");
  metrics::Gauge& bytes =
      metrics::Registry::Global().gauge("urank_serve_cache_bytes");
  metrics::Gauge& entries =
      metrics::Registry::Global().gauge("urank_serve_cache_entries_count");
};

CacheMetrics& Metrics() {
  static CacheMetrics m;
  return m;
}

void HashCombine(std::size_t value, std::size_t* seed) {
  // Boost-style mix; good enough for a cache index.
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

}  // namespace

bool ResultCacheKey::operator==(const ResultCacheKey& other) const {
  return epoch == other.epoch && semantics == other.semantics &&
         k == other.k && phi == other.phi && threshold == other.threshold &&
         ties == other.ties && relation == other.relation;
}

std::size_t ResultCacheKey::Hash::operator()(const ResultCacheKey& key) const {
  std::size_t seed = std::hash<std::string>{}(key.relation);
  HashCombine(std::hash<std::uint64_t>{}(key.epoch), &seed);
  HashCombine(static_cast<std::size_t>(key.semantics), &seed);
  HashCombine(static_cast<std::size_t>(key.k), &seed);
  HashCombine(std::hash<double>{}(key.phi), &seed);
  HashCombine(std::hash<double>{}(key.threshold), &seed);
  HashCombine(static_cast<std::size_t>(key.ties), &seed);
  return seed;
}

ResultCacheKey MakeResultCacheKey(const std::string& relation,
                                  std::uint64_t epoch,
                                  const RankingQueryOptions& options) {
  ResultCacheKey key;
  key.relation = relation;
  key.epoch = epoch;
  key.semantics = options.semantics;
  key.k = options.k;
  key.ties = options.ties;
  // Zero the parameters this semantics does not consume, so requests that
  // differ only in an inapplicable default share one entry.
  if (options.semantics == RankingSemantics::kQuantileRank) {
    key.phi = options.phi;
  }
  if (options.semantics == RankingSemantics::kPTk) {
    key.threshold = options.threshold;
  }
  return key;
}

ResultCache::ResultCache(std::uint64_t byte_budget)
    : byte_budget_(byte_budget) {}

std::shared_ptr<const RankingAnswer> ResultCache::Get(
    const ResultCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    Metrics().misses.Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  Metrics().hits.Increment();
  return it->second->answer;
}

void ResultCache::Put(const ResultCacheKey& key,
                      std::shared_ptr<const RankingAnswer> answer) {
  if (answer == nullptr) return;
  const std::uint64_t bytes = ApproximateBytes(key, *answer);
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes > byte_budget_) return;  // oversized: never cacheable
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh in place (same key may be re-Put by racing misses).
    stats_.bytes -= it->second->bytes;
    it->second->answer = std::move(answer);
    it->second->bytes = bytes;
    stats_.bytes += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(answer), bytes});
    index_.emplace(key, lru_.begin());
    stats_.bytes += bytes;
    ++stats_.insertions;
  }
  EvictToBudgetLocked();
  PublishGaugesLocked();
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_.bytes = 0;
  PublishGaugesLocked();
}

void ResultCache::EraseOlderEpochs(const std::string& relation,
                                   std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.epoch < epoch && it->key.relation == relation) {
      stats_.bytes -= it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  PublishGaugesLocked();
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResultCacheStats snapshot = stats_;
  snapshot.entries = lru_.size();
  return snapshot;
}

std::uint64_t ResultCache::ApproximateBytes(const ResultCacheKey& key,
                                            const RankingAnswer& answer) {
  // Key footprint + vector payloads + fixed bookkeeping overhead per entry
  // (list node, index slot, control block). Exactness does not matter; the
  // budget only has to scale with the real footprint.
  constexpr std::uint64_t kEntryOverhead = 160;
  return kEntryOverhead + key.relation.size() +
         answer.ids.size() * sizeof(int) +
         answer.statistics.size() * sizeof(double);
}

void ResultCache::PublishGaugesLocked() {
  stats_.entries = lru_.size();
  Metrics().bytes.Set(static_cast<double>(stats_.bytes));
  Metrics().entries.Set(static_cast<double>(stats_.entries));
}

void ResultCache::EvictToBudgetLocked() {
  while (stats_.bytes > byte_budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    Metrics().evictions.Increment();
  }
}

}  // namespace serve
}  // namespace urank
