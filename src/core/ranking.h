// Common result types for ranking queries.

#ifndef URANK_CORE_RANKING_H_
#define URANK_CORE_RANKING_H_

#include <algorithm>
#include <vector>

namespace urank {

// One entry of a ranked answer: a tuple id together with the statistic the
// ranking was derived from (expected rank, median rank, top-k probability,
// ...). Lower `statistic` means better (earlier) rank for rank-based
// definitions; probability-based definitions negate so the convention holds
// throughout the library.
struct RankedTuple {
  int id = 0;
  double statistic = 0.0;

  friend bool operator==(const RankedTuple&, const RankedTuple&) = default;
};

// Orders (statistic ascending, id ascending) — the library-wide
// deterministic tie-break — and returns the first min(k, n) entries.
// `ids[i]` and `statistics[i]` describe one tuple; the two vectors must have
// equal length. Pass k < 0 for the full ranking.
//
// Ids are distinct, so the comparator is a strict total order and its
// first k entries are unique: a partial sort (O(n log k)) returns exactly
// the prefix a full sort would. Only k < 0 or k >= n pays the full sort.
inline std::vector<RankedTuple> TopKByStatistic(
    const std::vector<int>& ids, const std::vector<double>& statistics,
    int k) {
  std::vector<RankedTuple> all;
  all.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    all.push_back({ids[i], statistics[i]});
  }
  const auto before = [](const RankedTuple& a, const RankedTuple& b) {
    if (a.statistic != b.statistic) return a.statistic < b.statistic;
    return a.id < b.id;
  };
  if (k >= 0 && static_cast<size_t>(k) < all.size()) {
    const auto middle = all.begin() + k;
    std::partial_sort(all.begin(), middle, all.end(), before);
    all.erase(middle, all.end());
  } else {
    std::sort(all.begin(), all.end(), before);
  }
  return all;
}

// Result of every early-terminating (pruned) top-k kernel: the quantile
// and median prunes, PT-k, Global-Topk and U-kRanks. `topk` is identical,
// ids and statistic bits, to the unpruned answer's selection; for the
// probability semantics the statistic is the negated probability, and a
// U-kRanks rank no tuple can occupy carries id -1.
struct PrunedTopKResult {
  std::vector<RankedTuple> topk;
  long long tuples_scanned = 0;  // tuples whose statistic was computed
  // Stream position (into escore_order / rank_order) where the scan
  // stopped; N when the bound never fired and the scan ran out.
  long long prune_stop_position = 0;
};

// Extracts just the ids of a ranked answer, in rank order.
inline std::vector<int> IdsOf(const std::vector<RankedTuple>& ranked) {
  std::vector<int> ids;
  ids.reserve(ranked.size());
  for (const RankedTuple& rt : ranked) ids.push_back(rt.id);
  return ids;
}

}  // namespace urank

#endif  // URANK_CORE_RANKING_H_
