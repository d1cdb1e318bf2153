#include "core/semantics/u_kranks.h"

#include <algorithm>
#include <span>

#include "core/engine/prepared_relation.h"
#include "core/internal/kernel_arena.h"
#include "core/internal/tuple_sweep.h"
#include "core/internal/vector_kernels.h"
#include "core/rank_distribution_attr.h"
#include "core/rank_distribution_tuple.h"
#include "util/check.h"
#include "util/kernel_annotations.h"

namespace urank {
namespace {

// Winner per rank from positional probability rows: rows[i][r] =
// Pr[t_i occupies rank r]. Zero-probability ranks report -1.
URANK_KERNEL
std::vector<int> WinnersPerRank(
    const std::vector<std::vector<double>>& rows,
    const std::vector<int>& ids, int k) {
  const vk::KernelOps& ops = vk::Active();
  std::vector<int> winners(static_cast<size_t>(k), -1);
  std::vector<double> best(static_cast<size_t>(k), 0.0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    URANK_DCHECK_MSG(internal::AllFiniteInRange(row, 0.0, 1.0),
                     "positional probability outside [0,1]");
    const size_t hi = std::min(static_cast<size_t>(k), row.size());
    ops.argmax_merge(row.data(), ids[i], best.data(), winners.data(), hi);
  }
  return winners;
}

// Winner ids round-trip the double-valued stat cache exactly (ints are
// exact in double far beyond the id range).
std::vector<double> ToDouble(const std::vector<int>& v) {
  return std::vector<double>(v.begin(), v.end());
}

std::vector<int> ToInt(const std::vector<double>& v) {
  std::vector<int> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = static_cast<int>(v[i]);
  return out;
}

}  // namespace

std::vector<int> AttrUKRanks(const AttrRelation& rel, int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  std::vector<std::vector<double>> rows = AttrRankDistributions(rel, ties);
  std::vector<int> ids(static_cast<size_t>(rel.size()));
  for (int i = 0; i < rel.size(); ++i) ids[static_cast<size_t>(i)] = rel.tuple(i).id;
  return WinnersPerRank(rows, ids, k);
}

std::vector<int> TupleUKRanks(const TupleRelation& rel, int k,
                              TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  std::vector<std::vector<double>> rows =
      TuplePositionalProbabilities(rel, ties);
  std::vector<int> ids(static_cast<size_t>(rel.size()));
  for (int i = 0; i < rel.size(); ++i) ids[static_cast<size_t>(i)] = rel.tuple(i).id;
  return WinnersPerRank(rows, ids, k);
}

std::vector<int> AttrUKRanks(const PreparedAttrRelation& prepared, int k,
                             TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return AttrUKRanks(prepared, k, ties, ParallelismOptions{}, nullptr);
}

std::vector<int> AttrUKRanks(const PreparedAttrRelation& prepared, int k,
                             TiePolicy ties, const ParallelismOptions& par,
                             KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const StatKey key{StatKey::Kind::kUKRanksWinners, k, 0.0, ties};
  return ToInt(*prepared.CachedStat(key, [&] {
    const auto rows = prepared.RankDistributions(ties, par, report);
    return ToDouble(WinnersPerRank(*rows, prepared.ids(), k));
  }));
}

std::vector<int> TupleUKRanks(const PreparedTupleRelation& prepared, int k,
                              TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return TupleUKRanks(prepared, k, ties, ParallelismOptions{}, nullptr);
}

std::vector<int> TupleUKRanks(const PreparedTupleRelation& prepared, int k,
                              TiePolicy ties, const ParallelismOptions& par,
                              KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const StatKey key{StatKey::Kind::kUKRanksWinners, k, 0.0, ties};
  return ToInt(*prepared.CachedStat(key, [&] {
    // Streamed WinnersPerRank with per-chunk partials: each chunk applies
    // the argmax/min-id rule to its own rows, then the partials fold in
    // chunk index order. The rule is associative and order-independent
    // (strictly-greater wins; equal-and-positive prefers the smaller id),
    // so the answer matches the serial one-chunk sweep bit for bit.
    const int chunks = TupleSweepChunkCount(prepared.relation());
    struct Partial {
      std::vector<int> winners;
      std::vector<double> best;
    };
    std::vector<Partial> partials(
        static_cast<size_t>(chunks),
        Partial{std::vector<int>(static_cast<size_t>(k), -1),
                std::vector<double>(static_cast<size_t>(k), 0.0)});
    const vk::KernelOps& ops = vk::Active();
    const auto entries = prepared.SweepEntries(ties);
    ForEachTuplePositionalDistribution(
        prepared.relation(), prepared.rank_order(), ties, par, report,
        [&](int chunk, int i, std::span<const double> row) {
          URANK_DCHECK_MSG(internal::AllFiniteInRange(row, 0.0, 1.0),
                           "positional probability outside [0,1]");
          Partial& part = partials[static_cast<size_t>(chunk)];
          const int id = prepared.ids()[static_cast<size_t>(i)];
          const size_t hi = std::min(static_cast<size_t>(k), row.size());
          ops.argmax_merge(row.data(), id, part.best.data(),
                           part.winners.data(), hi);
        },
        entries.get());
    std::vector<int> winners(static_cast<size_t>(k), -1);
    std::vector<double> best(static_cast<size_t>(k), 0.0);
    for (const Partial& part : partials) {
      for (size_t r = 0; r < static_cast<size_t>(k); ++r) {
        const double b = part.best[r];
        const int w = part.winners[r];
        if (b > best[r] ||
            (b == best[r] && b > 0.0 && winners[r] >= 0 && w >= 0 &&
             w < winners[r])) {
          best[r] = b;
          winners[r] = w;
        }
      }
    }
    return ToDouble(winners);
  }));
}

URANK_KERNEL
PrunedTopKResult TupleUKRanksPruned(const PreparedTupleRelation& prepared,
                                    int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const TupleRelation& rel = prepared.relation();
  const size_t ranks = static_cast<size_t>(k);
  std::vector<int> winners(ranks, -1);
  std::vector<double> best(ranks, 0.0);
  PrunedTopKResult result;
  if (rel.size() > 0) {
    const auto entries = prepared.SweepEntries(ties);
    const vk::KernelOps& ops = vk::Active();
    internal::KernelArena arena;
    internal::AlignedBuf& row = arena.Doubles(4);  // above the sweep's slots
    result.tuples_scanned = static_cast<long long>(
        internal::SweepChunksSerially(
            rel, prepared.rank_order(), ties, *entries, &arena,
            [&](int i, const internal::AlignedBuf& appear) {
              // The unpruned fold reads the first min(k, row size) entries
              // of p·appear; scale is elementwise, so scaling only those
              // is bit-identical.
              const size_t hi = std::min(ranks, appear.size());
              row.resize(hi);
              ops.scale(row.data(), appear.data(), rel.tuple(i).prob, hi);
              URANK_DCHECK_MSG(
                  internal::AllFiniteInRange(
                      std::span<const double>(row.data(), hi), 0.0, 1.0),
                  "positional probability outside [0,1]");
              ops.argmax_merge(row.data(),
                               prepared.ids()[static_cast<size_t>(i)],
                               best.data(), winners.data(), hi);
            },
            [&](size_t /*next_pos*/, const internal::AlignedBuf& pmf) {
              // Stop once every rank's winner strictly dominates the bound
              // CDF(r + 1) any unseen tuple is held to at rank r.
              double cdf = pmf[0];
              for (size_t r = 0; r < ranks; ++r) {
                if (r + 1 >= pmf.size()) return false;  // CDF is 1 here
                // Early-exit CDF scan over the flushed pmf.
                // urank-lint: allow(kernel-vectorize)
                cdf += pmf[r + 1];
                if (cdf >= best[r] - internal::kPruneStopSlack) return false;
              }
              return true;
            }));
  }
  result.prune_stop_position = result.tuples_scanned;
  result.topk.resize(ranks);
  for (size_t r = 0; r < ranks; ++r) result.topk[r] = {winners[r], -best[r]};
  return result;
}

}  // namespace urank
