#include "core/semantics/semantics.h"

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

std::vector<double> AttrTopKProbabilities(const AttrRelation& rel, int k,
                                          TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  std::vector<double> probs(static_cast<size_t>(rel.size()), 0.0);
  // One DP per tuple against pdfs sorted once; the distribution and DP
  // buffers are hoisted out of the loop and reused across tuples.
  const std::vector<internal::SortedPdf> pdfs = BuildSortedPdfs(rel);
  const vk::KernelOps& ops = vk::Active();
  internal::AlignedBuf pmf_scratch;
  std::vector<double> dist;
  for (int i = 0; i < rel.size(); ++i) {
    AttrRankDistributionInto(rel, pdfs, i, ties, &pmf_scratch, &dist);
    const size_t hi =
        std::min(static_cast<size_t>(k), dist.size());
    const double cdf = ops.sum(dist.data(), hi);
    URANK_DCHECK_PROB(cdf);
    probs[static_cast<size_t>(i)] = std::min(cdf, 1.0);
  }
  return probs;
}

std::vector<double> TupleTopKProbabilities(const TupleRelation& rel, int k,
                                           TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  // Streams the rows and sums min(k, row size) entries, exactly as the
  // prepared form does: the reassociating sum groups lanes by length, so
  // summing a zero-padded matrix row instead could differ in the last ulp.
  std::vector<double> probs(static_cast<size_t>(rel.size()), 0.0);
  const vk::KernelOps& ops = vk::Active();
  ForEachTuplePositionalDistribution(
      rel, ties, [&](int i, std::span<const double> row) {
        const size_t hi = std::min(static_cast<size_t>(k), row.size());
        const double cdf = ops.sum(row.data(), hi);
        URANK_DCHECK_PROB(cdf);
        probs[static_cast<size_t>(i)] = std::min(cdf, 1.0);
      });
  return probs;
}

std::vector<double> AttrTopKProbabilities(
    const PreparedAttrRelation& prepared, int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return *SharedAttrTopKProbabilities(prepared, k, ties, ParallelismOptions{},
                                      nullptr);
}

std::vector<double> AttrTopKProbabilities(
    const PreparedAttrRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return *SharedAttrTopKProbabilities(prepared, k, ties, par, report);
}

std::shared_ptr<const std::vector<double>> SharedAttrTopKProbabilities(
    const PreparedAttrRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const StatKey key{StatKey::Kind::kTopKProbability, k, 0.0, ties};
  return prepared.CachedStat(key, [&] {
    const auto dists = prepared.RankDistributions(ties, par, report);
    const vk::KernelOps& ops = vk::Active();
    std::vector<double> probs(static_cast<size_t>(prepared.size()), 0.0);
    for (int i = 0; i < prepared.size(); ++i) {
      const auto& dist = (*dists)[static_cast<size_t>(i)];
      const size_t hi = std::min(static_cast<size_t>(k), dist.size());
      const double cdf = ops.sum(dist.data(), hi);
      URANK_DCHECK_PROB(cdf);
      probs[static_cast<size_t>(i)] = std::min(cdf, 1.0);
    }
    return probs;
  });
}

std::vector<double> TupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return *SharedTupleTopKProbabilities(prepared, k, ties,
                                       ParallelismOptions{}, nullptr);
}

std::vector<double> TupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return *SharedTupleTopKProbabilities(prepared, k, ties, par, report);
}

std::shared_ptr<const std::vector<double>> SharedTupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const StatKey key{StatKey::Kind::kTopKProbability, k, 0.0, ties};
  return prepared.CachedStat(key, [&] {
    // Sums the first min(k, row size) streamed entries, as the raw form
    // does. (Positional entries past the row are zero, but summing a
    // longer zero-padded row is not bit-identical: the reassociating sum
    // groups lanes by length.) Chunk callbacks write disjoint positions,
    // so concurrent chunks need no further coordination.
    std::vector<double> probs(static_cast<size_t>(prepared.size()), 0.0);
    const vk::KernelOps& ops = vk::Active();
    const auto entries = prepared.SweepEntries(ties);
    ForEachTuplePositionalDistribution(
        prepared.relation(), prepared.rank_order(), ties, par, report,
        [&](int /*chunk*/, int i, std::span<const double> row) {
          const size_t hi = std::min(static_cast<size_t>(k), row.size());
          const double cdf = ops.sum(row.data(), hi);
          URANK_DCHECK_PROB(cdf);
          probs[static_cast<size_t>(i)] = std::min(cdf, 1.0);
        },
        entries.get());
    return probs;
  });
}

namespace internal {

URANK_KERNEL long long ScanTupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties,
    const std::function<void(int, double)>& visit,
    const std::function<bool(double)>& stop) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const TupleRelation& rel = prepared.relation();
  if (rel.size() == 0) return 0;
  const auto entries = prepared.SweepEntries(ties);
  const vk::KernelOps& ops = vk::Active();
  KernelArena arena;
  AlignedBuf& row = arena.Doubles(4);  // above SweepAppearChunk's slots
  return static_cast<long long>(SweepChunksSerially(
      rel, prepared.rank_order(), ties, *entries, &arena,
      [&](int i, const AlignedBuf& appear) {
        // Only the first hi entries are summed; scale is elementwise, so
        // scaling just those is bit-identical to scaling the whole row.
        const size_t hi = std::min(static_cast<size_t>(k), appear.size());
        row.resize(hi);
        ops.scale(row.data(), appear.data(), rel.tuple(i).prob, hi);
        const double cdf = ops.sum(row.data(), hi);
        URANK_DCHECK_PROB(cdf);
        visit(i, std::min(cdf, 1.0));
      },
      [&](size_t /*next_pos*/, const AlignedBuf& pmf) {
        const size_t hi = static_cast<size_t>(k) + 1;
        // Past the pmf's support the CDF is 1: no unvisited tuple is
        // bounded below anything a stop test compares against.
        return hi < pmf.size() && stop(ops.sum(pmf.data(), hi));
      }));
}

}  // namespace internal
}  // namespace urank
