// Exact per-tuple rank distributions in the tuple-level model
// (Definition 7; computed as in paper Section 7, tuple-level DP).
//
// Conditioned on t_i appearing, each other exclusion rule independently
// contributes at most one appearing tuple ranked above t_i, so the rank is
// Poisson-binomial over rules; conditioned on t_i being absent, the rank is
// |W|, again Poisson-binomial over rules (with t_i's own rule renormalized
// by the absence of t_i). Mixing the two branches by p(t_i) gives
// rank(t_i). With incremental add/remove updates of the shared
// Poisson-binomial state the typical cost is O(M) per tuple after an O(M²)
// initialization; the worst case matches the paper's O(N M²).
//
// Two flavours are exposed:
//   * TupleRankDistributions — Definition 7 exactly, including the
//     absent-branch rank |W|; rows have size N+1 and sum to 1. This is the
//     distribution underlying expected/median/quantile ranks.
//   * TuplePositionalProbabilities — Pr[t_i appears AND exactly r appearing
//     tuples rank above it]; rows sum to p(t_i). This is the object the
//     prior-work semantics (U-kRanks, PT-k, Global-Topk) are defined on,
//     where an absent tuple occupies no rank.
//
// Parallel decomposition. The sweep order is partitioned into a
// deterministic chunk grid — a pure function of the relation (size, run
// boundaries, rule-touch profile), never of the thread count. Each chunk
// is self-contained: its worker replays the O(chunk start) prefix of rule
// masses, rebuilds the chunk-entry Poisson binomial from those masses in
// canonical rule-index order, then sweeps its tuples with allocation-free
// incremental updates in a per-worker arena. Because every entry point
// (serial and parallel alike) runs the same grid, results are
// bit-identical for any ParallelismOptions — see docs/PERFORMANCE.md.

#ifndef URANK_CORE_RANK_DISTRIBUTION_TUPLE_H_
#define URANK_CORE_RANK_DISTRIBUTION_TUPLE_H_

#include <functional>
#include <span>
#include <vector>

#include "model/tuple_model.h"
#include "model/types.h"
#include "util/parallel.h"

namespace urank {

namespace internal {
struct AbsentContext;  // core/internal/tuple_sweep.h
}  // namespace internal

// Streaming form: invokes `fn(index, dist)` once per tuple with that
// tuple's Definition-7 rank distribution (size N+1). The span passed to
// `fn` views a 64-byte aligned scratch buffer reused between calls; copy
// it if it must outlive the callback.
// Tuples are visited in score order, not index order. Memory stays O(N + M)
// instead of the O(N²) of the matrix form.
void ForEachTupleRankDistribution(
    const TupleRelation& rel, TiePolicy ties,
    const std::function<void(int, std::span<const double>)>& fn);

// As above, but sweeping `rank_order` — a precomputed permutation of the
// tuple positions sorted by (score descending, index ascending), e.g.
// PreparedTupleRelation::rank_order() — instead of re-sorting internally.
void ForEachTupleRankDistribution(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties,
    const std::function<void(int, std::span<const double>)>& fn);

// Precomputed chunk-entry state for the deterministic sweep grid: the
// chunk start positions plus, for each chunk, a snapshot of the per-rule
// prefix masses the sweep carries entering it — the exact arithmetic the
// per-chunk replay performs, taken once. Handing a prebuilt table to the
// parallel forms below (PreparedTupleRelation::SweepEntries memoizes one
// per tie policy) skips the O(chunk start) replay every chunk otherwise
// pays, without changing a single bit of the results: the snapshot *is*
// the replayed state. A pure function of (rel, rank_order, ties).
struct TupleSweepEntryTable {
  std::vector<std::size_t> starts;  // chunk grid, size chunks + 1
  std::vector<double> entry_mass;   // chunks x num_rules, row-major
  int num_rules = 0;
};

TupleSweepEntryTable BuildTupleSweepEntryTable(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties);

// Parallel chunked form: invokes `fn(chunk, index, dist)` once per tuple,
// possibly concurrently for tuples of *distinct* chunks (never for the
// same chunk), with chunk in [0, TupleSweepChunkCount(rel)). The per-chunk
// buffer passed to `fn` is reused between that chunk's calls. `fn` must be
// safe to run concurrently for distinct chunks; accumulations that are not
// per-tuple-disjoint should keep per-chunk partials and fold them in chunk
// order (see ParallelReduce). Results are bit-identical for any `par`.
// `report`, when non-null, is Merge()d with the threads/nodes/arena-bytes
// used. `entries`, when non-null, must be the table built for the same
// (rel, rank_order, ties) — chunks then start from the precomputed entry
// state instead of replaying their prefix. `world_size`, when non-null,
// must be the world-size pmf built for `rel`
// (PreparedTupleRelation::WorldSize memoizes it) and replaces the O(M^2)
// build every call otherwise pays.
void ForEachTupleRankDistribution(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties, const ParallelismOptions& par, KernelReport* report,
    const std::function<void(int, int, std::span<const double>)>& fn,
    const TupleSweepEntryTable* entries = nullptr,
    const internal::AbsentContext* world_size = nullptr);

// Streaming positional probabilities: invokes `fn(index, row)` once per
// tuple where row[c] = Pr[t_i present and ranked c-th among appearing
// tuples]; entries at ranks >= row.size() are identically zero (at most
// one tuple per rule appears, and zero-mass rules cannot contribute). The
// buffer is reused between calls; tuples are visited in score order.
// Memory stays O(M) instead of the O(N²) of the matrix form. The overload
// taking `rank_order` reuses a precomputed (score desc, index asc)
// permutation.
void ForEachTuplePositionalDistribution(
    const TupleRelation& rel, TiePolicy ties,
    const std::function<void(int, std::span<const double>)>& fn);
void ForEachTuplePositionalDistribution(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties,
    const std::function<void(int, std::span<const double>)>& fn);

// Parallel chunked positional form; same contract as the parallel
// ForEachTupleRankDistribution above (including the optional prebuilt
// entry table).
void ForEachTuplePositionalDistribution(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties, const ParallelismOptions& par, KernelReport* report,
    const std::function<void(int, int, std::span<const double>)>& fn,
    const TupleSweepEntryTable* entries = nullptr);

// Number of chunks the deterministic sweep grid partitions `rel` into — a
// pure function of the relation size. Callback chunk indices are always in
// [0, TupleSweepChunkCount(rel)); some chunks may be empty.
int TupleSweepChunkCount(const TupleRelation& rel);

// result[i][r] = Pr[R(t_i) = r] for r in [0, N]; rows sum to 1.
std::vector<std::vector<double>> TupleRankDistributions(
    const TupleRelation& rel, TiePolicy ties = TiePolicy::kBreakByIndex);

// result[i][r] = Pr[t_i present and ranked r-th among appearing tuples],
// r in [0, N]; rows sum to p(t_i).
std::vector<std::vector<double>> TuplePositionalProbabilities(
    const TupleRelation& rel, TiePolicy ties = TiePolicy::kBreakByIndex);

}  // namespace urank

#endif  // URANK_CORE_RANK_DISTRIBUTION_TUPLE_H_
