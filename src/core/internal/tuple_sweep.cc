#include "core/internal/tuple_sweep.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/kernel_annotations.h"
#include "util/parallel.h"

namespace urank {
namespace internal {

URANK_KERNEL void BufConvolveTrial(const vk::KernelOps& ops, AlignedBuf* pmf,
                                   double p) {
  const size_t n = pmf->size();
  pmf->resize(n + 1);
  ops.convolve_trial(pmf->data(), n, p);
}

URANK_KERNEL bool BufDeconvolveTrial(const vk::KernelOps& ops,
                                     const AlignedBuf& src, double p,
                                     AlignedBuf* out) {
  const size_t n = src.size() - 1;
  out->resize(n);
  return ops.deconvolve_trial(src.data(), n, p, out->data());
}

URANK_KERNEL void FoldTrialsBanded(const vk::KernelOps& ops,
                                   const double* masses, size_t m, int skip,
                                   AlignedBuf* out) {
  const auto folded = [&](size_t r) {
    return static_cast<int>(r) != skip && masses[r] > 0.0;
  };
  size_t len = 1;  // one entry per folded trial, plus one
  for (size_t r = 0; r < m; ++r) len += folded(r) ? 1 : 0;
  out->resize(len);
  double* v = out->data();
  v[0] = 1.0;
  size_t lo = 0;
  size_t hi = 1;
  for (size_t r = 0; r < m; ++r) {
    if (!folded(r)) continue;
    ops.convolve_trial(v + lo, hi - lo, masses[r]);
    ++hi;
    // A pmf always keeps a positive entry, so the band never empties.
    while (lo + 1 < hi && v[lo] == 0.0) ++lo;
    while (hi - 1 > lo && v[hi - 1] == 0.0) --hi;
  }
  std::fill(v, v + lo, 0.0);
  std::fill(v + hi, v + len, 0.0);
}

std::vector<int> TupleRankOrder(const TupleRelation& rel) {
  std::vector<int> order(static_cast<size_t>(rel.size()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double sa = rel.tuple(a).score;
    const double sb = rel.tuple(b).score;
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return order;
}

std::vector<size_t> PlanTupleChunkStarts(const TupleRelation& rel,
                                         const std::vector<int>& order,
                                         TiePolicy ties) {
  const size_t n = order.size();
  const int chunks = DeterministicChunkCount(static_cast<long long>(n));
  std::vector<size_t> starts(static_cast<size_t>(chunks) + 1, n);
  starts[0] = 0;
  if (chunks == 1) return starts;

  std::vector<unsigned char> touched(static_cast<size_t>(rel.num_rules()),
                                     0);
  std::vector<long long> cum(n + 1, 0);
  long long support = 0;
  for (size_t idx = 0; idx < n; ++idx) {
    // Integer chunk-cost recurrence for the deterministic chunk grid;
    // not a probability-array sweep.
    // urank-lint: allow(kernel-vectorize)
    cum[idx + 1] = cum[idx] + 1 + support;
    const size_t r = static_cast<size_t>(rel.rule_of(order[idx]));
    // urank-lint: allow(kernel-vectorize) — first-touch flag per rule.
    if (touched[r] == 0) {
      touched[r] = 1;
      ++support;
    }
  }
  const long long total = cum[n];
  int next = 1;
  for (size_t idx = 1; idx < n && next < chunks; ++idx) {
    const bool run_start =
        ties == TiePolicy::kBreakByIndex ||
        rel.tuple(order[idx]).score != rel.tuple(order[idx - 1]).score;
    if (!run_start) continue;
    while (next < chunks &&
           cum[idx] >= total * static_cast<long long>(next) / chunks) {
      starts[static_cast<size_t>(next)] = idx;
      ++next;
    }
  }
  return starts;
}

URANK_KERNEL void ReplayTuplePrefix(const TupleRelation& rel,
                                    const std::vector<int>& order,
                                    size_t begin, AlignedBuf* cur) {
  cur->assign(static_cast<size_t>(rel.num_rules()), 0.0);
  for (size_t idx = 0; idx < begin; ++idx) {
    const int i = order[idx];
    const size_t r = static_cast<size_t>(rel.rule_of(i));
    // urank-lint: allow(kernel-vectorize) — scatter keyed by rule index.
    (*cur)[r] = std::min((*cur)[r] + rel.tuple(i).prob, 1.0);
  }
}

URANK_KERNEL void ChunkSweep::Rebuild(AlignedBuf* out, int skip_rule) const {
  FoldTrialsBanded(ops, cur.data(), static_cast<size_t>(rel.num_rules()),
                   skip_rule, out);
}

URANK_KERNEL const AlignedBuf* ChunkSweep::WithoutRule(int r,
                                                       AlignedBuf* out) const {
  const double v = cur[static_cast<size_t>(r)];
  if (v <= 0.0) return &pmf;
  if (!BufDeconvolveTrial(ops, pmf, v, out)) Rebuild(out, r);
  return out;
}

URANK_KERNEL void ChunkSweep::Flush(int i) {
  const size_t r = static_cast<size_t>(rel.rule_of(i));
  const double old_mass = cur[r];
  if (old_mass > 0.0) {
    if (BufDeconvolveTrial(ops, pmf, old_mass, &scratch)) {
      pmf.swap(scratch);
    } else {
      Rebuild(&scratch, static_cast<int>(r));
      pmf.swap(scratch);
    }
  }
  // Rule mass stays a probability: Validate() bounds each rule's sum
  // by 1 + tolerance, and the sweep only ever adds member masses.
  URANK_DCHECK_PROB(old_mass + rel.tuple(i).prob);
  cur[r] = std::min(old_mass + rel.tuple(i).prob, 1.0);
  if (cur[r] > 0.0) BufConvolveTrial(ops, &pmf, cur[r]);
}

URANK_KERNEL size_t SweepAppearChunk(
    const TupleRelation& rel, const std::vector<int>& order, TiePolicy ties,
    size_t begin, size_t end, const double* entry_mass, KernelArena* arena,
    const std::function<void(int, const AlignedBuf&)>& per_tuple,
    const TupleSweepStopFn* stop) {
  const vk::KernelOps& ops = vk::Active();
  AlignedBuf& cur = arena->Doubles(0);
  AlignedBuf& pmf = arena->Doubles(1);
  AlignedBuf& scratch = arena->Doubles(2);
  AlignedBuf& appear = arena->Doubles(3);
  if (entry_mass != nullptr) {
    cur.assign(entry_mass, static_cast<size_t>(rel.num_rules()));
  } else {
    ReplayTuplePrefix(rel, order, begin, &cur);
  }
  ChunkSweep sweep{rel, ops, cur, pmf, scratch};
  sweep.Rebuild(&pmf, -1);

  size_t pos = begin;
  while (pos < end) {
    size_t run_end = pos + 1;
    if (ties == TiePolicy::kStrictGreater) {
      while (run_end < end &&
             rel.tuple(order[run_end]).score ==
                 rel.tuple(order[pos]).score) {
        ++run_end;
      }
    }
    for (size_t idx = pos; idx < run_end; ++idx) {
      const int i = order[idx];
      per_tuple(i, *sweep.WithoutRule(rel.rule_of(i), &appear));
    }
    for (size_t idx = pos; idx < run_end; ++idx) sweep.Flush(order[idx]);
    pos = run_end;
    if (stop != nullptr && (*stop)(pos, pmf)) return pos;
  }
  return pos;
}

URANK_KERNEL size_t SweepChunksSerially(
    const TupleRelation& rel, const std::vector<int>& order, TiePolicy ties,
    const TupleSweepEntryTable& entries, KernelArena* arena,
    const std::function<void(int, const AlignedBuf&)>& per_tuple,
    const TupleSweepStopFn& stop) {
  bool stopped = false;
  const TupleSweepStopFn hook = [&](size_t next, const AlignedBuf& pmf) {
    stopped = next < order.size() && stop(next, pmf);
    return stopped;
  };
  const int chunks = static_cast<int>(entries.starts.size()) - 1;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    const size_t pos = SweepAppearChunk(
        rel, order, ties, entries.starts[static_cast<size_t>(chunk)],
        entries.starts[static_cast<size_t>(chunk) + 1],
        TupleSweepEntryRow(&entries, chunk), arena, per_tuple, &hook);
    if (stopped) return pos;
  }
  return order.size();
}

AbsentContext::AbsentContext(const TupleRelation& rel) {
  const int m = rel.num_rules();
  rule_sums.resize(static_cast<size_t>(m));
  for (int r = 0; r < m; ++r) {
    rule_sums[static_cast<size_t>(r)] = std::min(rel.rule_prob_sum(r), 1.0);
  }
  FoldTrialsBanded(vk::Active(), rule_sums.data(), rule_sums.size(), -1,
                   &pmf_all);
}

URANK_KERNEL void AbsentContext::ConditionalWorldSize(const vk::KernelOps& ops,
                                                      int r, double cond,
                                                      AlignedBuf* out) const {
  const double v = rule_sums[static_cast<size_t>(r)];
  if (v > 0.0) {
    const size_t n = pmf_all.size() - 1;
    out->resize(n);
    if (!ops.deconvolve_trial(pmf_all.data(), n, v, out->data())) {
      // Deterministic fallback: rebuild the reduced product directly.
      FoldTrialsBanded(ops, rule_sums.data(), rule_sums.size(), r, out);
    }
  } else {
    out->assign(pmf_all.data(), pmf_all.size());
  }
  if (cond > 0.0) BufConvolveTrial(ops, out, cond);
}

}  // namespace internal
}  // namespace urank
