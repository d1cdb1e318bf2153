// World-size pmf: the band-limited fold (internal::FoldTrialsBanded) must be
// memcmp-identical to the plain left fold it replaced — the determinism
// contract says every answer keeps its bits — on every dispatch target,
// including the degenerate edges: no rules, certain rules (pure shifts),
// and masses near the sweep epsilon whose tails go subnormal. The rebuild
// fallbacks of ConditionalWorldSize and ChunkSweep, which the fold now
// backs, must equal the plain rebuild too.

#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "common/scenario_gen.h"
#include "core/internal/kernel_arena.h"
#include "core/internal/tuple_sweep.h"
#include "core/internal/vector_kernels.h"
#include "gen/tuple_gen.h"
#include "util/simd.h"

namespace urank {
namespace {

using internal::AlignedBuf;
using internal::kTupleSweepProbEps;

// The oracle: the plain left fold over the whole vector, exactly as the
// world-size pmf was built before the band limit — every positive mass in
// index order (skipping `skip`), each convolved over all entries so far.
std::vector<double> PlainFold(const vk::KernelOps& ops,
                              const std::vector<double>& masses, int skip) {
  std::vector<double> pmf(1, 1.0);
  for (size_t r = 0; r < masses.size(); ++r) {
    if (static_cast<int>(r) == skip || !(masses[r] > 0.0)) continue;
    pmf.push_back(0.0);
    ops.convolve_trial(pmf.data(), pmf.size() - 1, masses[r]);
  }
  return pmf;
}

void ExpectSameBits(const double* got, size_t got_size,
                    const std::vector<double>& want) {
  ASSERT_EQ(got_size, want.size());
  EXPECT_EQ(std::memcmp(got, want.data(), want.size() * sizeof(double)), 0);
}

void ExpectBandFoldMatches(const vk::KernelOps& ops,
                           const std::vector<double>& masses, int skip = -1) {
  AlignedBuf out;
  internal::FoldTrialsBanded(ops, masses.data(), masses.size(), skip, &out);
  ExpectSameBits(out.data(), out.size(), PlainFold(ops, masses, skip));
}

std::vector<SimdTarget> AvailableTargets() {
  std::vector<SimdTarget> targets;
  for (SimdTarget t : {SimdTarget::kScalar, SimdTarget::kNeon,
                       SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (SimdTargetAvailable(t)) targets.push_back(t);
  }
  return targets;
}

// The active table with a deconvolve_trial that always reports
// cancellation: no valid relation makes the real kernel fail (see
// DeconvolutionStressTupleRelation), so this is how the tests reach the
// rebuild fallbacks.
vk::KernelOps FailingDeconvolveOps() {
  vk::KernelOps ops = vk::Active();
  ops.deconvolve_trial = [](const double*, size_t, double, double*) {
    return false;
  };
  return ops;
}

TEST(WorldSizePmfTest, ZeroOneAndTwoRules) {
  for (SimdTarget target : AvailableTargets()) {
    SCOPED_TRACE(ToString(target));
    const vk::KernelOps& ops = vk::ForTarget(target);
    ExpectBandFoldMatches(ops, {});
    ExpectBandFoldMatches(ops, {0.3});
    ExpectBandFoldMatches(ops, {1.0});
    ExpectBandFoldMatches(ops, {0.0});
    ExpectBandFoldMatches(ops, {0.3}, 0);
    ExpectBandFoldMatches(ops, {0.25, 0.75});
    ExpectBandFoldMatches(ops, {1.0, 0.4});
    ExpectBandFoldMatches(ops, {0.0, 0.6});
    ExpectBandFoldMatches(ops, {0.25, 0.75}, 1);
  }
}

TEST(WorldSizePmfTest, CertainRulesArePureShifts) {
  const std::vector<double> masses = {1.0, 0.5, 1.0, 1.0, 0.2, 1.0, 0.9, 1.0};
  for (SimdTarget target : AvailableTargets()) {
    SCOPED_TRACE(ToString(target));
    const vk::KernelOps& ops = vk::ForTarget(target);
    ExpectBandFoldMatches(ops, masses);
    ExpectBandFoldMatches(ops, masses, 3);
    ExpectBandFoldMatches(ops, std::vector<double>(40, 1.0));
  }
  // Five certain rules: the first five coefficients are exact zeros, which
  // the band skips rather than convolving.
  AlignedBuf out;
  internal::FoldTrialsBanded(vk::Active(), masses.data(), masses.size(), -1,
                             &out);
  for (size_t c = 0; c < 5; ++c) EXPECT_EQ(out[c], 0.0) << c;
  EXPECT_GT(out[5], 0.0);
}

TEST(WorldSizePmfTest, SubnormalTailsNearTheSweepEpsilon) {
  std::vector<double> masses;
  for (int r = 0; r < 400; ++r) {
    switch (r % 3) {
      case 0:
        masses.push_back(kTupleSweepProbEps * (1.0 + 0.01 * r));
        break;
      case 1:
        masses.push_back(1.0 - kTupleSweepProbEps * (1.0 + 0.01 * r));
        break;
      default:
        masses.push_back(2.0 * kTupleSweepProbEps);
        break;
    }
  }
  for (SimdTarget target : AvailableTargets()) {
    SCOPED_TRACE(ToString(target));
    const vk::KernelOps& ops = vk::ForTarget(target);
    ExpectBandFoldMatches(ops, masses);
    ExpectBandFoldMatches(ops, masses, 7);
  }
  // The inputs really do reach the subnormal range (where the band's
  // exact-zero trimming and the underflow edge meet).
  const std::vector<double> plain = PlainFold(vk::Active(), masses, -1);
  int subnormal = 0;
  for (double v : plain) subnormal += std::fpclassify(v) == FP_SUBNORMAL;
  EXPECT_GT(subnormal, 0);
}

TEST(WorldSizePmfTest, StressScenarioFoldsMatch) {
  const TupleRelation rel = testgen::DeconvolutionStressTupleRelation(301, 3);
  const internal::AbsentContext ctx(rel);
  for (SimdTarget target : AvailableTargets()) {
    SCOPED_TRACE(ToString(target));
    ExpectBandFoldMatches(vk::ForTarget(target), ctx.rule_sums);
  }
  ExpectSameBits(ctx.pmf_all.data(), ctx.pmf_all.size(),
                 PlainFold(vk::Active(), ctx.rule_sums, -1));
}

// Scale point: the default generator at N=100k (M ~ 82k
// rules), where the band holds ~11% of the pmf.
TEST(WorldSizePmfTest, GeneratorAtHundredThousandTuples) {
  TupleGenConfig config;
  config.num_tuples = 100000;
  config.seed = 47;
  const TupleRelation rel = GenerateTupleRelation(config);
  const internal::AbsentContext ctx(rel);
  ExpectSameBits(ctx.pmf_all.data(), ctx.pmf_all.size(),
                 PlainFold(vk::Active(), ctx.rule_sums, -1));
}

TEST(WorldSizePmfTest, ConditionalWorldSizeFallbackEqualsPlainRebuild) {
  const TupleRelation rel = testgen::DeconvolutionStressTupleRelation(81, 9);
  const internal::AbsentContext ctx(rel);
  const vk::KernelOps failing = FailingDeconvolveOps();
  const vk::KernelOps& ops = vk::Active();
  AlignedBuf got;
  AlignedBuf fast;
  for (int r = 0; r < rel.num_rules(); ++r) {
    SCOPED_TRACE(::testing::Message() << "rule " << r);
    for (double cond : {0.0, 0.3, 1.0}) {
      ctx.ConditionalWorldSize(failing, r, cond, &got);
      std::vector<double> want = PlainFold(ops, ctx.rule_sums, r);
      if (ctx.rule_sums[static_cast<size_t>(r)] <= 0.0) {
        want = PlainFold(ops, ctx.rule_sums, -1);
      }
      if (cond > 0.0) {
        want.push_back(0.0);
        ops.convolve_trial(want.data(), want.size() - 1, cond);
      }
      ExpectSameBits(got.data(), got.size(), want);
      // The deconvolution path agrees with the rebuild up to round-off.
      ctx.ConditionalWorldSize(ops, r, cond, &fast);
      ASSERT_EQ(fast.size(), got.size());
      for (size_t c = 0; c < got.size(); ++c) {
        EXPECT_NEAR(fast[c], got[c], 1e-12) << c;
      }
    }
  }
}

TEST(WorldSizePmfTest, ChunkSweepFallbackEqualsPlainRebuild) {
  const TupleRelation rel = testgen::DeconvolutionStressTupleRelation(120, 4);
  const std::vector<int> order = internal::TupleRankOrder(rel);
  const vk::KernelOps failing = FailingDeconvolveOps();
  const vk::KernelOps& ops = vk::Active();
  AlignedBuf cur;
  AlignedBuf pmf;
  AlignedBuf scratch;
  AlignedBuf out;
  const size_t begin = order.size() / 2;
  internal::ReplayTuplePrefix(rel, order, begin, &cur);
  internal::ChunkSweep sweep{rel, failing, cur, pmf, scratch};
  sweep.Rebuild(&pmf, -1);
  const auto masses = [&] {
    return std::vector<double>(cur.begin(), cur.end());
  };
  ExpectSameBits(pmf.data(), pmf.size(), PlainFold(ops, masses(), -1));

  for (int r = 0; r < rel.num_rules(); ++r) {
    if (!(cur[static_cast<size_t>(r)] > 0.0)) continue;
    SCOPED_TRACE(::testing::Message() << "rule " << r);
    const AlignedBuf* without = sweep.WithoutRule(r, &out);
    ExpectSameBits(without->data(), without->size(),
                   PlainFold(ops, masses(), r));
  }

  // Flush falls back to the same rebuild (rule conditioned out), then
  // convolves the rule's grown mass back in.
  for (size_t idx = begin; idx < begin + 20 && idx < order.size(); ++idx) {
    const int i = order[idx];
    const int r = rel.rule_of(i);
    // A rule with no mass yet has nothing to condition out: Flush then
    // convolves onto the sweep pmf as it stands.
    std::vector<double> want =
        cur[static_cast<size_t>(r)] > 0.0
            ? PlainFold(ops, masses(), r)
            : std::vector<double>(pmf.begin(), pmf.end());
    sweep.Flush(i);
    want.push_back(0.0);
    ops.convolve_trial(want.data(), want.size() - 1,
                       cur[static_cast<size_t>(r)]);
    SCOPED_TRACE(::testing::Message() << "flush position " << idx);
    ExpectSameBits(pmf.data(), pmf.size(), want);
  }
}

}  // namespace
}  // namespace urank
