// Selection identity: the k-bounded TopKByStatistic and the PT-k /
// Global-Topk selections built on it must return byte-identical answers
// to a full sort of every (statistic, id) pair. The oracle below is the
// full-sort selection verbatim; results are compared with memcmp, so even
// a sign-of-zero difference in a reported statistic fails.

#include "core/ranking.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace urank {
namespace {

std::vector<RankedTuple> FullSortTopK(const std::vector<int>& ids,
                                      const std::vector<double>& statistics,
                                      int k) {
  std::vector<RankedTuple> all;
  all.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    all.push_back({ids[i], statistics[i]});
  }
  std::sort(all.begin(), all.end(),
            [](const RankedTuple& a, const RankedTuple& b) {
              if (a.statistic != b.statistic) return a.statistic < b.statistic;
              return a.id < b.id;
            });
  if (k >= 0 && static_cast<size_t>(k) < all.size()) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

// PT-k as a full sort followed by a threshold filter.
std::vector<RankedTuple> FullSortPTk(const std::vector<int>& ids,
                                     const std::vector<double>& probs,
                                     double threshold) {
  std::vector<double> neg(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) neg[i] = -probs[i];
  std::vector<RankedTuple> out;
  for (const RankedTuple& rt : FullSortTopK(ids, neg, -1)) {
    if (-rt.statistic >= threshold) out.push_back(rt);
  }
  return out;
}

void ExpectBytesEqual(const std::vector<RankedTuple>& got,
                      const std::vector<RankedTuple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "slot " << i;
    EXPECT_EQ(std::memcmp(&got[i].statistic, &want[i].statistic,
                          sizeof(double)),
              0)
        << "slot " << i << ": " << got[i].statistic << " vs "
        << want[i].statistic;
  }
}

// Shuffled, non-contiguous ids so the id tie-break is exercised against
// input order.
std::vector<int> ShuffledIds(int n, Rng& rng) {
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = 3 * i - n;
  rng.Shuffle(ids);
  return ids;
}

std::vector<int> KsFor(int n) { return {1, n - 1, n, n + 5, -1, 0}; }

TEST(TopKByStatistic, HeavyTiesMatchFullSort) {
  Rng rng(7);
  for (int n : {1, 2, 17, 200, 1000}) {
    const std::vector<int> ids = ShuffledIds(n, rng);
    std::vector<double> stats(static_cast<size_t>(n));
    const double values[] = {-1.5, 0.25, 3.0};
    for (double& s : stats) s = values[rng.UniformInt(0, 2)];
    for (int k : KsFor(n)) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " k=" << k);
      ExpectBytesEqual(TopKByStatistic(ids, stats, k),
                       FullSortTopK(ids, stats, k));
    }
  }
}

TEST(TopKByStatistic, SignedZerosKeepTheirBitsAndTieByIdOrder) {
  Rng rng(11);
  for (int n : {2, 9, 64, 500}) {
    const std::vector<int> ids = ShuffledIds(n, rng);
    std::vector<double> stats(static_cast<size_t>(n));
    // -0.0 and +0.0 compare equal, so their relative order is the id
    // order and each entry must report the zero it came in with.
    const double values[] = {-0.0, 0.0, -2.0, 1.0};
    for (double& s : stats) s = values[rng.UniformInt(0, 3)];
    for (int k : KsFor(n)) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " k=" << k);
      ExpectBytesEqual(TopKByStatistic(ids, stats, k),
                       FullSortTopK(ids, stats, k));
    }
  }
}

TEST(TopKByStatistic, DistinctStatisticsMatchFullSort) {
  Rng rng(13);
  const int n = 777;
  const std::vector<int> ids = ShuffledIds(n, rng);
  std::vector<double> stats(static_cast<size_t>(n));
  for (double& s : stats) s = rng.Uniform(-10.0, 10.0);
  for (int k : KsFor(n)) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    ExpectBytesEqual(TopKByStatistic(ids, stats, k),
                     FullSortTopK(ids, stats, k));
  }
}

TEST(TopKByStatistic, EmptyInput) {
  EXPECT_TRUE(TopKByStatistic({}, {}, 3).empty());
  EXPECT_TRUE(TopKByStatistic({}, {}, -1).empty());
}

TEST(PTkSelection, MatchesFullSortThenFilter) {
  Rng rng(17);
  const int n = 300;
  const std::vector<int> ids = ShuffledIds(n, rng);
  std::vector<double> probs(static_cast<size_t>(n));
  // Few distinct values, so many probabilities equal the thresholds below
  // exactly; 0.0 negates to -0.0 and must come back as it went in.
  const double values[] = {0.0, 0.125, 0.5, 0.75, 1.0};
  for (double& p : probs) p = values[rng.UniformInt(0, 4)];
  for (double threshold : {0.125, 0.5, 0.75, 1.0, 0.3, 1e-300}) {
    SCOPED_TRACE(testing::Message() << "threshold=" << threshold);
    ExpectBytesEqual(PTkSelection(ids, probs, threshold),
                     FullSortPTk(ids, probs, threshold));
  }
}

TEST(PTkSelection, ThresholdOneKeepsOnlyCertainTuples) {
  const std::vector<int> ids = {5, 3, 9, 1};
  const std::vector<double> probs = {1.0, 0.999999, 1.0, 0.5};
  const std::vector<RankedTuple> got = PTkSelection(ids, probs, 1.0);
  ExpectBytesEqual(got, FullSortPTk(ids, probs, 1.0));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 5);
  EXPECT_EQ(got[1].id, 9);
}

TEST(PTkSelection, NoTupleQualifies) {
  Rng rng(19);
  const std::vector<int> ids = ShuffledIds(50, rng);
  std::vector<double> probs(ids.size());
  for (double& p : probs) p = rng.Uniform(0.0, 0.4);
  EXPECT_TRUE(PTkSelection(ids, probs, 0.5).empty());
  EXPECT_TRUE(FullSortPTk(ids, probs, 0.5).empty());
  EXPECT_TRUE(PTkSelection({}, {}, 0.5).empty());
}

TEST(GlobalTopKSelection, MatchesFullSortOfNegatedProbabilities) {
  Rng rng(23);
  const int n = 250;
  const std::vector<int> ids = ShuffledIds(n, rng);
  std::vector<double> probs(static_cast<size_t>(n));
  const double values[] = {0.0, 0.3, 0.6};
  for (double& p : probs) p = values[rng.UniformInt(0, 2)];
  std::vector<double> neg(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) neg[i] = -probs[i];
  for (int k : {1, n - 1, n, n + 5}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    ExpectBytesEqual(GlobalTopKSelection(ids, probs, k),
                     FullSortTopK(ids, neg, k));
  }
}

}  // namespace
}  // namespace urank
