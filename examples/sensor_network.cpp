// Sensor-network monitoring: attribute-level uncertainty on real-valued
// measurements (the paper's motivating application for that model).
//
// A field of temperature sensors each reports a small set of calibrated
// readings with confidence weights — a discrete pdf per sensor. The
// operator wants the k hottest sensors. Ranking by expected *score* is
// fooled by a faulty sensor that occasionally reports an absurd spike;
// ranking by expected/median rank is not.
//
//   $ ./sensor_network

#include <cstdio>

#include "core/expected_rank_attr.h"  // urank-lint: allow(engine-api)
#include "core/quantile_rank.h"  // urank-lint: allow(engine-api)
#include "core/semantics/expected_score.h"  // urank-lint: allow(engine-api)
#include "model/attr_model.h"
#include "util/rng.h"

namespace {

// Builds a sensor field: `n` healthy sensors with tight pdfs around their
// true temperature, plus one faulty sensor (id = n) whose pdf mixes a
// normal reading with a rare enormous spike.
urank::AttrRelation BuildSensorField(int n, urank::Rng& rng) {
  std::vector<urank::AttrTuple> sensors;
  for (int i = 0; i < n; ++i) {
    const double truth = rng.Uniform(15.0, 35.0);  // degrees C
    urank::AttrTuple s;
    s.id = i;
    // Three calibration points: low/centre/high, centre most likely.
    s.pdf = {{truth - 0.5, 0.25}, {truth, 0.5}, {truth + 0.5, 0.25}};
    sensors.push_back(std::move(s));
  }
  urank::AttrTuple faulty;
  faulty.id = n;
  faulty.pdf = {{20.0, 0.97}, {5000.0, 0.03}};  // rare bogus spike
  sensors.push_back(std::move(faulty));
  return urank::AttrRelation(std::move(sensors));
}

}  // namespace

int main() {
  urank::Rng rng(2026);
  const int kSensors = 200;
  const int k = 5;
  urank::AttrRelation field = BuildSensorField(kSensors, rng);

  std::printf("Sensor field: %d sensors (+1 faulty, id=%d)\n\n",
              kSensors, kSensors);

  const auto by_score = urank::AttrExpectedScoreTopK(field, k);
  std::printf("Top-%d by expected score (value-sensitive):\n", k);
  for (const auto& rt : by_score) {
    std::printf("  sensor %3d  E[temp] = %.2f C%s\n", rt.id, -rt.statistic,
                rt.id == kSensors ? "   <-- faulty sensor promoted!" : "");
  }

  const auto by_rank = urank::AttrExpectedRankTopK(field, k);
  std::printf("\nTop-%d by expected rank (value-invariant):\n", k);
  for (const auto& rt : by_rank) {
    std::printf("  sensor %3d  expected rank = %.2f%s\n", rt.id,
                rt.statistic,
                rt.id == kSensors ? "   <-- faulty sensor" : "");
  }

  const auto by_median = urank::AttrQuantileRankTopK(field, k, 0.5);
  std::printf("\nTop-%d by median rank (outlier-robust):\n", k);
  for (const auto& rt : by_median) {
    std::printf("  sensor %3d  median rank = %.0f\n", rt.id, rt.statistic);
  }

  // Pruned evaluation: sensors stream in expected-temperature order; the
  // Markov bounds stop the scan early.
  const urank::PrunedTopKResult pruned =
      urank::AttrExpectedRankTopKPrune(field, k);
  std::printf(
      "\nA-ERank-Prune answered the top-%d after touching %lld of %d "
      "sensors.\n",
      k, pruned.tuples_scanned, field.size());
  return 0;
}
