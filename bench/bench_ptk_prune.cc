// Experiment E15 (extension): early-terminating PT-k — the scan-depth
// behaviour of the threshold algorithm the paper cites as Hua et al. [23].
//
// Expected shape: higher thresholds and larger per-tuple probabilities
// stop the scan sooner (the unseen-tuple bound Pr[#appearing seen <= k]
// collapses once ~k units of probability mass are behind us); the answer
// always equals the full evaluation's (pruned_semantics_test checks it
// bit for bit). The pruned kernel runs on a prepared relation; the one-off
// preparation (rank order plus the sweep's chunk-entry table) is timed
// separately from the scans it serves.

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/semantics/pt_k.h"
#include "gen/tuple_gen.h"
#include "util/table.h"
#include "util/timer.h"

namespace urank {
namespace {

constexpr int kN = 20000;

// Prepares `rel` and warms the by-index sweep-entry table the pruned
// scans read, storing the elapsed time in *prepare_ms.
std::shared_ptr<const PreparedTupleRelation> PrepareTimed(
    TupleRelation rel, double* prepare_ms) {
  Timer timer;
  auto prepared = std::make_shared<const PreparedTupleRelation>(std::move(rel));
  prepared->SweepEntries(TiePolicy::kBreakByIndex);
  *prepare_ms = timer.ElapsedMs();
  return prepared;
}

TupleRelation MakeRelation(double prob_lo, double prob_hi) {
  TupleGenConfig config;
  config.num_tuples = kN;
  config.prob_lo = prob_lo;
  config.prob_hi = prob_hi;
  config.multi_rule_fraction = 0.3;
  config.max_rule_size = 3;
  config.seed = 37;
  return GenerateTupleRelation(config);
}

void RunExperiment() {
  Table by_threshold(
      "E15a: PT-k pruned scan depth vs threshold (N = 20000, k = 20, "
      "p in [0.2, 1])",
      {"threshold", "accessed", "fraction", "answer size", "time (ms)"});
  double prepare_ms = 0.0;
  const auto rel = PrepareTimed(MakeRelation(0.2, 1.0), &prepare_ms);
  std::printf("prepare (N = %d, p in [0.2, 1]): %.3f ms\n\n", kN,
              prepare_ms);
  for (double threshold : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    PrunedTopKResult result;
    const double ms = MedianTimeMs(
        5, [&] { result = TuplePTkPruned(*rel, 20, threshold); });
    by_threshold.AddRow(
        {FormatDouble(threshold, 1), FormatInt(result.tuples_scanned),
         FormatDouble(static_cast<double>(result.tuples_scanned) / kN, 4),
         FormatInt(static_cast<int64_t>(result.topk.size())),
         FormatDouble(ms, 3)});
  }
  by_threshold.Print();
  std::printf("\n");

  Table by_k("E15b: PT-k pruned scan depth vs k (threshold = 0.5)",
             {"k", "accessed", "answer size", "time (ms)"});
  for (int k : {5, 10, 20, 50, 100}) {
    PrunedTopKResult result;
    const double ms =
        MedianTimeMs(5, [&] { result = TuplePTkPruned(*rel, k, 0.5); });
    by_k.AddRow({FormatInt(k), FormatInt(result.tuples_scanned),
                 FormatInt(static_cast<int64_t>(result.topk.size())),
                 FormatDouble(ms, 3)});
  }
  by_k.Print();
  std::printf("\n");

  Table by_prob(
      "E15c: PT-k pruned scan depth vs probability range (k = 20, "
      "threshold = 0.5)",
      {"p range", "accessed", "fraction", "prepare (ms)"});
  const std::vector<std::pair<double, double>> ranges = {
      {0.05, 0.2}, {0.2, 0.5}, {0.5, 0.8}, {0.8, 1.0}};
  for (const auto& [lo, hi] : ranges) {
    double range_prepare_ms = 0.0;
    const auto r = PrepareTimed(MakeRelation(lo, hi), &range_prepare_ms);
    const PrunedTopKResult result = TuplePTkPruned(*r, 20, 0.5);
    char label[32];
    std::snprintf(label, sizeof(label), "[%.2f, %.2f]", lo, hi);
    by_prob.AddRow(
        {label, FormatInt(result.tuples_scanned),
         FormatDouble(static_cast<double>(result.tuples_scanned) / kN, 4),
         FormatDouble(range_prepare_ms, 3)});
  }
  by_prob.Print();
}

}  // namespace
}  // namespace urank

int main() {
  urank::RunExperiment();
  return 0;
}
