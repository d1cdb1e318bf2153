#include "common/scenario_gen.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace urank {
namespace testgen {

namespace {

// Distinct descending-ish scores: a deterministic base spread plus a
// small uniform jitter that cannot create collisions (the base values
// are >= 1 apart).
std::vector<double> DistinctScores(int n, Rng& rng) {
  std::vector<double> scores(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    scores[static_cast<size_t>(i)] =
        static_cast<double>(n - i) * 2.0 + rng.Uniform(0.0, 0.5);
  }
  return scores;
}

}  // namespace

TupleRelation CorrelatedTupleRelation(int n, Correlation correlation,
                                      uint64_t seed) {
  URANK_CHECK_MSG(n >= 0, "n must be >= 0");
  Rng rng(seed);
  std::vector<double> scores = DistinctScores(n, rng);
  const std::vector<double> probs =
      GenerateProbabilities(scores, correlation, 0.1, 1.0, rng);
  std::vector<TLTuple> tuples;
  tuples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    tuples.push_back(TLTuple{i, scores[static_cast<size_t>(i)],
                             probs[static_cast<size_t>(i)]});
  }
  return TupleRelation::Independent(std::move(tuples));
}

TupleRelation ClusteredScoreTupleRelation(int n, int clusters,
                                          uint64_t seed) {
  URANK_CHECK_MSG(n >= 0, "n must be >= 0");
  URANK_CHECK_MSG(clusters >= 1, "clusters must be >= 1");
  Rng rng(seed);
  std::vector<TLTuple> tuples;
  tuples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Exact collision on the cluster centre: tuples i and i + clusters
    // tie, producing runs the rank order must break by index.
    const double centre =
        static_cast<double>(clusters - (i % clusters)) * 100.0;
    tuples.push_back(TLTuple{i, centre, rng.Uniform(0.1, 1.0)});
  }
  return TupleRelation::Independent(std::move(tuples));
}

AttrRelation ClusteredScoreAttrRelation(int n, int clusters, int pdf_size,
                                        uint64_t seed) {
  URANK_CHECK_MSG(n >= 0, "n must be >= 0");
  URANK_CHECK_MSG(clusters >= 1, "clusters must be >= 1");
  URANK_CHECK_MSG(pdf_size >= 1, "pdf_size must be >= 1");
  Rng rng(seed);
  std::vector<AttrTuple> tuples;
  tuples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double centre =
        static_cast<double>(clusters - (i % clusters)) * 100.0;
    AttrTuple t;
    t.id = i;
    const std::vector<double> probs = rng.RandomSimplex(pdf_size, 1.0);
    t.pdf.reserve(static_cast<size_t>(pdf_size));
    for (int v = 0; v < pdf_size; ++v) {
      // Support values shared across every tuple of the cluster, so
      // distinct tuples collide on exact values (the tie-policy stress).
      t.pdf.push_back(ScoreValue{centre + static_cast<double>(v),
                                 probs[static_cast<size_t>(v)]});
    }
    tuples.push_back(std::move(t));
  }
  return AttrRelation(std::move(tuples));
}

TupleRelation AdversarialRuleTupleRelation(int n, int rules, uint64_t seed) {
  URANK_CHECK_MSG(n >= 0, "n must be >= 0");
  URANK_CHECK_MSG(rules >= 1 && rules <= std::max(n, 1),
                  "rules must be in [1, n]");
  Rng rng(seed);
  std::vector<double> scores = DistinctScores(n, rng);
  std::sort(scores.begin(), scores.end(), std::greater<double>());
  std::vector<TLTuple> tuples(static_cast<size_t>(n));
  std::vector<std::vector<int>> rule_members(static_cast<size_t>(rules));
  for (int i = 0; i < n; ++i) {
    // Tuple i holds the i-th largest score and belongs to rule i % rules:
    // every rule's members stripe across the whole score range.
    tuples[static_cast<size_t>(i)] =
        TLTuple{i, scores[static_cast<size_t>(i)], 0.0};
    rule_members[static_cast<size_t>(i % rules)].push_back(i);
  }
  for (int r = 0; r < rules; ++r) {
    const std::vector<int>& members = rule_members[static_cast<size_t>(r)];
    const std::vector<double> probs =
        rng.RandomSimplex(static_cast<int>(members.size()), 0.95);
    for (size_t j = 0; j < members.size(); ++j) {
      tuples[static_cast<size_t>(members[j])].prob = probs[j];
    }
  }
  return TupleRelation(std::move(tuples), std::move(rule_members));
}

TupleRelation WideRuleTupleRelation(int n, int rules, uint64_t seed) {
  URANK_CHECK_MSG(n >= 0, "n must be >= 0");
  URANK_CHECK_MSG(rules >= 1, "rules must be >= 1");
  Rng rng(seed);
  std::vector<TLTuple> tuples(static_cast<size_t>(n));
  const int covered = n / 2;
  std::vector<std::vector<int>> rule_members(
      static_cast<size_t>(std::min(rules, std::max(covered, 1))));
  const int m = static_cast<int>(rule_members.size());
  for (int i = 0; i < n; ++i) {
    const double score =
        static_cast<double>(n - i) * 2.0 + rng.Uniform(0.0, 0.5);
    double prob;
    if (i < covered) {
      rule_members[static_cast<size_t>(i % m)].push_back(i);
      // Wide-rule members share the rule's unit of mass: size-uniform
      // probabilities keep the rule sum at ~0.9 for any member count.
      prob = 0.9 / (static_cast<double>(covered / m) + 1.0);
    } else {
      prob = rng.Uniform(0.2, 1.0);
    }
    tuples[static_cast<size_t>(i)] = TLTuple{i, score, prob};
  }
  for (size_t r = 0; r < rule_members.size(); ++r) {
    if (rule_members[r].empty()) {
      rule_members.resize(r);
      break;
    }
  }
  return TupleRelation(std::move(tuples), std::move(rule_members));
}

TupleRelation BoundedSupportTupleRelation(int n, int rules, int singletons,
                                          uint64_t seed) {
  URANK_CHECK_MSG(n >= 0, "n must be >= 0");
  URANK_CHECK_MSG(rules >= 1, "rules must be >= 1");
  URANK_CHECK_MSG(singletons >= 0 && singletons <= n,
                  "singletons must be in [0, n]");
  Rng rng(seed);
  std::vector<TLTuple> tuples(static_cast<size_t>(n));
  std::vector<std::vector<int>> rule_members(static_cast<size_t>(rules));
  for (int i = 0; i < n; ++i) {
    TLTuple& t = tuples[static_cast<size_t>(i)];
    t.id = i;
    t.score = static_cast<double>((static_cast<long long>(i) * 7919) % 9973) +
              rng.Uniform(0.0, 0.5);
    if (i < singletons) {
      // Every 10th singleton is certain; the rest carry enough mass that
      // the certain-prefix bound accumulates quickly.
      t.prob = (i % 10 == 0) ? 1.0 : rng.Uniform(0.25, 0.95);
    } else {
      rule_members[static_cast<size_t>((i - singletons) % rules)].push_back(i);
      t.prob = 0.0;  // filled below once member counts are known
    }
  }
  for (std::vector<int>& members : rule_members) {
    if (members.empty()) continue;
    const double p = 0.95 / static_cast<double>(members.size());
    for (int i : members) tuples[static_cast<size_t>(i)].prob = p;
  }
  // n - singletons < rules leaves a trailing run of empty rules; trim it.
  for (size_t r = 0; r < rule_members.size(); ++r) {
    if (rule_members[r].empty()) {
      rule_members.resize(r);
      break;
    }
  }
  return TupleRelation(std::move(tuples), std::move(rule_members));
}

TupleRelation DeconvolutionStressTupleRelation(int n, uint64_t seed) {
  URANK_CHECK_MSG(n >= 0, "n must be >= 0");
  Rng rng(seed);
  std::vector<double> scores = DistinctScores(n, rng);
  std::sort(scores.begin(), scores.end(), std::greater<double>());
  const int rules = n / 2;
  std::vector<TLTuple> tuples(static_cast<size_t>(n));
  std::vector<std::vector<int>> rule_members(static_cast<size_t>(rules));
  for (int r = 0; r < rules; ++r) {
    double mass = 0.0;
    switch (r % 4) {
      case 0:
        mass = 0.5;
        break;
      case 1:
        mass = 1.0;
        break;
      case 2:
        mass = 1e-12;
        break;
      default:
        mass = rng.Uniform(0.05, 0.95);
        break;
    }
    // Member j of rule r holds the (j * rules + r)-th largest score; the
    // halves sum back to `mass` exactly (halving is exact in binary).
    for (int j = 0; j < 2; ++j) {
      const int i = j * rules + r;
      tuples[static_cast<size_t>(i)] =
          TLTuple{i, scores[static_cast<size_t>(i)], mass / 2.0};
      rule_members[static_cast<size_t>(r)].push_back(i);
    }
  }
  if (n % 2 == 1) {
    tuples[static_cast<size_t>(n - 1)] =
        TLTuple{n - 1, scores[static_cast<size_t>(n - 1)], 0.5};
  }
  return TupleRelation(std::move(tuples), std::move(rule_members));
}

TupleRelation TieHeavyTupleRelation(uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.UniformInt(3, 32));
  std::vector<TLTuple> tuples(static_cast<size_t>(n));
  std::vector<std::vector<int>> rules;
  std::vector<int> open;  // the 1/3 rule being filled, in index order
  for (int i = 0; i < n; ++i) {
    const double score = static_cast<double>(rng.UniformInt(0, 7));
    double prob = 1.0;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        break;
      case 1:
        prob = 0.1 * static_cast<double>(rng.UniformInt(1, 9));
        break;
      default:
        prob = 1.0 / 3.0;
        open.push_back(i);
        if (open.size() == 3) {
          rules.push_back(std::move(open));
          open.clear();
        }
    }
    tuples[static_cast<size_t>(i)] = TLTuple{i, score, prob};
  }
  if (!open.empty()) rules.push_back(std::move(open));
  return TupleRelation(std::move(tuples), std::move(rules));
}

TupleBlocks SplitIntoBlocks(const TupleRelation& rel, int block) {
  URANK_CHECK_MSG(block >= 1, "block must be >= 1");
  TupleBlocks out;
  const int n = rel.size();
  for (int begin = 0; begin < n; begin += block) {
    const int end = std::min(begin + block, n);
    std::vector<TLTuple> tuples;
    std::vector<int> keys;
    tuples.reserve(static_cast<size_t>(end - begin));
    keys.reserve(static_cast<size_t>(end - begin));
    for (int i = begin; i < end; ++i) {
      tuples.push_back(rel.tuple(i));
      const int r = rel.rule_of(i);
      // Singletons travel as "independent" (-1); real rules keep their
      // index as the cross-block key.
      keys.push_back(rel.rule(r).size() > 1 ? r : -1);
    }
    out.tuples.push_back(std::move(tuples));
    out.rule_keys.push_back(std::move(keys));
  }
  return out;
}

}  // namespace testgen
}  // namespace urank
