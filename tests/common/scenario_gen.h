// Stress-scenario relation generators shared by the unit tests and the
// benchmark harnesses (linked as the urank_scenarios library, registered
// in the top-level CMakeLists so both subtrees see it).
//
// The gen/ library produces the paper's baseline synthetic workloads;
// the scenarios here target the structures that make pruning and blocked
// preparation interesting or hard:
//
//   * correlated / anti-correlated score-probability relations — the
//     regimes where expected-score order is most and least informative
//     about rank, i.e. the best and worst cases for the pruned kernels;
//   * clustered scores — a few tight score clusters with long exactly-
//     equal runs, stressing tie policies and run-aligned chunk/shard
//     boundaries;
//   * adversarial exclusion-rule graphs — a handful of wide rules whose
//     members are spread across the whole score range, so every sweep
//     chunk carries mass for every rule;
//   * wide-rule scale relations — the cheap deterministic construction
//     the N=1M benchmarks use: ~`rules` wide exclusion rules plus
//     independent tuples, buildable in O(N);
//   * deconvolution stress — rule masses at the numerically hardest
//     points for the Poisson-binomial division the tuple sweeps use;
//   * tie-heavy small relations — few distinct scores, certain tuples and
//     exactly-full rules, where pruned stop tests meet their thresholds.
//
// All generators are deterministic functions of their arguments (fixed
// seed => fixed relation) and produce valid relations with ids 0..N-1.

#ifndef URANK_TESTS_COMMON_SCENARIO_GEN_H_
#define URANK_TESTS_COMMON_SCENARIO_GEN_H_

#include <cstdint>
#include <vector>

#include "gen/score_gen.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"

namespace urank {
namespace testgen {

// Tuple-level relation whose existence probabilities follow `correlation`
// against the (uniform) scores. Positive correlation concentrates
// existence mass at the top of the stream (pruning fires early);
// negative correlation puts the likely tuples at the bottom (pruning
// must be provably conservative). Requires n >= 0.
TupleRelation CorrelatedTupleRelation(int n, Correlation correlation,
                                      uint64_t seed);

// Tuple-level relation whose scores collapse onto `clusters` exact
// values, producing runs of n/clusters tied tuples. Requires n >= 0,
// clusters >= 1.
TupleRelation ClusteredScoreTupleRelation(int n, int clusters,
                                          uint64_t seed);

// Attribute-level counterpart: pdf supports are drawn around `clusters`
// shared centres so distinct tuples collide on exact support values.
// Requires n >= 0, clusters >= 1, pdf_size >= 1.
AttrRelation ClusteredScoreAttrRelation(int n, int clusters, int pdf_size,
                                        uint64_t seed);

// Adversarial exclusion-rule graph: `rules` wide rules, each with
// members striped across the entire score range (member j of rule r has
// the (j * rules + r)-th largest score), so no prefix of the rank order
// localizes a rule. Per-rule probabilities sum to ~0.95. Requires
// n >= 0, 1 <= rules <= max(n, 1).
TupleRelation AdversarialRuleTupleRelation(int n, int rules, uint64_t seed);

// Scale scenario for the N=1M benchmarks: `rules` wide exclusion rules
// covering half the tuples (striped like the adversarial graph), the
// other half independent with probabilities in [0.2, 1]. O(N) build,
// distinct scores. Requires n >= 0, rules >= 1.
TupleRelation WideRuleTupleRelation(int n, int rules, uint64_t seed);

// Bounded Poisson-binomial support at any N: `rules` wide exclusion
// rules hold every tuple past a `singletons`-tuple prefix (which mixes
// certain tuples and high-probability independents), so the rank DP's
// support stays O(rules + singletons) while N scales to millions — the
// shape the unpruned-vs-pruned N=1M series needs to stay tractable.
// Scores are near-uniform over [0, 9973.5) with collisions only through
// the jitter (i.e. effectively distinct). Requires n >= 0, rules >= 1,
// 0 <= singletons <= n.
TupleRelation BoundedSupportTupleRelation(int n, int rules, int singletons,
                                          uint64_t seed);

// Deconvolution-stress relation: two-member rules (striped across the
// score range like the adversarial graph) whose masses cycle through
// exactly 1/2, where deconvolve_trial's division recurrence has
// multiplier |p/(1-p)| = 1 and round-off stops decaying; exactly 1, a
// pure shift that leaves exact zeros at the bottom of the pmf; 1e-12,
// the sweep epsilon, which drives the pmf's upper tail subnormal; and a
// uniform draw in [0.05, 0.95]. An odd n adds one independent tuple at
// probability 1/2. Even these inputs do not make the vector kernels'
// deconvolve_trial report cancellation on any dispatch target: its
// direction choice keeps the recurrence multiplier <= 1, so round-off
// stays near 1e-16 against a 1e-9 gate. Tests that need the rebuild
// fallback force it through a KernelOps table whose deconvolve_trial
// fails. Requires n >= 0.
TupleRelation DeconvolutionStressTupleRelation(int n, uint64_t seed);

// Tie-heavy small relation, the family the pruned PT-k / Global-Topk /
// U-kRanks identity tests sweep: n uniform in [3, 32], integer scores in
// [0, 7] (long equal-score runs), and each probability 1.0, 0.1 * j for j
// uniform in [1, 9], or 1/3, with equal chance. The 1/3 tuples are grouped
// in index order into rules of up to three members (a full rule's mass
// sums to exactly 1); every other tuple is independent. Certain tuples and
// exactly-full rules put the bounding CDFs exactly on the thresholds.
TupleRelation TieHeavyTupleRelation(uint64_t seed);

// Splits `rel` into contiguous blocks of `block` tuples (the last one
// ragged) for feeding PreparedTupleRelationBuilder: returns per-block
// tuple vectors plus parallel rule-key vectors (rule index as the key,
// -1 for singletons) so cross-block rules reassemble exactly. Requires
// block >= 1.
struct TupleBlocks {
  std::vector<std::vector<TLTuple>> tuples;
  std::vector<std::vector<int>> rule_keys;
};
TupleBlocks SplitIntoBlocks(const TupleRelation& rel, int block);

}  // namespace testgen
}  // namespace urank

#endif  // URANK_TESTS_COMMON_SCENARIO_GEN_H_
