// Workload definitions shared by the benchmark's load client
// (client.cc) and its traced in-process replay (replay.cc).
//
// Everything a run sends to urankd is derived here from the seed: the CSV
// relations, the reader key set of each workload, the query lines and
// the mutate batches. The client, the replay and the answer checker all
// call these functions, so they see byte-identical inputs.

#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine/mutable_relation.h"
#include "core/engine/query_engine.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace e2ebench {

enum class Kind { kWarmDashboard, kBypassMixed, kChurn };

struct Workload {
  Kind kind = Kind::kWarmDashboard;
  std::string name;
  // Aggregate reader arrival rate of the open-loop phase, requests/s.
  double open_qps = 0.0;
  // Mutate batches per second on the writer connection (churn only; the
  // writer runs through both phases). 0 means no writer.
  double writer_qps = 0.0;
  // Reader connections in both phases (the writer, if any, adds one).
  int reader_conns = 4;
};

// The three workloads by name; false for an unknown name.
bool FindWorkload(std::string_view name, Workload* out);

// Relation names on the wire.
inline constexpr char kTupleRelation[] = "tuples";
inline constexpr char kAttrRelation[] = "attrs";

inline constexpr int kTupleN = 20000;
inline constexpr int kAttrN = 5000;
inline constexpr int kAttrPdfSize = 5;
inline constexpr int kOpsPerBatch = 16;

// One relation as loaded through admin/load: its CSV text is generated
// from the seed and sent inline.
struct Relation {
  std::string name;
  urank::serve::WireModel model = urank::serve::WireModel::kTuple;
  int size = 0;
  std::string csv;
};

// The relations a workload loads during setup (tuples; churn adds attrs).
std::vector<Relation> MakeRelations(const Workload& workload,
                                    std::uint64_t seed);

// One (relation, query) pair a reader may ask.
struct ReaderKey {
  std::string relation;
  urank::QueryRequest request;
  std::string label;  // e.g. "tuples/median-rank/k10"
};

// warm-dashboard and bypass-mixed: the 32-point grid of 8 semantics x
// k in {10,100} x phi in {0.5,0.9} (threshold 0.1) on the tuple relation;
// bypass-mixed sets "cache":"bypass" on each. churn: tuple
// {expected-rank, expected-score, u-topk, median-rank with prune} and
// attribute {expected-rank, expected-score}, each with k in {10,100}.
std::vector<ReaderKey> ReaderKeys(const Workload& workload);

// Request lines (no trailing newline).
std::string QueryLine(const ReaderKey& key, long long id);
std::string LoadLine(const Relation& relation, long long id);
std::string MetricsLine(long long id);

// One mutate batch of kOpsPerBatch ops against one relation.
struct MutateBatch {
  std::string relation;
  urank::serve::WireModel model = urank::serve::WireModel::kTuple;
  std::vector<urank::TupleMutation> tuple_ops;
  std::vector<urank::AttrMutation> attr_ops;
};

std::string MutateLine(const MutateBatch& batch, long long id);

// Seeded stream of valid mutate batches, cycling over `relations` in
// order. Each op is an insert (60%), a delete (20%) or an update (20%) of
// a live id; inserts and updates carry payloads drawn from a generated
// pool and join no exclusion rule, so no batch can break a model
// contract. The stream tracks live ids itself, so batch j is fully
// determined by the seed and j.
class MutationStream {
 public:
  MutationStream(const std::vector<Relation>& relations, std::uint64_t seed);

  MutateBatch Next();

 private:
  struct Target {
    std::string name;
    urank::serve::WireModel model = urank::serve::WireModel::kTuple;
    std::vector<int> live;
    int next_id = 0;
  };

  int TakeLive(Target* target, bool remove);

  urank::Rng rng_;
  std::vector<Target> targets_;
  std::size_t next_target_ = 0;
  urank::TupleRelation tuple_pool_;
  urank::AttrRelation attr_pool_;
  std::size_t pool_cursor_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOAD_H_
