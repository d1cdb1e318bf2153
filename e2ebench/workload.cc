#include "workload.h"

#include <sstream>
#include <utility>

#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "io/csv.h"
#include "serve/json.h"

namespace e2ebench {

namespace {

using urank::AttrMutation;
using urank::RankingSemantics;
using urank::TupleMutation;
using urank::serve::JsonValue;
using urank::serve::WireModel;

// Independent streams per purpose, all derived from the one seed.
std::uint64_t Derive(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kTupleSeed = 1;
constexpr std::uint64_t kAttrSeed = 2;
constexpr std::uint64_t kMutationSeed = 3;
constexpr std::uint64_t kPoolSeed = 4;

constexpr int kPoolSize = 4096;

Relation TupleRelationCsv(const char* name, int n, std::uint64_t seed) {
  urank::TupleGenConfig config;
  config.num_tuples = n;
  config.seed = seed;
  std::ostringstream out;
  urank::WriteTupleRelation(urank::GenerateTupleRelation(config), out);
  return {name, WireModel::kTuple, n, out.str()};
}

JsonValue Envelope(const char* type, long long id) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("v", JsonValue::MakeNumber(urank::serve::kWireVersion));
  obj.Set("type", JsonValue::MakeString(type));
  obj.Set("id", JsonValue::MakeNumber(static_cast<double>(id)));
  return obj;
}

JsonValue TupleJson(const urank::TLTuple& tuple) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("id", JsonValue::MakeNumber(tuple.id));
  obj.Set("score", JsonValue::MakeNumber(tuple.score));
  obj.Set("prob", JsonValue::MakeNumber(tuple.prob));
  return obj;
}

JsonValue AttrJson(const urank::AttrTuple& tuple) {
  JsonValue pdf = JsonValue::MakeArray();
  for (const urank::ScoreValue& sv : tuple.pdf) {
    JsonValue point = JsonValue::MakeObject();
    point.Set("value", JsonValue::MakeNumber(sv.value));
    point.Set("prob", JsonValue::MakeNumber(sv.prob));
    pdf.Append(std::move(point));
  }
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("id", JsonValue::MakeNumber(tuple.id));
  obj.Set("pdf", std::move(pdf));
  return obj;
}

JsonValue OpJson(const char* op) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("op", JsonValue::MakeString(op));
  return obj;
}

}  // namespace

bool FindWorkload(std::string_view name, Workload* out) {
  // Open-loop rates: about half the measured closed-loop capacity_qps on
  // the reference host, except churn, whose open loop falls behind far
  // below that (e2ebench/README.md, "Why churn runs below half its
  // capacity").
  if (name == "warm-dashboard") {
    *out = {Kind::kWarmDashboard, "warm-dashboard", 10000.0, 0.0, 4};
    return true;
  }
  if (name == "bypass-mixed") {
    *out = {Kind::kBypassMixed, "bypass-mixed", 250.0, 0.0, 4};
    return true;
  }
  if (name == "churn") {
    *out = {Kind::kChurn, "churn", 150.0, 4.0, 3};
    return true;
  }
  return false;
}

std::vector<Relation> MakeRelations(const Workload& workload,
                                    std::uint64_t seed) {
  std::vector<Relation> relations;
  relations.push_back(
      TupleRelationCsv(kTupleRelation, kTupleN, Derive(seed, kTupleSeed)));
  if (workload.kind == Kind::kChurn) {
    urank::AttrGenConfig config;
    config.num_tuples = kAttrN;
    config.pdf_size = kAttrPdfSize;
    config.seed = Derive(seed, kAttrSeed);
    std::ostringstream out;
    urank::WriteAttrRelation(urank::GenerateAttrRelation(config), out);
    relations.push_back({kAttrRelation, WireModel::kAttr, kAttrN, out.str()});
  }
  return relations;
}

std::vector<ReaderKey> ReaderKeys(const Workload& workload) {
  std::vector<ReaderKey> keys;
  const auto add = [&keys](const char* relation, RankingSemantics semantics,
                           int k, double phi, bool bypass, bool prune) {
    ReaderKey key;
    key.relation = relation;
    key.request.options.semantics = semantics;
    key.request.options.k = k;
    key.request.options.phi = phi;
    key.request.options.threshold = 0.1;
    key.request.cache_mode =
        bypass ? urank::CacheMode::kBypass : urank::CacheMode::kDefault;
    key.request.prune = prune;
    key.label = std::string(relation) + "/" + urank::ToString(semantics) +
                "/k" + std::to_string(k);
    if (semantics == RankingSemantics::kQuantileRank) {
      key.label += phi == 0.5 ? "/phi0.5" : "/phi0.9";
    }
    keys.push_back(std::move(key));
  };

  if (workload.kind == Kind::kChurn) {
    for (int k : {10, 100}) {
      add(kTupleRelation, RankingSemantics::kExpectedRank, k, 0.5, false,
          false);
      add(kTupleRelation, RankingSemantics::kExpectedScore, k, 0.5, false,
          false);
      add(kTupleRelation, RankingSemantics::kUTopk, k, 0.5, false, false);
      add(kTupleRelation, RankingSemantics::kMedianRank, k, 0.5, false, true);
      add(kAttrRelation, RankingSemantics::kExpectedRank, k, 0.5, false,
          false);
      add(kAttrRelation, RankingSemantics::kExpectedScore, k, 0.5, false,
          false);
    }
    return keys;
  }
  const bool bypass = workload.kind == Kind::kBypassMixed;
  for (RankingSemantics semantics :
       {RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
        RankingSemantics::kQuantileRank, RankingSemantics::kUTopk,
        RankingSemantics::kUKRanks, RankingSemantics::kPTk,
        RankingSemantics::kGlobalTopk, RankingSemantics::kExpectedScore}) {
    for (int k : {10, 100}) {
      for (double phi : {0.5, 0.9}) {
        add(kTupleRelation, semantics, k, phi, bypass, false);
      }
    }
  }
  return keys;
}

std::string QueryLine(const ReaderKey& key, long long id) {
  JsonValue obj = Envelope("query", id);
  urank::serve::QueryRequestToJson(key.relation, key.request, &obj);
  return urank::serve::WriteJson(obj);
}

std::string LoadLine(const Relation& relation, long long id) {
  JsonValue obj = Envelope("admin/load", id);
  obj.Set("name", JsonValue::MakeString(relation.name));
  obj.Set("model", JsonValue::MakeString(urank::serve::ToString(relation.model)));
  obj.Set("data", JsonValue::MakeString(relation.csv));
  return urank::serve::WriteJson(obj);
}

std::string MetricsLine(long long id) {
  return urank::serve::WriteJson(Envelope("metrics", id));
}

std::string MutateLine(const MutateBatch& batch, long long id) {
  JsonValue ops = JsonValue::MakeArray();
  if (batch.model == WireModel::kTuple) {
    for (const TupleMutation& m : batch.tuple_ops) {
      if (m.op == TupleMutation::Op::kDelete) {
        JsonValue op = OpJson("delete");
        op.Set("id", JsonValue::MakeNumber(m.id));
        ops.Append(std::move(op));
        continue;
      }
      JsonValue op =
          OpJson(m.op == TupleMutation::Op::kInsert ? "insert" : "update");
      op.Set("tuple", TupleJson(m.tuple));
      ops.Append(std::move(op));
    }
  } else {
    for (const AttrMutation& m : batch.attr_ops) {
      if (m.op == AttrMutation::Op::kDelete) {
        JsonValue op = OpJson("delete");
        op.Set("id", JsonValue::MakeNumber(m.id));
        ops.Append(std::move(op));
        continue;
      }
      JsonValue op =
          OpJson(m.op == AttrMutation::Op::kInsert ? "insert" : "update");
      op.Set("tuple", AttrJson(m.tuple));
      ops.Append(std::move(op));
    }
  }
  JsonValue obj = Envelope("mutate", id);
  obj.Set("relation", JsonValue::MakeString(batch.relation));
  obj.Set("ops", std::move(ops));
  return urank::serve::WriteJson(obj);
}

MutationStream::MutationStream(const std::vector<Relation>& relations,
                               std::uint64_t seed)
    : rng_(Derive(seed, kMutationSeed)) {
  for (const Relation& relation : relations) {
    Target target;
    target.name = relation.name;
    target.model = relation.model;
    // Generated relations carry ids 0..size-1; new ids start far above.
    target.live.resize(static_cast<std::size_t>(relation.size));
    for (int i = 0; i < relation.size; ++i) {
      target.live[static_cast<std::size_t>(i)] = i;
    }
    target.next_id = 1000000;
    targets_.push_back(std::move(target));
  }
  urank::TupleGenConfig tuple_config;
  tuple_config.num_tuples = kPoolSize;
  tuple_config.multi_rule_fraction = 0.0;
  tuple_config.seed = Derive(seed, kPoolSeed);
  tuple_pool_ = urank::GenerateTupleRelation(tuple_config);
  urank::AttrGenConfig attr_config;
  attr_config.num_tuples = kPoolSize;
  attr_config.pdf_size = kAttrPdfSize;
  attr_config.seed = Derive(seed, kPoolSeed);
  attr_pool_ = urank::GenerateAttrRelation(attr_config);
}

int MutationStream::TakeLive(Target* target, bool remove) {
  const auto index = static_cast<std::size_t>(
      rng_.UniformInt(0, static_cast<std::int64_t>(target->live.size()) - 1));
  const int id = target->live[index];
  if (remove) {
    target->live[index] = target->live.back();
    target->live.pop_back();
  }
  return id;
}

MutateBatch MutationStream::Next() {
  Target& target = targets_[next_target_];
  next_target_ = (next_target_ + 1) % targets_.size();
  MutateBatch batch;
  batch.relation = target.name;
  batch.model = target.model;
  for (int i = 0; i < kOpsPerBatch; ++i) {
    const double draw = rng_.Uniform01();
    const int pool_index = static_cast<int>(pool_cursor_++ % kPoolSize);
    if (target.model == WireModel::kTuple) {
      TupleMutation op;
      if (draw < 0.6) {
        op.op = TupleMutation::Op::kInsert;
        op.tuple = tuple_pool_.tuple(pool_index);
        op.tuple.id = target.next_id++;
        target.live.push_back(op.tuple.id);
      } else if (draw < 0.8) {
        op.op = TupleMutation::Op::kDelete;
        op.id = TakeLive(&target, true);
      } else {
        op.op = TupleMutation::Op::kUpdate;
        op.tuple = tuple_pool_.tuple(pool_index);
        op.tuple.id = TakeLive(&target, false);
      }
      batch.tuple_ops.push_back(op);
    } else {
      AttrMutation op;
      if (draw < 0.6) {
        op.op = AttrMutation::Op::kInsert;
        op.tuple = attr_pool_.tuple(pool_index);
        op.tuple.id = target.next_id++;
        target.live.push_back(op.tuple.id);
      } else if (draw < 0.8) {
        op.op = AttrMutation::Op::kDelete;
        op.id = TakeLive(&target, true);
      } else {
        op.op = AttrMutation::Op::kUpdate;
        op.tuple = attr_pool_.tuple(pool_index);
        op.tuple.id = TakeLive(&target, false);
      }
      batch.attr_ops.push_back(std::move(op));
    }
  }
  return batch;
}

}  // namespace e2ebench
