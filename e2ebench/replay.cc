// e2e_replay: the benchmark's traced run.
//
//   e2e_replay --stream=DIR/stream.tsv --out=DIR
//
// Replays a run's recorded request stream (e2e_client's stream.tsv: the
// setup lines of the kept daemon, then the open-loop lines with their
// due times) in-process and single-threaded. Each request goes through
// the layers' public functions in the order urankd calls them:
//   serve::ParseRequest
//   admin/load: io/csv parse, then the mutable store (whose build is the
//               prepare urankd runs)
//   query:      MakeResultCacheKey, ResultCache::Get, then on a miss
//               QueryEngine::Resolve, Validate, Run and ResultCache::Put,
//               then RenderQueryResponse. urankd calls only Run, which
//               resolves and validates again; the separate spans time
//               those two steps on their own.
//   mutate:     Mutable{Tuple,Attr}Relation::Apply and Publish
// Each call is wrapped in a trace::Span carrying the request's sequence
// number (its wire id), recorded with the public trace::Recorder; the
// engine's own spans nest inside. Only the first kReplaySeconds of the
// open-loop schedule are replayed. Writes, into DIR:
//   trace.json    Chrome trace_event JSON of every span
//   spans.tsv     one row per span: request seq, name, duration
//   requests.tsv  one row per replayed request
//   replay.json   store maintenance counters and dropped-span count

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine/mutable_relation.h"
#include "core/engine/query_engine.h"
#include "core/engine/trace.h"
#include "io/csv.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "workload.h"

namespace e2ebench {
namespace {

using urank::serve::WireMutation;
using urank::serve::WireRequest;
using urank::trace::Span;

// Seconds of the open-loop schedule replayed: enough queries for stable
// layer medians while the replay of the slowest workload stays short.
constexpr double kReplaySeconds = 5.0;

struct StreamLine {
  bool setup = false;
  long long due_ns = 0;
  std::string line;
};

struct Entry {
  std::shared_ptr<urank::MutableTupleRelation> tuple;
  std::shared_ptr<urank::MutableAttrRelation> attr;
  std::unique_ptr<urank::QueryEngine> engine;

  std::uint64_t epoch() const {
    return tuple != nullptr ? tuple->epoch() : attr->epoch();
  }
};

// What requests.tsv records per request.
struct Replayed {
  long long seq = 0;
  bool setup = false;
  char kind = '?';  // q(uery), m(utate), l(oad)
  std::string relation;
  std::string semantics;
  int k = 0;
  char cache = '-';
  bool reused = false;
  std::size_t bytes = 0;
};

// The request's wire id, read ahead of the parse so the parse span can
// carry it.
long long SequenceOf(const std::string& line) {
  const std::size_t at = line.find("\"id\":");
  return at == std::string::npos ? -1 : std::atoll(line.c_str() + at + 5);
}

template <typename Mutation, typename Payload>
std::vector<Mutation> ToStoreOps(const WireRequest& request,
                                 Payload payload) {
  std::vector<Mutation> ops;
  for (const WireMutation& wm : request.mutations) {
    Mutation op;
    switch (wm.op) {
      case WireMutation::Op::kInsert:
        op.op = Mutation::Op::kInsert;
        break;
      case WireMutation::Op::kDelete:
        op.op = Mutation::Op::kDelete;
        break;
      case WireMutation::Op::kUpdate:
        op.op = Mutation::Op::kUpdate;
        break;
    }
    if (wm.op == WireMutation::Op::kDelete) {
      op.id = wm.id;
    } else {
      payload(wm, &op);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

class Replayer {
 public:
  Replayer() : cache_(urank::serve::ServerOptions().cache_bytes) {}

  bool Replay(const StreamLine& item, Replayed* out, std::string* error) {
    const long long seq = SequenceOf(item.line);
    out->seq = seq;
    out->setup = item.setup;
    Span request_span("replay.request", "seq", seq);
    WireRequest request;
    bool parsed = false;
    {
      Span span("protocol.parse", "seq", seq);
      parsed = urank::serve::ParseRequest(item.line, &request);
    }
    if (!parsed) {
      *error = "unparseable request " + std::to_string(seq) + ": " +
               request.error;
      return false;
    }
    switch (request.type) {
      case WireRequest::Type::kAdminLoad:
        out->kind = 'l';
        out->relation = request.name;
        return Load(request, seq, error);
      case WireRequest::Type::kQuery:
        out->kind = 'q';
        return Query(request, seq, out, error);
      case WireRequest::Type::kMutate:
        out->kind = 'm';
        out->relation = request.relation;
        return Mutate(request, seq, out, error);
      default:
        *error = "unexpected request type in the stream";
        return false;
    }
  }

  // Store maintenance totals (delta merges, compactions) so far.
  std::pair<std::uint64_t, std::uint64_t> Maintenance() const {
    std::pair<std::uint64_t, std::uint64_t> totals{0, 0};
    for (const auto& [name, entry] : entries_) {
      totals.first += entry.tuple != nullptr ? entry.tuple->delta_merges()
                                             : entry.attr->delta_merges();
      totals.second += entry.tuple != nullptr ? entry.tuple->compactions()
                                              : entry.attr->compactions();
    }
    return totals;
  }

 private:
  bool Load(const WireRequest& request, long long seq, std::string* error) {
    std::istringstream in(request.inline_data);
    Entry entry;
    if (request.model == urank::serve::WireModel::kTuple) {
      urank::TupleRelation rel;
      {
        Span span("io.csv_parse", "seq", seq);
        if (!urank::ReadTupleRelation(in, &rel, error)) return false;
      }
      Span span("mutable_relation.build", "seq", seq);
      entry.tuple = std::make_shared<urank::MutableTupleRelation>(rel);
      entry.engine = std::make_unique<urank::QueryEngine>(entry.tuple);
    } else {
      urank::AttrRelation rel;
      {
        Span span("io.csv_parse", "seq", seq);
        if (!urank::ReadAttrRelation(in, &rel, error)) return false;
      }
      Span span("mutable_relation.build", "seq", seq);
      entry.attr = std::make_shared<urank::MutableAttrRelation>(rel);
      entry.engine = std::make_unique<urank::QueryEngine>(entry.attr);
    }
    entries_[request.name] = std::move(entry);
    return true;
  }

  bool Query(const WireRequest& request, long long seq, Replayed* out,
             std::string* error) {
    const auto it = entries_.find(request.relation);
    if (it == entries_.end()) {
      *error = "query before load of " + request.relation;
      return false;
    }
    const Entry& entry = it->second;
    out->relation = request.relation;
    out->semantics = urank::ToString(request.query.options.semantics);
    out->k = request.query.options.k;
    const std::uint64_t epoch = entry.epoch();
    const bool use_cache =
        request.query.cache_mode == urank::CacheMode::kDefault;
    urank::serve::ServeTimings timings;
    urank::serve::ResultCacheKey key;
    {
      Span span("result_cache.key", "seq", seq);
      key = urank::serve::MakeResultCacheKey(request.relation, epoch,
                                             request.query.options);
    }
    std::string response;
    if (use_cache) {
      std::shared_ptr<const urank::RankingAnswer> cached;
      {
        Span span("result_cache.get", "seq", seq);
        cached = cache_.Get(key);
      }
      if (cached != nullptr) {
        urank::QueryStats stats;
        stats.reused_cache = true;
        {
          Span span("protocol.render", "seq", seq);
          response = urank::serve::RenderQueryResponse(
              request.id, request.relation, epoch,
              urank::serve::CacheOutcome::kHit, *cached, stats, timings);
        }
        out->cache = 'h';
        out->reused = true;
        out->bytes = response.size();
        return true;
      }
    }
    {
      Span span("query_engine.resolve", "seq", seq);
      entry.engine->Resolve();
    }
    {
      Span span("query_engine.validate", "seq", seq);
      entry.engine->Validate(request.query.options);
    }
    urank::QueryResult result;
    {
      Span span("query_engine.run", "seq", seq);
      result = entry.engine->Run(request.query);
    }
    if (!result.status.ok()) {
      *error = "replayed query " + std::to_string(seq) +
               " failed: " + result.status.message;
      return false;
    }
    auto answer =
        std::make_shared<const urank::RankingAnswer>(std::move(result.answer));
    if (use_cache) {
      Span span("result_cache.put", "seq", seq);
      cache_.Put(urank::serve::MakeResultCacheKey(
                     request.relation, result.stats.epoch,
                     request.query.options),
                 answer);
    }
    {
      Span span("protocol.render", "seq", seq);
      response = urank::serve::RenderQueryResponse(
          request.id, request.relation, result.stats.epoch,
          use_cache ? urank::serve::CacheOutcome::kMiss
                    : urank::serve::CacheOutcome::kBypass,
          *answer, result.stats, timings);
    }
    out->cache = use_cache ? 'm' : 'b';
    out->reused = result.stats.reused_cache;
    out->bytes = response.size();
    return true;
  }

  bool Mutate(const WireRequest& request, long long seq, Replayed* out,
              std::string* error) {
    const auto it = entries_.find(request.relation);
    if (it == entries_.end()) {
      *error = "mutate before load of " + request.relation;
      return false;
    }
    Entry& entry = it->second;
    bool ok = false;
    std::uint64_t epoch = 0;
    if (entry.tuple != nullptr) {
      const auto ops = ToStoreOps<urank::TupleMutation>(
          request, [](const WireMutation& wm, urank::TupleMutation* op) {
            op->tuple = wm.tuple;
            op->rule_key = wm.rule_key;
          });
      {
        Span span("mutable_relation.apply", "seq", seq);
        ok = entry.tuple->Apply(ops, error);
      }
      if (ok) {
        Span span("mutable_relation.publish", "seq", seq);
        epoch = entry.tuple->Publish().epoch;
      }
    } else {
      const auto ops = ToStoreOps<urank::AttrMutation>(
          request, [](const WireMutation& wm, urank::AttrMutation* op) {
            op->tuple = wm.attr_tuple;
          });
      {
        Span span("mutable_relation.apply", "seq", seq);
        ok = entry.attr->Apply(ops, error);
      }
      if (ok) {
        Span span("mutable_relation.publish", "seq", seq);
        epoch = entry.attr->Publish().epoch;
      }
    }
    if (!ok) return false;
    Span span("protocol.render", "seq", seq);
    const std::string response = urank::serve::RenderMutateResponse(
        request.id, request.relation, epoch,
        static_cast<long long>(request.mutations.size()),
        entry.tuple != nullptr ? entry.tuple->live_size()
                               : entry.attr->live_size());
    out->bytes = response.size();
    return true;
  }

  urank::serve::ResultCache cache_;
  std::map<std::string, Entry> entries_;
};

bool ReadStream(const std::string& path, double seconds,
                std::vector<StreamLine>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string row;
  const auto window_ns = static_cast<long long>(seconds * 1e9);
  while (std::getline(in, row)) {
    const std::size_t tab1 = row.find('\t');
    const std::size_t tab2 =
        tab1 == std::string::npos ? tab1 : row.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) return false;
    StreamLine item;
    item.setup = row.compare(0, tab1, "setup") == 0;
    item.due_ns = std::atoll(row.c_str() + tab1 + 1);
    item.line = row.substr(tab2 + 1);
    if (!item.setup && item.due_ns >= window_ns) break;
    out->push_back(std::move(item));
  }
  return true;
}

// Writes one row per span. Engine spans carry no sequence number; they
// belong to the replay.request span whose interval contains them.
void WriteSpans(const std::string& path,
                std::vector<urank::trace::Event> events) {
  std::sort(events.begin(), events.end(),
            [](const urank::trace::Event& a, const urank::trace::Event& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.depth < b.depth;
            });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "seq\tname\tdur_ns\tdepth\n");
  long long seq = -1;
  std::uint64_t window_end = 0;
  for (const urank::trace::Event& e : events) {
    if (std::string_view(e.name) == "replay.request") {
      seq = e.arg;
      window_end = e.start_ns + e.dur_ns;
    } else if (e.start_ns > window_end) {
      seq = -1;
    }
    std::fprintf(f, "%lld\t%s\t%llu\t%u\n", seq, e.name,
                 static_cast<unsigned long long>(e.dur_ns), e.depth);
  }
  std::fclose(f);
}

int Main(int argc, char** argv) {
  std::string stream_path;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--stream=", 0) == 0) {
      stream_path = arg.substr(9);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_dir = arg.substr(6);
    } else {
      stream_path.clear();
      break;
    }
  }
  if (stream_path.empty() || out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: e2e_replay --stream=FILE --out=DIR\n");
    return 2;
  }
  std::vector<StreamLine> stream;
  if (!ReadStream(stream_path, kReplaySeconds, &stream)) {
    std::fprintf(stderr, "e2e_replay: cannot read %s\n", stream_path.c_str());
    return 1;
  }

  Replayer replayer;
  std::vector<Replayed> replayed(stream.size());
  urank::trace::Recorder& recorder = urank::trace::Recorder::Global();
  recorder.Start(std::size_t{1} << 20);
  // Maintenance counted from the end of setup (a load publishes too).
  std::pair<std::uint64_t, std::uint64_t> setup_maintenance{0, 0};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i > 0 && stream[i - 1].setup && !stream[i].setup) {
      setup_maintenance = replayer.Maintenance();
    }
    std::string error;
    if (!replayer.Replay(stream[i], &replayed[i], &error)) {
      recorder.Stop();
      std::fprintf(stderr, "e2e_replay: %s\n", error.c_str());
      return 1;
    }
  }
  recorder.Stop();

  std::ofstream(out_dir + "/trace.json") << recorder.ChromeTraceJson();
  WriteSpans(out_dir + "/spans.tsv", recorder.Events());
  std::FILE* f = std::fopen((out_dir + "/requests.tsv").c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "seq\tphase\tkind\trelation\tsemantics\tk\tcache\treused\t"
               "bytes\n");
  for (const Replayed& r : replayed) {
    std::fprintf(f, "%lld\t%s\t%c\t%s\t%s\t%d\t%c\t%d\t%zu\n", r.seq,
                 r.setup ? "setup" : "open", r.kind, r.relation.c_str(),
                 r.semantics.empty() ? "-" : r.semantics.c_str(), r.k,
                 r.cache, r.reused ? 1 : 0, r.bytes);
  }
  std::fclose(f);
  const auto maintenance = replayer.Maintenance();
  std::ofstream(out_dir + "/replay.json")
      << "{\"dropped_spans\":" << recorder.dropped()
      << ",\"delta_merges\":" << maintenance.first - setup_maintenance.first
      << ",\"compactions\":"
      << maintenance.second - setup_maintenance.second << "}\n";
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
