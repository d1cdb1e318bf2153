"""Statistics of the end-to-end urankd benchmark.

Turns what e2e_client and e2e_replay write (records.tsv, summary.json,
spans.tsv, requests.tsv, replay.json) into the benchmark's end-to-end and
per-layer metrics. The rules live here so test_stats.py can check them:

* percentiles are nearest-rank, and a tail percentile is reported only
  when at least MIN_BEYOND samples lie beyond it (supported_percentile);
* latency is measured from the moment a request was due, not from when
  the client managed to send it, so a stall is charged to every request
  due while it lasted (latencies_ms);
* a request fails when it was never answered, answered with a non-ok
  status, answered unreadably, or answered wrongly (failures). A failed
  request counts as missing every latency limit.
"""

import csv
import json
import math
import os

MIN_BEYOND = 10
PERCENTILE_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)
# Failed requests sort beyond every answered one; a percentile that lands
# on one reports this value (ms).
FAILED_LATENCY_MS = 1e9

PHASE_SETUP, PHASE_OPEN, PHASE_CLOSED, PHASE_PROBE = 0, 1, 2, 3
KIND_QUERY, KIND_MUTATE = 0, 1  # records.tsv kinds 2, 3: load, metrics
VERDICT_UNCHECKED, VERDICT_VERIFIED, VERDICT_MISMATCH = 0, 1, 2

SEMANTICS = ("expected-rank", "median-rank", "quantile-rank", "u-topk",
             "u-kranks", "pt-k", "global-topk", "expected-score")


def _rank(p, n):
    """1-based nearest rank of the p-th percentile among n values (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return min(n, max(1, math.ceil(round(p / 100.0 * n, 9))))


def percentile(values, p):
    """Nearest-rank p-th percentile of `values`; None when empty."""
    if not values:
        return None
    return sorted(values)[_rank(p, len(values)) - 1]


def median(values):
    return percentile(values, 50.0)


def supported_percentile(n, min_beyond=MIN_BEYOND, ladder=PERCENTILE_LADDER):
    """Highest ladder percentile with at least `min_beyond` of `n` samples
    beyond its nearest-rank position; None when even the median is not."""
    for p in ladder:
        if n > 0 and n - _rank(p, n) >= min_beyond:
            return p
    return None


class Record:
    """One row of records.tsv."""

    __slots__ = ("phase", "kind", "conn", "key", "seq", "due_ns", "sent_ns",
                 "recv_ns", "code", "cache", "epoch", "serve_ms", "queue_ms",
                 "engine_ms", "reused", "dp_cells", "tuples_scanned", "bytes",
                 "verdict")

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields.get(name, 0))
        if "recv_ns" not in fields:
            self.recv_ns = -1

    @property
    def answered(self):
        return self.recv_ns >= 0


_INT_FIELDS = ("phase", "kind", "conn", "key", "seq", "due_ns", "sent_ns",
               "recv_ns", "code", "epoch", "reused", "dp_cells",
               "tuples_scanned", "bytes", "verdict")
_FLOAT_FIELDS = ("serve_ms", "queue_ms", "engine_ms")


def load_records(path):
    records = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f, delimiter="\t"):
            fields = {name: int(row[name]) for name in _INT_FIELDS}
            fields.update({name: float(row[name]) for name in _FLOAT_FIELDS})
            fields["cache"] = row["cache"]
            records.append(Record(**fields))
    return records


def failed(record):
    return (not record.answered or record.code != 0
            or record.verdict == VERDICT_MISMATCH)


def failures(records):
    """(attempted, failed) over `records`."""
    return len(records), sum(1 for r in records if failed(r))


def latencies_ms(records, since="due"):
    """Latency of each record in ms, from its due time (or, for comparison
    only, its send time). Failed records count as FAILED_LATENCY_MS."""
    out = []
    for r in records:
        if failed(r):
            out.append(FAILED_LATENCY_MS)
        else:
            start = r.due_ns if since == "due" else r.sent_ns
            out.append((r.recv_ns - start) * 1e-6)
    return out


def _select(records, phases, kind):
    return [r for r in records if r.phase in phases and r.kind == kind]


def end_to_end(records, summary):
    """The end-to-end metrics of one run, their sample counts, and the
    run's validity problems (an empty list when valid)."""
    problems = []
    open_queries = sorted(_select(records, (PHASE_OPEN,), KIND_QUERY),
                          key=lambda r: r.due_ns)
    mutates = _select(records, (PHASE_OPEN, PHASE_CLOSED, PHASE_PROBE),
                      KIND_MUTATE)
    query_lat = latencies_ms(open_queries)
    mutate_lat = latencies_ms(mutates)
    if (supported_percentile(len(query_lat)) or 0) < 99.0:
        problems.append("open-loop phase has %d queries; p99 needs 1000"
                        % len(query_lat))
    if (supported_percentile(len(mutate_lat)) or 0) < 90.0:
        problems.append("%d mutates; p90 needs 100" % len(mutate_lat))

    setup_s = [s["setup_s"] for s in summary["setups"]]
    metrics = {
        "query_p99_ms": (percentile(query_lat, 99.0), "ms"),
        "mutate_p90_ms": (percentile(mutate_lat, 90.0), "ms"),
        "setup_s": (median(setup_s), "s"),
        "server_peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB"),
    }
    samples = {
        "query_p99_ms": len(query_lat),
        "mutate_p90_ms": len(mutate_lat),
        "setup_s": len(setup_s),
        "server_peak_rss_mb": 1,
    }
    return metrics, samples, problems


def capacity_per_second(records, summary):
    """Closed-loop ok answers in each whole second of the phase."""
    start, end = summary["closed_start_ns"], summary["closed_end_ns"]
    per_second = [0] * max(1, int((end - start) // 10**9))
    for r in _select(records, (PHASE_CLOSED,), KIND_QUERY):
        second = (r.recv_ns - start) // 10**9
        if not failed(r) and 0 <= second < len(per_second):
            per_second[second] += 1
    return per_second


def loadgen_lateness(records):
    """p99 of how late (ms) the generator sent its open-loop requests."""
    late = [(r.sent_ns - r.due_ns) * 1e-6 for r in records
            if r.phase == PHASE_OPEN and r.sent_ns >= 0]
    return percentile(late, 99.0) or 0.0


def load_spans(path):
    """{seq: {span name: [durations ns]}} from spans.tsv."""
    spans = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f, delimiter="\t"):
            seq = int(row["seq"])
            spans.setdefault(seq, {}).setdefault(row["name"], []).append(
                int(row["dur_ns"]))
    return spans


def _ms(values_ns):
    return [v * 1e-6 for v in values_ns]


def _us(values_ns):
    return [v * 1e-3 for v in values_ns]


def per_layer(records, summary, replay_dir):
    """The per-layer metrics of one run: (metrics, samples). A metric with
    no samples on this workload reports 0 with a sample count of 0."""
    out = {}
    samples = {}

    def put(name, values, unit, reduce=median):
        samples[name] = len(values)
        value = reduce(values) if values else 0.0
        out[name] = (value if value is not None else 0.0, unit)

    def put_value(name, value, unit, n=1):
        samples[name] = n
        out[name] = (value, unit)

    timed = [r for r in records if r.phase != PHASE_SETUP]
    open_ok = [r for r in records if r.phase == PHASE_OPEN
               and r.kind == KIND_QUERY and not failed(r)]
    served = [r for r in records if r.phase in (PHASE_OPEN, PHASE_CLOSED)
              and r.kind == KIND_QUERY and not failed(r)]
    engine_ran = [r for r in served if r.cache != "h"]

    # loadgen: how honest the schedule was, and what it sent.
    put_value("loadgen.late_ms_p99", loadgen_lateness(records), "ms",
              sum(1 for r in records if r.phase == PHASE_OPEN))
    put_value("loadgen.sent", sum(1 for r in timed if r.sent_ns >= 0),
              "count")
    put_value("loadgen.answered", sum(1 for r in timed if r.answered),
              "count")
    attempted, n_failed = failures(records)
    put_value("failed_frac", n_failed / attempted, "ratio", attempted)
    # The medians and the capacity (the closed loop's median second) are
    # unbounded. On churn the query median sits at the knee between cache
    # hits and reads queued behind a cold kernel, and the closed loop is
    # mostly hits, so both move with thread wake-ups. A publish costs one
    # of two levels depending on which worker runs it, so the write
    # median flips between them.
    put("query_p50_ms", latencies_ms(
        _select(records, (PHASE_OPEN,), KIND_QUERY)), "ms")
    per_second = capacity_per_second(records, summary)
    put_value("capacity_qps", median(per_second), "1/s", sum(per_second))
    put("mutate_p50_ms", latencies_ms(_select(
        records, (PHASE_OPEN, PHASE_CLOSED, PHASE_PROBE), KIND_MUTATE)), "ms")

    # tcp: client round trip minus the server's admission-to-render time.
    overhead = [(r.recv_ns - r.sent_ns) * 1e-6 - r.serve_ms for r in open_ok]
    put("tcp.overhead_ms_p50", overhead, "ms")
    put("tcp.overhead_ms_p99", overhead, "ms", lambda v: percentile(v, 99.0))

    # server: admission queue wait and worker handle time (S), sheds (M).
    queue = [r.queue_ms for r in open_ok]
    handle = [r.serve_ms - r.queue_ms for r in open_ok]
    put("server.queue_ms_p50", queue, "ms")
    put("server.queue_ms_p99", queue, "ms", lambda v: percentile(v, 99.0))
    put("server.handle_ms_p50", handle, "ms")
    put("server.handle_ms_p99", handle, "ms", lambda v: percentile(v, 99.0))
    shed = 0.0
    for phase in ("open", "closed"):
        delta = summary["metrics_delta"][phase]
        shed += delta.get("urank_serve_overloaded_total", 0.0)
        shed += delta.get("urank_serve_deadline_expired_total", 0.0)
    put_value("server.shed", shed, "count")

    # result_cache: hit ratio over default-mode queries (S).
    cached = [r for r in served if r.cache in ("h", "m")]
    put("result_cache.hit_ratio", [1.0 if r.cache == "h" else 0.0
                                   for r in cached], "ratio",
        lambda v: sum(v) / len(v))

    # query_engine (S): engine time of queries the result cache did not
    # answer, split by statistic-memo outcome.
    put("query_engine.run_ms_p50.memo_hit",
        [r.engine_ms for r in engine_ran if r.reused], "ms")
    put("query_engine.run_ms_p50.memo_miss",
        [r.engine_ms for r in engine_ran if not r.reused], "ms")

    # prepared_relation: memo hit ratio (M), and the memo-hit tail (S) -
    # a single-flight waiter reports a memo hit with a long engine time.
    memo_hits = memo_misses = 0.0
    for phase in ("open", "closed"):
        delta = summary["metrics_delta"][phase]
        memo_hits += delta.get("urank_engine_stat_cache_hits_total", 0.0)
        memo_misses += delta.get("urank_engine_stat_cache_misses_total", 0.0)
    lookups = memo_hits + memo_misses
    put_value("prepared_relation.memo_hit_ratio",
              memo_hits / lookups if lookups else 0.0, "ratio", int(lookups))
    put("prepared_relation.memo_hit_ms_p99",
        [r.engine_ms for r in engine_ran if r.reused], "ms",
        lambda v: percentile(v, 99.0))

    # semantics (S): work of memo misses, by semantics.
    keys = summary["keys"]

    def semantics_of(r):
        return keys[r.key].split("/")[1]

    for name in SEMANTICS:
        cells = [r.dp_cells for r in engine_ran
                 if not r.reused and semantics_of(r) == name]
        put("semantics.dp_cells_mean." + name, cells, "cells",
            lambda v: sum(v) / len(v))
    put("semantics.tuples_scanned_mean",
        [r.tuples_scanned for r in engine_ran if r.tuples_scanned > 0],
        "count", lambda v: sum(v) / len(v))

    # setup (client medians over the setup rounds).
    put("setup.load_ms", [s["load_ms"] for s in summary["setups"]], "ms")
    put("setup.warmup_ms", [s["warmup_ms"] for s in summary["setups"]], "ms")

    # Traced replay (T).
    spans = load_spans(os.path.join(replay_dir, "spans.tsv"))
    with open(os.path.join(replay_dir, "requests.tsv"), newline="") as f:
        replayed = list(csv.DictReader(f, delimiter="\t"))
    with open(os.path.join(replay_dir, "replay.json")) as f:
        counters = json.load(f)
    timed_replayed = [r for r in replayed if r["phase"] == "open"]

    def span_ns(rows, name):
        values = []
        for r in rows:
            values.extend(spans.get(int(r["seq"]), {}).get(name, []))
        return values

    def layer_ns(row, names):
        by_name = spans.get(int(row["seq"]), {})
        return sum(sum(by_name.get(name, [])) for name in names)

    queries = [r for r in timed_replayed if r["kind"] == "q"]
    put("protocol.parse_us_p50", _us(span_ns(timed_replayed,
                                             "protocol.parse")), "us")
    for k in (10, 100):
        put("protocol.render_us_p50.k%d" % k,
            _us(span_ns([r for r in queries if int(r["k"]) == k],
                        "protocol.render")), "us")
    put("protocol.response_bytes_mean", [int(r["bytes"]) for r in queries],
        "bytes", lambda v: sum(v) / len(v))

    put("result_cache.get_us_p50", _us(span_ns(queries,
                                                "result_cache.get")), "us")
    put("result_cache.put_us_p50", _us(span_ns(queries,
                                                "result_cache.put")), "us")
    put("query_engine.resolve_us_p50",
        _us(span_ns(queries, "query_engine.resolve")), "us")
    put("query_engine.validate_us_p50",
        _us(span_ns(queries, "query_engine.validate")), "us")
    ran = [r for r in queries if r["cache"] != "h"]
    for name in SEMANTICS:
        put("query_engine.run_us_p50." + name,
            _us(span_ns([r for r in ran if r["reused"] == "1"
                         and r["semantics"] == name], "query_engine.run")),
            "us")
        # The engine's per-semantics span covers the statistic kernel and
        # the top-k selection on a memo miss.
        put("semantics.kernel_ms_p50." + name,
            _ms(span_ns([r for r in ran if r["reused"] == "0"
                         and r["semantics"] == name], name)), "ms")

    mutates = [r for r in timed_replayed if r["kind"] == "m"]
    for model, relation in (("tuple", "tuples"), ("attr", "attrs")):
        rows = [r for r in mutates if r["relation"] == relation]
        apply_us = _us(span_ns(rows, "mutable_relation.apply"))
        publish_ms = _ms(span_ns(rows, "mutable_relation.publish"))
        put("mutable_relation.apply_us_p50." + model, apply_us, "us")
        put("mutable_relation.publish_ms_p50." + model, publish_ms, "ms")
        put("mutable_relation.publish_ms_p99." + model, publish_ms, "ms",
            lambda v: percentile(v, 99.0))
    put_value("mutable_relation.delta_merges", counters["delta_merges"],
              "count", len(mutates))
    put_value("mutable_relation.compactions", counters["compactions"],
              "count", len(mutates))
    # urankd's admin/load prepares a relation by building its mutable
    # store, so that build is the prepare time.
    loads = [r for r in replayed if r["kind"] == "l"]
    put("query_engine.prepare_ms", _ms(span_ns(loads,
                                               "mutable_relation.build")),
        "ms", sum)

    # attribution: how much of the worker's handle time the replayed
    # layer medians explain. Each replayed query contributes its time in
    # each layer (0 where the layer did nothing). Resolve and validate are
    # left out: Run repeats them, and urankd calls only Run.
    layers = (("result_cache.key", "result_cache.get", "result_cache.put"),
              ("query_engine.run",),
              ("protocol.render",))
    explained_ms = sum(median([layer_ns(r, names) for r in queries]) or 0
                       for names in layers) * 1e-6
    handle_p50 = median(handle)
    put_value("attribution.gap_frac",
              1.0 - explained_ms / handle_p50 if handle_p50 else 0.0,
              "ratio", len(queries))
    return out, samples
