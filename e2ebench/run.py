#!/usr/bin/env python3
"""End-to-end urankd benchmark: warm, bypass and churn traffic.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds the library, urankd and the benchmark's own tools from source
(into $CARGO_TARGET_DIR, default .bench_build), runs e2e_client against a
freshly spawned urankd, and prints, as the last line of standard output,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run also
replays its request stream in-process under trace spans (e2e_replay) and
the metrics are the per-layer ones. The line before it holds the host
context, every metric's sample count and any validity problem.
See e2ebench/README.md for the workloads and metric definitions.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("warm-dashboard", "bypass-mixed", "churn")
BUILD_TYPE = "Release"
# A run is invalid when the open-loop generator sent its requests this
# much later than due at the 99th percentile: it no longer offered the
# workload's fixed rate, and its lateness went into every latency. Over
# 118 recorded runs on the reference host the p99 was 0.13-0.3 ms when
# the host was quiet, up to 4.8 ms when it was contended, and 7.1 ms once.
LATE_BOUND_MS = 10.0
# Whole-run budget for everything after the build, seconds.
RUN_BUDGET_S = 170


def build(bench_dir, build_dir, log_path):
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(os.cpu_count() or 1)
    # Configure every time: cheap on a configured tree, and it fails when
    # the tree was configured from another source directory.
    steps = [["cmake", "-S", bench_dir, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
             ["cmake", "--build", cmake_dir, "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("e2ebench: build failed: " + " ".join(step))
    return cmake_dir


def host_context(summary, args):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numa_nodes = len(glob.glob("/sys/devices/system/node/node[0-9]*")) or 1
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "numa_nodes": numa_nodes,
        "simd_target": summary["simd_target"],
        "urankd_options": summary["urankd_options"],
        "build_type": BUILD_TYPE,
        "seed": args.seed,
        "workload": args.workload,
        "open_qps": summary["open_qps"],
        "writer_qps": summary["writer_qps"],
        "connections": summary["connections"],
        "client_threads": summary["client_threads"],
    }


def run(cmd, deadline, what):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("e2ebench: out of time before " + what)
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=remaining)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("e2ebench: %s exited %d" % (what, done.returncode))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    cmake_dir = build(bench_dir, build_dir,
                      os.path.join(build_dir, "build.log"))
    deadline = time.monotonic() + RUN_BUDGET_S

    run_dir = os.path.join(build_dir, "runs", "%s-%d-%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run([os.path.join(cmake_dir, "e2e_client"),
         "--urankd=" + os.path.join(cmake_dir, "urank", "tools", "urankd"),
         "--workload=" + args.workload, "--seed=%d" % args.seed,
         "--seconds=%s" % args.seconds, "--out=" + run_dir],
        deadline, "e2e_client")

    records = stats.load_records(os.path.join(run_dir, "records.tsv"))
    with open(os.path.join(run_dir, "summary.json")) as f:
        summary = json.load(f)
    metrics, samples, problems = stats.end_to_end(records, summary)
    late_ms = stats.loadgen_lateness(records)
    if late_ms > LATE_BOUND_MS:
        problems.append("generator ran late: p99 %.3f ms > %.1f ms"
                        % (late_ms, LATE_BOUND_MS))
    check = summary["check"]
    if check["groups_mismatched"] or check["responses_mismatched"]:
        problems.append("%d wrong answers" % check["responses_mismatched"])
    if check["error"]:
        problems.append("answer check: " + check["error"])
    attempted, failed = stats.failures(records)

    context = host_context(summary, args)
    context["check"] = check
    context["failed_frac"] = failed / attempted
    context["late_ms_p99"] = late_ms
    context["late_bound_ms"] = LATE_BOUND_MS
    if args.trace:
        run([os.path.join(cmake_dir, "e2e_replay"),
             "--stream=" + os.path.join(run_dir, "stream.tsv"),
             "--out=" + run_dir],
            deadline, "e2e_replay")
        metrics, samples = stats.per_layer(records, summary, run_dir)
        with open(os.path.join(run_dir, "replay.json")) as f:
            dropped = json.load(f)["dropped_spans"]
        if dropped:
            problems.append("trace dropped %d spans" % dropped)
        context["trace"] = os.path.join(run_dir, "trace.json")

    print(json.dumps({"context": context, "samples": samples,
                      "problems": problems}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
