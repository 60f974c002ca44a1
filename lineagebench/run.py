#!/usr/bin/env python3
"""Builds the lineage benchmark from source and runs one workload.

usage: python3 lineagebench/run.py --workload capture|trace --seed N
                                   --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under lineagebench/. A run is split into parts of about
PART_SECONDS each, run one after another as separate processes on the same
inputs; the metrics are taken over the pooled samples of all parts, so no
single process's memory placement decides a run. The last stdout line is the
JSON result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PART_SECONDS = 3.0
SPAN_FILE = "lineagebench_spans.jsonl"
END_TO_END_UNITS = [
    ("capture_groupby_overhead", "x"),
    ("capture_join_overhead", "x"),
    ("lineage_bytes", "bytes"),
    ("trace_forward_vs_lazy", "x"),
]
LAYER_UNITS = [
    ("engine.groupby_nocapture_ms", "ms"),
    ("engine.groupby_capture_ms", "ms"),
    ("engine.groupby_capture_1t_ms", "ms"),
    ("plan.execute_ms", "ms"),
    ("core.execute_plan_ms", "ms"),
    ("core.execute_plan_nocapture_ms", "ms"),
    ("core.trace_backward_ms", "ms"),
    ("core.trace_forward_ms", "ms"),
    ("plan.lazy_backward_ms", "ms"),
    ("engine.lazy_forward_ms", "ms"),
    ("query.backward_rids_ms", "ms"),
    ("query.materialize_ms", "ms"),
    ("query.forward_rids_ms", "ms"),
    ("lineage.store.bytes", "bytes"),
]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "smoke_engine.h")):
        sys.stderr.write("lineagebench: engine sources (src/) not found\n")
        sys.exit(2)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "lineagebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                    "lineagebench"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "lineagebench")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=["capture", "trace"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.stderr.write("lineagebench: build failed: %s\n" % e)
        sys.exit(3)

    parts = max(1, round(a.seconds / PART_SECONDS))
    if a.trace and os.path.exists(os.path.join(ROOT, SPAN_FILE)):
        os.remove(os.path.join(ROOT, SPAN_FILE))
    results = []
    for part in range(parts):
        r = subprocess.run(
            [binary, a.workload, str(a.seed), repr(a.seconds / parts),
             str(a.trace), str(part), str(parts)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.stderr.write("lineagebench: part %d exited with %d\n"
                             % (part, r.returncode))
            sys.exit(4)
        results.append(json.loads(lines[-1]))

    pooled = {}
    for res in results:
        for name, values in res["samples"].items():
            pooled.setdefault(name, []).extend(values)
    if not a.trace:
        def ratio(num, den):
            # Median over pairs measured back to back of num / den.
            return statistics.median(
                x / y for x, y in zip(pooled[num], pooled[den]))

        values = {
            "capture_groupby_overhead": ratio("groupby_ms", "groupby_base_ms"),
            "capture_join_overhead": ratio("join_ms", "join_base_ms"),
            "lineage_bytes": statistics.median(pooled["lineage_bytes"]),
            "trace_forward_vs_lazy": ratio("forward_ms", "forward_lazy_ms"),
        }
        # Set-up is the first part's: one cold start of the process.
        out = {"setup_s": {"value": results[0]["setup_s"], "unit": "s"}}
        for name, unit in END_TO_END_UNITS:
            out[name] = {"value": values[name], "unit": unit}
    else:
        out = {name: {"value": statistics.median(pooled[name]), "unit": unit}
               for name, unit in LAYER_UNITS}
    print(json.dumps({
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": out,
    }))


if __name__ == "__main__":
    main()
