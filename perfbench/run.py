#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver from this checkout, runs one
workload and prints the result as the last line of standard output.

    python3 perfbench/run.py --workload fig5-dcm --seed 1 --seconds 30 --trace 0

Workloads: fig5-dcm, diamond-traced, tournament (see NOTES.md). With
--trace 0 the result carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. The exit code is 0 only when every unit passed
its digest check, the negative control failed as it must, and every metric
printed is declared in BENCHMARK.json with the same unit and direction.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("fig5-dcm", "diamond-traced", "tournament")
# Set-up is timed in fresh processes: SETUP_SAMPLES that stop at the first
# call, MEMORY_SAMPLES that also run one unit for peak memory, and the
# measuring process. Each metric is the median of its samples.
SETUP_SAMPLES = 15
MEMORY_SAMPLES = 7
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the Release driver; quick when nothing changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(step))


def commit_id():
    """The git commit when there is one, else a digest of the sources built."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_driver(args):
    """Runs the driver; returns (its JSON result, monotonic ns at spawn)."""
    start_ns = time.monotonic_ns()
    # The driver's working directory holds the reseeded tournament INI files;
    # their relative names enter the scorecard digest.
    proc = subprocess.run([DRIVER] + args, cwd=BUILD_DIR, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("driver exited with %d: %s" % (proc.returncode, " ".join(args)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1]), start_ns


def setup_seconds(first_call_ns, start_ns):
    # steady_clock and time.monotonic_ns both read CLOCK_MONOTONIC.
    return (first_call_ns - start_ns) / 1e9


def check_metrics(metrics, declared):
    """Every metric printed is declared with its unit and direction, and
    every declared metric is printed."""
    for name, m in metrics.items():
        spec = declared.get(name)
        if spec is None:
            raise BenchError("metric %s is not declared in BENCHMARK.json" % name)
        if spec["unit"] != m["unit"] or spec["better"] != m["better"]:
            raise BenchError("metric %s: printed as %s/%s, declared as %s/%s" %
                             (name, m["unit"], m["better"], spec["unit"], spec["better"]))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError("declared metrics not printed: " + ", ".join(missing))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()
    if opts.seed < 0:
        raise BenchError("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["per_layer" if opts.trace else "end_to_end"]}

    build()
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]

    setups, memory_probes = [], []
    if not opts.trace:
        for _ in range(SETUP_SAMPLES):
            probe, start_ns = run_driver(common + ["--setup-only"])
            setups.append(setup_seconds(probe["first_call_ns"], start_ns))
        for _ in range(MEMORY_SAMPLES):
            probe, start_ns = run_driver(common + ["--one-unit"])
            setups.append(setup_seconds(probe["first_call_ns"], start_ns))
            memory_probes.append(probe)

    spans_path = os.path.join(BUILD_DIR, "spans-%s-seed%d.csv" % (opts.workload, opts.seed))
    extra = ["--spans-out", spans_path] if opts.trace else []
    result, start_ns = run_driver(common + ["--seconds", repr(opts.seconds),
                                            "--trace", str(opts.trace)] + extra)
    context = result["context"]
    if context["build_type"] != "Release":
        raise BenchError("refusing to report from a %s build" % context["build_type"])
    if not result["negative_control_failed"]:
        raise BenchError("self-test: the negative control passed its impossible digest pin")

    metrics = result["metrics"]
    if not opts.trace:
        setups.append(setup_seconds(result["first_call_ns"], start_ns))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s", "better": "lower"}
        metrics["peak_rss_mb"] = {"value": statistics.median(p["peak_rss_mb"] for p in memory_probes),
                                  "unit": "MB", "better": "lower"}
    check_metrics(metrics, declared)

    # A probe's unit fails when it fails in its own process or, at a seed
    # without a pin, when its digest differs from the measuring run's.
    attempted = result["attempted"] + len(memory_probes)
    failed = result["failed"] + sum(1 for p in memory_probes
                                    if not p["ok"] or p["digest"] != result["digest"])
    context = dict(context, commit=commit_id())
    print("context: " + json.dumps(context, sort_keys=True))
    print("workload %s seed %d: %d units attempted, %d timed, failed_run_share %.4f" %
          (opts.workload, opts.seed, attempted, result["timed_units"], failed / attempted))
    print("digest %s (%s)" % (result["digest"], "checked against the pin" if result["digest_pinned"]
                              else "every unit of this run agreed; no pin for this seed"))
    if opts.trace:
        print("spans written to " + os.path.relpath(spans_path, ROOT))
    for name, m in metrics.items():
        print("  %-32s %18.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: " + str(e))
        sys.exit(2)
