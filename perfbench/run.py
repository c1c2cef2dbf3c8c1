#!/usr/bin/env python3
"""Builds and runs the DPBench repository benchmark.

Run from the root of a source tree:

  python3 perfbench/run.py --workload grid_1d --seed 1 --seconds 10 --trace 0
      one run of one workload; the last stdout line is the JSON result
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      every workload, untraced then traced, printing each metric with its
      unit; results go to .bench_results/summary.json
  python3 perfbench/run.py --self-test
      every workload at a tiny size, traced and untraced, plus a run with a
      deliberately wrong digest that must report failed ops
  python3 perfbench/run.py --record-golden 0-99
      appends the grid_1d and serve_journal digests of those seeds to
      perfbench/golden_digests.txt

The benchmark program is perfbench/main.cc and friends, built in Release
mode into .bench_build/ against the repository's own CMakeLists.txt.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD_DIR, "dpbench_perf")
GOLDEN = os.path.join(BENCH_DIR, "golden_digests.txt")
WORKLOADS = ["grid_1d", "distrib_2d", "serve_journal"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails loudly."""
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build step failed: %s (%s)" % (" ".join(cmd), e), 1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no DPBench source tree around perfbench/ "
             "(CMakeLists.txt and src/ are missing)")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH_DIR) not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another tree
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"] + gen, 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "dpbench_perf",
                "-j", jobs], 850)


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                paths.append(os.path.join(dirpath, name))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def binary_env():
    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    return env


def run_binary(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs one workload; returns (parsed result or None, stderr text)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = "%s-seed%s-trace%d" % (workload, seed, trace)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden", GOLDEN,
           "--tmp", os.path.join(RESULTS_DIR, "tmp-%d" % os.getpid()),
           "--trace-out", os.path.join(RESULTS_DIR, "trace-%s.jsonl" % tag)]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=binary_env(),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (tag, RUN_TIMEOUT_S), 1)
    if echo:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, proc.stderr
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, proc.stderr
    return result, proc.stderr


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def single_run(args):
    build()
    result, _ = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        fail("%s produced no result" % args.workload, 1)
    print(json.dumps(result))


def run_all(args):
    build()
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_binary(workload, args.seed, args.seconds, trace,
                                   echo=False)
            if result is None:
                fail("%s (trace %d) produced no result" % (workload, trace), 1)
            summary["%s/trace%d" % (workload, trace)] = result
            print("%s trace=%d correct=%s attempted=%d failed=%d" % (
                workload, trace, result["correct"], result["attempted"],
                result["failed"]))
            for name, m in sorted(result["metrics"].items()):
                print("  %-52s %16.6g %s" % (name, m["value"], m["unit"]))
    with open(os.path.join(RESULTS_DIR, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)


def self_test(_args):
    build()
    s = spec()
    want = {0: {m["name"] for m in s["end_to_end"]},
            1: {m["name"] for m in s["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, err = run_binary(workload, 1, 1, trace, ["--tiny"],
                                     echo=False)
            label = "%s trace=%d" % (workload, trace)
            before = len(problems)
            if result is None:
                problems.append(label + ": no result\n" + err[-2000:])
                continue
            names = set(result["metrics"])
            if names != want[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s" % (
                                    label, sorted(want[trace] - names),
                                    sorted(names - want[trace])))
            if not result["correct"] or result["failed"] != 0:
                problems.append(label + ": checks failed\n" + err[-2000:])
            if any(not m.get("unit") for m in result["metrics"].values()):
                problems.append(label + ": a metric has no unit")
            print(("ok " if len(problems) == before else "FAILED ") + label)
        result, _ = run_binary(workload, 1, 1, 0, ["--tiny", "--bad-digest"],
                               echo=False)
        if result is None or result["correct"] or result["failed"] == 0:
            problems.append(workload + ": a wrong digest was not reported "
                            "as a failed op")
        else:
            print("ok %s wrong digest -> %d failed ops" % (workload,
                                                           result["failed"]))
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


def record_golden(args):
    build()
    lo, _, hi = args.record_golden.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    pattern = re.compile(r"^\s+detail\s+(\S+)\s+(\d+) crc32c$", re.M)
    lines = []
    for seed in seeds:
        for workload, key in (("grid_1d", "cells_digest"),
                              ("serve_journal", "answer_digest.")):
            result, err = run_binary(workload, seed, 0.001, 0,
                                     ["--setup-samples", "0"], echo=False)
            if result is None or not result["correct"]:
                fail("%s seed %d failed while recording" % (workload, seed), 1)
            for name, crc in pattern.findall(err):
                if name.startswith(key):
                    label = name[len(key):] or "cells"
                    lines.append("%s %d %s %s\n" % (workload, seed, label, crc))
        print("recorded seed %d" % seed, file=sys.stderr)
    with open(GOLDEN, "a") as f:
        f.writelines(lines)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-golden", metavar="LO-HI")
    args = p.parse_args()
    if args.self_test:
        self_test(args)
    elif args.record_golden:
        record_golden(args)
    elif args.all:
        run_all(args)
    elif args.workload:
        single_run(args)
    else:
        p.error("give --workload, --all, --self-test or --record-golden")


if __name__ == "__main__":
    main()
