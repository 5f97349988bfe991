#!/usr/bin/env python3
"""Builds and runs the perfbench binary, then prints one result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload checkout|booking --seed N \
        --seconds S --trace 0|1

The benchmark binary is built from the checkout's own sources with CMake
into $CARGO_TARGET_DIR (default .bench_build). Each run writes its full
result (metrics with sample counts, host and config block, per-layer
self times) to .bench_out/<workload>-seed<N>-trace<T>.json, and the
traced run also writes its spans next to it as .spans.csv. The last
line on standard output is the compact result:

    {"correct": true, "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("promise manager sources (src/) not found under "
                           + ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def source_identity():
    """Git commit when the checkout is a repository, plus a digest of
    src/ so that results of different sources are never confused."""
    sha = "unavailable"
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            sha = got.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--clients", type=int, default=2)
    parser.add_argument("--orders", type=int, default=0,
                        help="fixed orders per client instead of a timed "
                             "loop (self-test)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed: %s" % err)
        return 3

    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(
        OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                             args.trace))
    for stale in (result_path, result_path + ".spans.csv"):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--clients", str(args.clients), "--orders", str(args.orders),
           "--out", result_path]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        code = None
    finally:
        shutil.rmtree(result_path + ".data", ignore_errors=True)
    if code is None or not os.path.isfile(result_path):
        log("perfbench: no result (exit code %s)" % code)
        return 1

    with open(result_path) as f:
        result = json.load(f)
    sha, digest = source_identity()
    result["config"]["git_sha"] = sha
    result["config"]["src_digest"] = digest
    result["config"]["wall_s"] = round(time.monotonic() - started, 3)
    with open(result_path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")

    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if not result["correct"]:
        log("perfbench: audit failed: " + result["audit"])
    elif missing:
        log("perfbench: metrics missing from the result: " + ", ".join(missing))
    correct = bool(result["correct"]) and code == 0 and not missing
    for n in names:
        if n in metrics:
            m = metrics[n]
            log("  %-34s %14.4f %-6s (n=%d)" % (n, m["value"], m["unit"],
                                               m["samples"]))
    log("full result: " + os.path.relpath(result_path, ROOT))
    line = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": ({n: {"value": metrics[n]["value"],
                         "unit": metrics[n]["unit"]} for n in names}
                    if correct else {}),
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
