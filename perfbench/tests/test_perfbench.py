#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Builds the binary through perfbench/run.py, then checks that
  * the same seed gives the same order stream (and another seed does not);
  * on a one-client stream with a fixed order count, the counts that must
    repeat do repeat exactly: log records per order, request bytes, lock
    acquisitions per order and grants;
  * the traced run emits every per-layer metric BENCHMARK.json names, and
    the untraced run every end-to-end metric.
"""

import importlib.util
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args):
    """Runs run.py; returns (last stdout line as JSON, full result)."""
    got = subprocess.run([sys.executable, RUN_PY] + [str(a) for a in args],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=400)
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or not lines:
        raise AssertionError("run.py %s failed:\n%s" % (args, got.stderr))
    opts = dict(zip(args[::2], args[1::2]))
    path = os.path.join(run.OUT_DIR, "%s-seed%s-trace%s.json" % (
        opts["--workload"], opts["--seed"], opts.get("--trace", 0)))
    with open(path) as f:
        full = json.load(f)
    return json.loads(lines[-1]), full


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def stream(self, workload, seed):
        return subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--dump-stream", "500"],
            capture_output=True, text=True, check=True).stdout

    def test_same_seed_gives_same_stream(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.stream(workload, 7)
                self.assertEqual(first, self.stream(workload, 7))
                self.assertNotEqual(first, self.stream(workload, 8))
                # Two clients draw different streams.
                lines = first.splitlines()
                self.assertEqual(len(lines), 2)
                self.assertNotEqual(lines[0].split(":")[1],
                                    lines[1].split(":")[1])

    def test_one_client_counts_repeat_exactly(self):
        counts = ("oplog.records_per_order", "protocol.request_bytes",
                  "txn.lock_acquisitions_per_order", "core.grants")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    line, full = bench("--workload", workload, "--seed", 5,
                                       "--seconds", 1, "--trace", 1,
                                       "--clients", 1, "--orders", 40)
                    self.assertTrue(line["correct"], full["audit"])
                    self.assertEqual(line["failed"], 0)
                    runs.append({n: full["metrics"][n]["value"]
                                 for n in counts})
                self.assertEqual(runs[0], runs[1])
                spec = {"checkout": 2, "booking": 3}[workload]
                self.assertEqual(runs[0]["oplog.records_per_order"], spec)

    def test_runs_emit_every_named_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((1, "per_layer"), (0, "end_to_end")):
                with self.subTest(workload=workload, trace=trace):
                    line, full = bench("--workload", workload, "--seed", 3,
                                       "--seconds", 2, "--trace", trace)
                    self.assertTrue(line["correct"], full["audit"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreater(line["attempted"], 0)
                    names = [m["name"] for m in BENCHMARK[key]]
                    self.assertEqual(sorted(line["metrics"]), sorted(names))
                    for config in ("nproc", "compiler", "build_type",
                                   "git_sha", "client_threads", "seed",
                                   "flush_policy"):
                        self.assertIn(config, full["config"])
                    if trace:
                        self.assertTrue(os.path.getsize(
                            os.path.join(run.OUT_DIR,
                                         "%s-seed3-trace1.json.spans.csv"
                                         % workload)) > 0)


if __name__ == "__main__":
    unittest.main()
