#!/usr/bin/env python3
"""Self-test of the repository benchmark: brief runs of every workload.

Checks that every metric BENCHMARK.json names is printed with its unit,
that every layer a workload exercises reads above 0 in its traced run,
that an eval hook throwing for one serve_dense group shows up in
completed_frac and the failed count, that traced runs write a span for
every layer boundary, and that the exact fhe.* op counts match between two
runs with different seeds.

Usage (from the repository root): python3 perfbench/tests/selftest.py
Takes a few minutes; the first run builds the benchmark.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import NOT_EXERCISED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["name"].startswith("fhe.") and m["unit"] == "count"]
# Exercised layers that may read 0 (or below) on a healthy run.
MAY_BE_ZERO = {"serve.rejected", "trace.overhead_ms"}
SPANS = {
    "serve_dense": ["setup", "smartpaf.keygen", "smartpaf.rotation_keygen",
                    "smartpaf.lower_plan", "io.session_adopt", "setup.warmup",
                    "serve.request", "io.request_decode", "serve.admit",
                    "serve.queue_wait", "serve.group", "io.response_encode"],
    "cnn_lenet": ["setup", "smartpaf.keygen", "smartpaf.rotation_keygen",
                  "smartpaf.lower_plan", "setup.warmup", "cnn.inference",
                  "smartpaf.encrypt", "smartpaf.run", "smartpaf.decrypt"],
    "train_logreg": ["setup", "smartpaf.keygen", "smartpaf.rotation_keygen",
                     "smartpaf.lower_plan", "setup.warmup", "train.round", "train.pack",
                     "train.init", "train.steps", "io.checkpoint"],
}


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode,
                                                      proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def assert_all_metrics(self, result, kind):
        for m in SPEC[kind]:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_end_to_end_metrics_printed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 1, 0)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assert_all_metrics(r, "end_to_end")
                for name in ("latency_p50_ms", "throughput_per_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(r["metrics"][name]["value"], 0.0, name)

    def test_traced_runs_print_layers_write_spans_and_repeat_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = run(w, 1, 1)
                b = run(w, 2, 1)
                self.assert_all_metrics(a, "per_layer")
                for m in SPEC["per_layer"]:
                    if m["name"] not in NOT_EXERCISED[w] and m["name"] not in MAY_BE_ZERO:
                        self.assertGreater(a["metrics"][m["name"]]["value"], 0.0, m["name"])
                for name in COUNTS:
                    self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"],
                                     name)
                self.assertGreater(a["metrics"]["fhe.rotations"]["value"], 0.0)
                spans = json.loads((ROOT / ".bench_out" / ("spans_%s_2.json" % w)).read_text())
                for name in SPANS[w]:
                    self.assertIn(name, spans["summary"], name)

    def test_not_exercised_lists_name_benchmark_metrics(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(set(NOT_EXERCISED), set(WORKLOADS))
        for w, absent in NOT_EXERCISED.items():
            self.assertLessEqual(set(absent), names, w)

    def test_failing_group_counts_as_failed(self):
        r = run("serve_dense", 3, 0, ["--fail-group", "1"])
        self.assertTrue(r["correct"])  # nothing answered wrongly, some not at all
        self.assertGreater(r["failed"], 0)
        self.assertLess(r["metrics"]["completed_frac"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
