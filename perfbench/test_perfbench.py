#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root; the first test builds the program (see
run.py). Every workload runs once at the minimal ("tiny") input size
untraced and once traced, and must print each metric BENCHMARK.json
names, with its unit, and pass its output checks. A wrong reference
digest must fail the run, and a directory holding only the benchmark
(no library sources) must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def context(proc):
    lines = [l for l in proc.stdout.splitlines()
             if l.startswith("context: ")]
    return json.loads(lines[-1][len("context: "):])


class MetricsPresent(unittest.TestCase):
    def check_mode(self, trace, defs):
        results = {}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc, result = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertIsNotNone(result, proc.stdout[-2000:])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = {d["name"]: d["unit"] for d in defs}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                results[workload] = (proc, result)
        return results

    def test_end_to_end_metrics_untraced(self):
        for workload, (_, result) in self.check_mode(
                0, SPEC["end_to_end"]).items():
            # End-to-end metrics must never read 0.
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, (workload, name))

    def test_per_layer_metrics_traced(self):
        # The layers each workload must measure (README.md's map); the
        # rest of the catalogue reads 0 and is listed as not
        # applicable.
        layers = {
            "table4_sweep": ("trace.", "mem.", "core.", "sim.", "exec.",
                             "bench."),
            "scheme_zoo_ftr": ("trace.", "mem.", "core.", "sim.",
                               "exec.", "bench."),
            "svc_read_mostly": ("svc.", "bench."),
            "svc_write_overload": ("svc.", "bench."),
        }
        no_probes = {"svc.engine_probe_ns", "svc.optimistic_read_frac",
                     "svc.seqlock_retries_per_probe", "svc.probe_p50_us",
                     "svc.probe_p99_us"}
        for workload, (proc, _) in self.check_mode(
                1, SPEC["per_layer"]).items():
            skipped = set(context(proc)["not_applicable"])
            for m in SPEC["per_layer"]:
                name = m["name"]
                want = name.startswith(layers[workload])
                if workload == "svc_write_overload" and name in no_probes:
                    want = False  # all accesses: no probe traffic
                self.assertEqual(name not in skipped, want,
                                 (workload, name))


class Checks(unittest.TestCase):
    def test_wrong_reference_digest_fails(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        with tempfile.NamedTemporaryFile(
                "w", suffix=".txt", dir=base, delete=False) as f:
            for workload in ("table4_sweep", "scheme_zoo_ftr"):
                f.write("%s tiny 5 0123456789abcdef\n" % workload)
        try:
            for workload in ("table4_sweep", "scheme_zoo_ftr"):
                with self.subTest(workload=workload):
                    proc, result = run(workload, 0, "--digests", f.name)
                    self.assertNotEqual(proc.returncode, 0)
                    self.assertIsNotNone(result)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertEqual(context(proc)["digest_source"],
                                     "recorded")
        finally:
            os.remove(f.name)

    def test_traced_run_reproduces_untraced_digest(self):
        for workload in ("table4_sweep", "scheme_zoo_ftr"):
            with self.subTest(workload=workload):
                digests = []
                for trace in (0, 1):
                    proc, result = run(workload, trace)
                    self.assertEqual(proc.returncode, 0,
                                     proc.stderr[-2000:])
                    ctx = context(proc)
                    self.assertEqual(ctx["observed_digest"],
                                     ctx["expected_digest"])
                    digests.append(ctx["observed_digest"])
                self.assertEqual(digests[0], digests[1])

    def test_fails_without_library_sources(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="perfbench-test-", dir=base)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p),
                                os.path.join(tmp, p),
                                ignore=shutil.ignore_patterns(
                                    "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
