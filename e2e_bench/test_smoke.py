#!/usr/bin/env python3
"""The benchmark's own tests: the smoke size of every workload (n ~ 200,
one seed, a handful of jobs), untraced and traced, must meet the result
contract and print every named metric with its unit. A copy of the
benchmark without the library sources must fail without a result.

    python3 e2e_bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Workload-specific names printed as "metric <name> <value> <unit>" lines.
NAMED = {
    "clk_drill": ["kicks_per_s", "fail_share"],
    "dist_drill": ["steps_per_s", "fail_share"],
    "serve_mix": ["jobs_per_s", "job_latency_p50_s", "job_latency_p90_s",
                  "fail_share"],
    "prep_mega": ["cities_per_s", "fail_share"],
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run([os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace),
                    "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        text = "\n".join(lines[:-1])
        self.assertRegex(text, r'provenance \{"commit":')
        for name in NAMED[workload]:
            self.assertRegex(text, r"metric %s \S+ \S+" % name)
        if trace:
            self.assertRegex(text, r"breakdown \S+ unattributed")
            for m in SPEC["end_to_end"]:
                self.assertRegex(text, r"overhead %s untraced \S+ traced \S+ %s"
                                 % (m["name"], m["unit"]))

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2e_bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([os.path.join("e2e_bench", "run.py"), "--workload",
                    WORKLOADS[0], "--seed", "1", "--seconds", "1"], cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


for _w in WORKLOADS:
    for _t in (0, 1):
        setattr(SmokeTest, "test_%s_trace%d" % (_w, _t),
                lambda self, w=_w, t=_t: self.check(w, t))


if __name__ == "__main__":
    unittest.main()
