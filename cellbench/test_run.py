#!/usr/bin/env python3
"""Tests of the cellbw benchmark itself.

    python3 -m unittest cellbench/test_run.py      (about two minutes)

Every run here is minimal-length (--seconds 1), so the figures mean
nothing; the tests check the output contract and the output checks.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SCRATCH = REPO / ".bench_build" / "test"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=42, cwd=REPO, extra=()):
    cmd = [sys.executable, str(cwd / "cellbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def tampered_baselines():
    """A copy of the baselines with one fig08 reference point changed."""
    dst = SCRATCH / "baselines"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(REPO / "baselines", dst)
    path = dst / "fig08_spe_mem.quick.json"
    report = json.loads(path.read_text())
    point = report["points"][0]
    col = next(k for k, v in point.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool))
    point[col] = point[col] * 2 + 1
    path.write_text(json.dumps(report))
    return dst


class Contract(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p = run(workload, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    r = result(p)
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"], p.stderr[-2000:])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(r["metrics"]), set(want))
                    for name, m in r["metrics"].items():
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)
                    for line in ("host: ", "ops: "):
                        self.assertIn("\n" + line, "\n" + p.stdout)

    def test_tampered_reference_point_raises_error_rate(self):
        baselines = tampered_baselines()
        p = run("dma_stream", extra=("--baselines", str(baselines)))
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        r = result(p)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"] / r["attempted"], 0)

    def test_refuses_without_program_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(REPO / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "cellbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run("dma_stream", cwd=bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")
        self.assertIn("missing program sources", p.stderr)


if __name__ == "__main__":
    unittest.main()
