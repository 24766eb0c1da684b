"""Self-checks of the benchmark: traced counts and output digests repeat
exactly, each workload skips the layers it is meant to skip, and the
benchmark refuses to run without the package.

    python3 bench/selftest.py

The file name keeps pytest from collecting it with the repository's tests.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SLICE = 12  # leading jobs of each pool; enough to reach every job kind of the timed pools


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def traced(self, workload, seed=7):
        pool = workloads.build_pool(workload, seed, self.workdir)[:SLICE]
        tracer = Tracer()
        tracer.install()
        try:
            _lat, hashes, failures = run.run_pass(pool, None, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(failures, [])
        counts = {k: v for k, v in tracer.summary().items() if not k.endswith("_s")}
        return counts, run.outputs_digest(hashes), pool

    def test_traced_runs_repeat_counts_and_digest(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                counts1, digest1, _ = self.traced(workload)
                counts2, digest2, pool = self.traced(workload)
                self.assertEqual(counts1, counts2)
                self.assertEqual(digest1, digest2)
                _lat, hashes, failures = run.run_pass(pool, None)
                self.assertEqual(failures, [])
                self.assertEqual(run.outputs_digest(hashes), digest1, "tracing changed an output")

    def test_workloads_skip_their_layers(self):
        counts, _, _ = self.traced("polytope-duality")
        self.assertEqual(counts["mutation.mutate.calls"], 0)
        self.assertGreater(counts["polytopes.hull.calls"], 0)
        counts, _, _ = self.traced("mutation-search")
        self.assertEqual(counts["polytopes.hull.calls"], 0)
        self.assertGreater(counts["mutation.mutate.calls"], 0)

    def test_refuses_to_run_without_the_package(self):
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
        try:
            shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            cmd = [sys.executable, "bench/run.py", "--workload", "mutation-search", "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
