"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

Tiny runs of every workload must print every metric of BENCHMARK.json with
its unit, in both modes; planted wrong answers and a skipped lemma check
must count as failed operations; and the benchmark must refuse to run
where the twomatch sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

from inputs import edge_list, tight  # noqa: E402
from reference import Outcome, check_census, check_solve, reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIGHT1 = tight(1)
CSV_HEADER = "source,n,m,nu,lambda2,alpha2,ratio,ratio_ok,status,lemmas_passed,lemmas_failed,lemmas_skipped\n"


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


def census_row(**changes: str) -> str:
    row = {"source": "x#0", "n": "10", "m": "9", "nu": "5", "lambda2": "8", "alpha2": "4", "ratio": "5/4",
           "ratio_ok": "1", "status": "ok", "lemmas_passed": "15", "lemmas_failed": "0", "lemmas_skipped": ""}
    row.update(changes)
    return CSV_HEADER + ",".join(row.values()) + "\n"


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self) -> None:
        for workload in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run_bench("--workload", workload["name"], "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in SPEC[key]})

    def test_refuses_to_run_without_the_program(self) -> None:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "solve-hard", "--seed", "1", "--seconds", "1", "--trace", "0",
                             cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class PlantedFaults(unittest.TestCase):
    def census(self, text: str, code: int = 0, lemmas_on: bool = True) -> Outcome:
        return check_census([TIGHT1], [reference(TIGHT1)], lemmas_on, code, text, "")

    def test_correct_row_passes(self) -> None:
        out = self.census(census_row())
        self.assertEqual((out.attempted, out.failed, out.content), (1, 0, 1))
        self.assertEqual(out.wrong, [])

    def test_wrong_value_fails(self) -> None:
        out = self.census(census_row(lambda2="9"))
        self.assertEqual(out.failed, 1)
        self.assertTrue(out.wrong)

    def test_skipped_lemma_check_fails(self) -> None:
        out = self.census(census_row(lemmas_passed="", lemmas_failed="", lemmas_skipped="disabled"))
        self.assertEqual(out.failed, 1)
        self.assertIn("skipped", out.wrong[0])
        self.assertEqual(self.census(census_row(lemmas_passed="", lemmas_failed="",
                                                lemmas_skipped="disabled"), lemmas_on=False).failed, 0)

    def test_lemma_failure_and_false_ratio_fail(self) -> None:
        self.assertEqual(self.census(census_row(lemmas_passed="14", lemmas_failed="1"), code=1).failed, 1)
        self.assertEqual(self.census(census_row(ratio_ok="0"), code=1).failed, 1)

    def test_crash_fails_every_graph_of_the_call(self) -> None:
        out = self.census("", code=1, lemmas_on=True)
        out_tb = check_census([TIGHT1], [reference(TIGHT1)], True, 1, "", "Traceback (most recent call last):\nX\n")
        self.assertEqual((out.failed, out_tb.failed), (1, 1))
        self.assertEqual(out_tb.wrong, [])

    def test_invalid_witness_fails(self) -> None:
        doc = {"n": 10, "m": 9, "nu": 5, "lambda2": 8, "alpha2": 4, "ratio": "5/4", "ratio_ok": True,
               "status": "ok", "solver_nodes": 0, "lemmas": {"checked": True, "passed": 15, "failed": 0},
               "witness": {"h": [[0, 2], [3, 2]], "h_prime": []}}
        out = check_solve(TIGHT1, reference(TIGHT1), 0, json.dumps(doc), "")
        self.assertEqual(out.failed, 1)
        self.assertIn("witness", out.wrong[0])

    def test_real_report_passes(self) -> None:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
            path = Path(tmp) / "tight1.txt"
            path.write_text(edge_list(TIGHT1.n, TIGHT1.edges))
            proc = subprocess.run([sys.executable, "-m", "twomatch", "solve", str(path)], capture_output=True,
                                  text=True, env={"PYTHONPATH": str(ROOT / "src")})
        out = check_solve(TIGHT1, reference(TIGHT1), proc.returncode, proc.stdout, proc.stderr)
        self.assertEqual((out.failed, out.certified, out.content), (0, 1, 1), out.wrong)


if __name__ == "__main__":
    unittest.main()
