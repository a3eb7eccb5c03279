"""Self-test of the benchmark: python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a short run of each workload completes with a well-formed result,
that perturbed program output counts as a failed op, that op pools depend
only on the seed, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_spec_matches_code(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
                         tracer.PER_LAYER)

    def test_short_runs_emit_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result_of(proc)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric in res["metrics"].values():
                        self.assertIsInstance(metric["value"], float)

    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "oracle-scans", "--seed", "1", "--seconds", "1",
                         cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = staticmethod(run.load_cli())

    def verdict(self, argv, check, edit=None):
        code, out, err, _ = run.call(self.cli, argv)
        if edit is not None:
            out = edit(out)
        fmt = "json" if "json" in argv else "csv"
        return checks.judge(code, out, err, fmt, check)

    def test_perturbed_qfi_fails(self):
        argv = ["qfi", "--preset", "shear-k1", "--N", "3", "--aux", "0.1", "--engine", "both"]
        check = checks.check_qfi("shear-k1", 3, 0.1, 1, 80)
        self.assertEqual(self.verdict(argv, check).status, checks.OK)

        def scale_fock(out):
            lines = out.splitlines()
            for i, line in enumerate(lines):
                cells = line.split(",")
                if cells[0] == "fock":
                    cells[1] = repr(float(cells[1]) * 1.05)
                    lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"

        bad = self.verdict(argv, check, scale_fock)
        self.assertTrue(bad.failed)
        self.assertEqual(bad.status, checks.WRONG)
        self.assertFalse(bad.explained)

    def test_perturbed_json_fig3_fails(self):
        argv = ["fig3", "--N", "1..4", "--xi", "0.07", "--dim", "80", "--format", "json"]
        check = checks.check_fig3(range(1, 5), 0.07)
        self.assertEqual(self.verdict(argv, check).status, checks.OK)

        def scale_cfi(out):
            data = json.loads(out)
            col = data["columns"].index("cfi")
            data["rows"][2][col] *= 1.05
            return json.dumps(data)

        self.assertEqual(self.verdict(argv, check, scale_cfi).status, checks.WRONG)

    def test_wrong_classification_and_tower_fail(self):
        argv = ["classify", "--g", "ad*a", "--h", "X", "--format", "json"]
        check = checks.check_classify(
            "cap_reached", matrices=lambda a, ad, X, P: (ad @ a, X))
        self.assertEqual(self.verdict(argv, check).status, checks.OK)
        wrong_kind = checks.check_classify("finite", 1)
        self.assertEqual(self.verdict(argv, wrong_kind).status, checks.WRONG)

        def bend_tower(out):
            data = json.loads(out)
            tower = data["value"]["tower"]
            tower[2] = re.sub(r"\d+\.\d+", lambda m: repr(float(m.group()) * 1.05),
                              tower[2], count=1)
            return json.dumps(data)

        self.assertEqual(self.verdict(argv, check, bend_tower).status, checks.WRONG)

    def test_nonzero_exit_and_untrusted_are_refusals(self):
        v = checks.judge(2, "", "error: boom", "csv", lambda t, c: None)
        self.assertEqual(v.status, checks.REFUSED)
        table = "engine,qfi,rmse_qcrb,trusted\nfock,18.0,0.2357022603955158,0\n"
        v = checks.judge(0, table, "", "csv", checks.check_qfi("X^2|P^2", 3, 0.0, 1, 80))
        self.assertEqual(v.status, checks.REFUSED)

    def test_formatted_polynomial_round_trip(self):
        terms = checks.parse_formatted("(0.5 - 2e-05*i)*ad^2*a + (-3.0)*a + (1.5*i)")
        self.assertEqual(terms, {(2, 1): 0.5 - 2e-05j, (0, 1): -3.0, (0, 0): 1.5j})


class Calibration(unittest.TestCase):
    def test_slowdown_is_the_median_of_nearby_kernel_samples(self):
        cal = calibration.Calibration(lambda: 0.0)
        ref = calibration.REFERENCE_S
        cal.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        cal.seconds = [ref, ref, ref, 9 * ref, ref, 2 * ref, 2 * ref, 2 * ref]
        self.assertEqual(cal.slowdown(1.5), 1.0)  # one disturbed sample is outvoted
        self.assertEqual(cal.slowdown(6.5), 2.0)
        self.assertEqual(cal.slowdown(99.0), 2.0)


class Pools(unittest.TestCase):
    def test_pools_depend_only_on_the_seed(self):
        for name, cls in WORKLOADS.items():
            a = [op.argv for r in range(3) for op in cls(5).round(r)]
            b = [op.argv for r in range(3) for op in cls(5).round(r)]
            c = [op.argv for r in range(3) for op in cls(6).round(r)]
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)

    def test_point_queries_are_distinct(self):
        pool = WORKLOADS["point-queries"](3)
        argvs = [tuple(op.argv) for r in range(40) for op in pool.round(r)]
        self.assertEqual(len(argvs), len(set(argvs)))

    def test_rounds_depend_on_r_alone_and_never_run_out(self):
        # far past the 276 two-element subsets that a fig2b cell draws from
        pool = WORKLOADS["point-queries"](3)
        late = [op.argv for op in pool.round(700)]
        self.assertEqual(late, [op.argv for op in WORKLOADS["point-queries"](3).round(700)])
        fig2b = [tuple(op.argv) for r in range(600) for op in pool.round(r)
                 if op.argv[0] == "fig2b"]
        self.assertEqual(len(fig2b), len(set(fig2b)))

    def test_known_trust_hole_input_is_in_the_pool(self):
        first = [op.argv for op in WORKLOADS["point-queries"](1).round(0)]
        self.assertIn(["qfi", "--preset", "squeeze-inf", "--N", "10", "--aux", "0.25",
                       "--lam", "0", "--step", "1e-5", "--dim", "80", "--engine", "both"],
                      first)


if __name__ == "__main__":
    unittest.main()
