"""Checks of run.py's metric-name validation and result assembly.

Run with `python3 perfbench/run.py --self-test`, or directly with
`python3 -m unittest test_run` from this directory.
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

MANIFEST = {
    "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
    "end_to_end": [
        {"name": "ingest_tps", "unit": "tuples/s", "better": "higher",
         "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "driver.flush_ms_p50", "unit": "ms", "better": "lower"},
    ],
}


class NameTest(unittest.TestCase):
    def test_names(self):
        for ok in ("ingest_tps", "driver.flush_ms_p50", "9lives-ok", "a" * 64):
            self.assertTrue(run.valid_name(ok), ok)
        for bad in ("", "_x", ".x", "has space", "slash/no", "a" * 65, None):
            self.assertFalse(run.valid_name(bad), bad)

    def test_units(self):
        for ok in ("ms", "tuples/s", "%", "1/s", "u" * 16):
            self.assertTrue(run.valid_unit(ok), ok)
        for bad in ("", "m s", "u" * 17, "µs"):
            self.assertFalse(run.valid_unit(bad), bad)


class ManifestTest(unittest.TestCase):
    def test_valid(self):
        self.assertIsNone(run.manifest_problem(MANIFEST))

    def test_repository_manifest_is_valid(self):
        with open(run.MANIFEST, encoding="utf-8") as f:
            self.assertIsNone(run.manifest_problem(json.load(f)))

    def broken(self, edit):
        m = copy.deepcopy(MANIFEST)
        edit(m)
        return run.manifest_problem(m)

    def test_duplicate_names(self):
        self.assertIn("duplicate", self.broken(
            lambda m: m["per_layer"].append(dict(m["per_layer"][0]))))
        self.assertIn("duplicate", self.broken(
            lambda m: m["per_layer"].append(
                {"name": "a", "unit": "ms", "better": "lower"})))

    def test_bad_name_and_unit(self):
        self.assertIn("bad metric name", self.broken(
            lambda m: m["per_layer"][0].update(name="no space")))
        self.assertIn("bad unit", self.broken(
            lambda m: m["per_layer"][0].update(unit="")))

    def test_bounds_and_setup(self):
        self.assertIn("bound", self.broken(
            lambda m: m["end_to_end"][0].update(bound=0.3)))
        self.assertIn("setup_s", self.broken(
            lambda m: m["end_to_end"][1].update(bound=0.1)))
        self.assertIn("setup_s", self.broken(
            lambda m: m["end_to_end"].pop()))

    def test_workload_count(self):
        self.assertIn("workloads", self.broken(
            lambda m: m["workloads"].pop()))


class ResultTest(unittest.TestCase):
    def line(self, **metrics):
        return json.dumps({"correct": True, "attempted": 3, "failed": 0,
                           "metrics": metrics})

    def test_units_added(self):
        result, problem = run.result_with_units(
            self.line(ingest_tps=5.5, setup_s=0.25), MANIFEST, 0)
        self.assertIsNone(problem)
        self.assertEqual(result["metrics"]["ingest_tps"],
                         {"value": 5.5, "unit": "tuples/s"})
        self.assertEqual(result["metrics"]["setup_s"]["unit"], "s")

    def test_names_must_match_the_mode(self):
        _, problem = run.result_with_units(
            self.line(ingest_tps=1, setup_s=1, bogus=1), MANIFEST, 0)
        self.assertIn("unexpected ['bogus']", problem)
        _, problem = run.result_with_units(self.line(ingest_tps=1),
                                           MANIFEST, 0)
        self.assertIn("missing ['setup_s']", problem)
        # The traced run reports the per-layer set instead.
        _, problem = run.result_with_units(
            self.line(ingest_tps=1, setup_s=1), MANIFEST, 1)
        self.assertIsNotNone(problem)
        _, problem = run.result_with_units(
            self.line(**{"driver.flush_ms_p50": 2}), MANIFEST, 1)
        self.assertIsNone(problem)

    def test_values_and_keys(self):
        _, problem = run.result_with_units(
            self.line(ingest_tps=None, setup_s=1), MANIFEST, 0)
        self.assertIn("not a number", problem)
        _, problem = run.result_with_units("not json", MANIFEST, 0)
        self.assertIn("not JSON", problem)
        _, problem = run.result_with_units(
            json.dumps({"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}), MANIFEST, 0)
        self.assertIn("attempted", problem)


if __name__ == "__main__":
    unittest.main()
