"""Unit tests for compare.py on synthetic result sets.

    python3 -B -m unittest test_compare      (from benchmark/)
"""
import contextlib
import io
import json
import os
import tempfile
import unittest

import compare

SPEC = {
    "workloads": [{"name": "w", "why": "synthetic"}],
    "end_to_end": [
        {"name": "host_items_per_s", "unit": "items/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "quality", "unit": "fraction", "better": "higher", "bound": 0.06},
    ],
}


def record(items, setup=1.0, chunks=None, quality=0.9, seed=42):
    """One workload result as vfbench writes it (only the fields compare reads)."""
    return {"workload": "w", "seed": seed, "metrics": {
        "host_items_per_s": {"value": items, "unit": "items/s", "clock": "host",
                             "chunks": chunks if chunks is not None else [items] * 5},
        "setup_s": {"value": setup, "unit": "s", "clock": "host", "chunks": [setup] * 5},
        "quality": {"value": quality, "unit": "fraction", "clock": "virtual"}}}


def write_runs(root, name, recs):
    """A side: one result dir for one record, else one subdir per run."""
    side = os.path.join(root, name)
    dirs = [side] if len(recs) == 1 else [os.path.join(side, "run%02d" % i)
                                          for i in range(len(recs))]
    for d, rec in zip(dirs, recs):
        os.makedirs(d)
        with open(os.path.join(d, "w.json"), "w") as f:
            json.dump(rec, f)
    return side


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.spec = os.path.join(self.tmp.name, "BENCHMARK.json")
        with open(self.spec, "w") as f:
            json.dump(SPEC, f)

    def tearDown(self):
        self.tmp.cleanup()

    def run_compare(self, a_recs, b_recs, pairs=False):
        root = tempfile.mkdtemp(dir=self.tmp.name)
        a = write_runs(root, "a", a_recs)
        b = write_runs(root, "b", b_recs)
        rows = compare.compare(SPEC, compare.load_runs(a), compare.load_runs(b), pairs)
        with contextlib.redirect_stdout(io.StringIO()):
            status = compare.main([a, b, "--spec", self.spec] + (["--pairs"] if pairs else []))
        return {r["metric"]: r["verdict"] for r in rows}, status

    def test_regression_past_the_bound_fails(self):
        verdicts, status = self.run_compare([record(100.0)], [record(85.0)])
        self.assertEqual(verdicts["host_items_per_s"], "worse")
        self.assertEqual(status, 1)

    def test_move_inside_the_bound_passes(self):
        verdicts, status = self.run_compare([record(100.0, setup=1.0)],
                                            [record(95.0, setup=1.2)])
        self.assertEqual(verdicts["host_items_per_s"], "unchanged")
        self.assertEqual(verdicts["setup_s"], "unchanged")
        self.assertEqual(status, 0)

    def test_lower_is_better_direction(self):
        verdicts, _ = self.run_compare([record(100.0, setup=1.0)], [record(100.0, setup=1.3)])
        self.assertEqual(verdicts["setup_s"], "worse")
        verdicts, _ = self.run_compare([record(100.0, setup=1.0)], [record(100.0, setup=0.7)])
        self.assertEqual(verdicts["setup_s"], "better")

    def test_wide_single_run_spread_is_unresolved(self):
        wide = record(100.0, chunks=[60.0, 80.0, 100.0, 120.0, 140.0])
        verdicts, status = self.run_compare([wide], [record(85.0)])
        self.assertEqual(verdicts["host_items_per_s"], "unresolved")
        self.assertEqual(status, 0)

    def test_wide_run_to_run_spread_is_unresolved(self):
        a = [record(v) for v in (70.0, 90.0, 100.0, 110.0, 130.0)]
        verdicts, _ = self.run_compare(a, [record(v) for v in (80.0, 85.0, 90.0)])
        self.assertEqual(verdicts["host_items_per_s"], "unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        a = [record(v) for v in (70.0, 90.0, 100.0, 110.0, 130.0)]
        verdicts, _ = self.run_compare(a, [record(v) for v in (150.0, 160.0, 170.0)])
        self.assertEqual(verdicts["host_items_per_s"], "better")

    def test_pairs_nine_of_ten_wins_and_gap_beyond_spread(self):
        a = [record(100.0 + i % 3) for i in range(10)]
        b = [record(110.0 + i % 3) for i in range(10)]
        verdicts, _ = self.run_compare(a, b, pairs=True)
        self.assertEqual(verdicts["host_items_per_s"], "better")

    def test_pairs_eight_of_ten_wins_is_no_gain(self):
        a = [record(100.0 + i % 3) for i in range(10)]
        b = [record(110.0 if i < 8 else 99.0) for i in range(10)]
        verdicts, _ = self.run_compare(a, b, pairs=True)
        self.assertEqual(verdicts["host_items_per_s"], "unchanged")

    def test_virtual_metric_same_seed_any_drop_is_worse(self):
        verdicts, status = self.run_compare([record(100.0, quality=0.9)],
                                            [record(100.0, quality=0.899)])
        self.assertEqual(verdicts["quality"], "worse")
        self.assertEqual(status, 1)

    def test_virtual_metric_same_seed_identical_is_unchanged(self):
        a = [record(100.0, quality=0.9 + s / 100, seed=s) for s in range(3)]
        b = [record(100.0, quality=0.9 + s / 100, seed=s) for s in reversed(range(3))]
        verdicts, status = self.run_compare(a, b)
        self.assertEqual(verdicts["quality"], "unchanged")
        self.assertEqual(status, 0)

    def test_virtual_metric_worse_on_one_seed_is_worse(self):
        a = [record(100.0, quality=0.9, seed=s) for s in range(3)]
        b = [record(100.0, quality=q, seed=s) for s, q in enumerate((0.95, 0.95, 0.89))]
        verdicts, _ = self.run_compare(a, b)
        self.assertEqual(verdicts["quality"], "worse")

    def test_virtual_metric_other_seeds_uses_the_bound(self):
        verdicts, status = self.run_compare([record(100.0, quality=0.9, seed=1)],
                                            [record(100.0, quality=0.89, seed=2)])
        self.assertEqual(verdicts["quality"], "unchanged")
        self.assertEqual(status, 0)

    def test_pairs_need_ten_runs(self):
        with self.assertRaises(ValueError):
            self.run_compare([record(100.0)] * 5, [record(110.0)] * 5, pairs=True)


if __name__ == "__main__":
    unittest.main()
