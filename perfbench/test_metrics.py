"""Tests of the benchmark's own arithmetic; no build needed.

    python3 perfbench/test_metrics.py
"""

import copy
import json
import unittest
from pathlib import Path

import metrics as M

EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "expected_cells.json").read_text())


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        samples = list(range(100, 0, -1))       # 1..100, unsorted
        value, pct, n = M.tail(samples)
        self.assertEqual(value, 90)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(n, 100)

    def test_small_samples(self):
        self.assertIsNone(M.tail([5.0] * 10))
        value, pct, n = M.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)


class PaperError(unittest.TestCase):
    def cycles(self):
        return {tuple(c[:3]): c[3] for c in EXPECTED["cells"]}

    def test_reproduces_experiments_md_averages(self):
        averages = M.figure_averages(self.cycles(), EXPECTED)
        measured = {"fig9a.owf": 2.0, "fig9a.rfv": 15.0,
                    "fig9a.regmutex": 13.1, "fig9b.none": 31.9,
                    "fig9b.owf": 30.3, "fig9b.rfv": 7.2,
                    "fig9b.regmutex": 10.4, "fig12a.paired": 1.7,
                    "fig12b.paired": 16.6}
        for key, value in measured.items():
            self.assertAlmostEqual(averages[key], value, delta=0.05, msg=key)
        self.assertAlmostEqual(
            M.paper_error(averages, M.PAPER_HELD_OUT), 4.5, delta=0.05)
        self.assertAlmostEqual(
            M.paper_error(averages, M.PAPER_TUNED), 0.55, delta=0.05)

    def test_fixed_table(self):
        exact = dict(M.PAPER_HELD_OUT)
        self.assertEqual(M.paper_error(exact, M.PAPER_HELD_OUT), 0.0)
        skewed = {k: v + (2.0 if i % 2 else -1.0)
                  for i, (k, v) in enumerate(exact.items())}
        self.assertAlmostEqual(M.paper_error(skewed, M.PAPER_HELD_OUT), 1.5)


class SelfTime(unittest.TestCase):
    # [id, parent, op, cell, name, start, end]
    SPANS = [
        [1, 0, 1, -1, "pass", 0.0, 10.0],
        [2, 1, 1, 4, "cell", 1.0, 3.0],
        [3, 1, 1, 5, "cell", 2.0, 5.0],     # overlaps span 2
        [4, 1, 1, 6, "cell", 7.0, 12.0],    # runs past its parent
        [5, 3, 1, -1, "sim", 2.5, 4.0],
    ]

    def test_children_union_is_subtracted(self):
        selfs = M.self_times(self.SPANS)
        self.assertAlmostEqual(selfs[1], 10.0 - (4.0 + 3.0))
        self.assertAlmostEqual(selfs[3], 3.0 - 1.5)
        self.assertAlmostEqual(selfs[5], 1.5)

    def test_cells_are_inherited(self):
        self.assertEqual(M.span_cells(self.SPANS),
                         {1: -1, 2: 4, 3: 5, 4: 6, 5: 5})

    def test_layer_shares_sum_to_one(self):
        table = M.layer_table(self.SPANS)
        self.assertEqual(table["cell"][0], 3)
        self.assertAlmostEqual(sum(row[3] for row in table.values()), 1.0)


class SeededPlans(unittest.TestCase):
    def test_same_seed_same_plan(self):
        for workload in ["suite-sweep", "inspect-observed", "serve-closed"]:
            self.assertEqual(M.make_plan(workload, 7, EXPECTED),
                             M.make_plan(workload, 7, EXPECTED))

    def test_other_seed_reorders_the_same_cells(self):
        for workload in ["suite-sweep", "inspect-observed"]:
            a = M.make_plan(workload, 7, EXPECTED)
            b = M.make_plan(workload, 8, EXPECTED)
            self.assertEqual(a["cells"], b["cells"])
            self.assertEqual(a["warmup"], b["warmup"])
            self.assertNotEqual(a["passes"], b["passes"])
            for order in a["passes"] + b["passes"]:
                self.assertEqual(sorted(order), list(range(len(a["cells"]))))
        self.assertEqual(len(M.sweep_cells(EXPECTED)), 88)

    def test_serve_stream(self):
        a = M.make_plan("serve-closed", 7, EXPECTED)
        b = M.make_plan("serve-closed", 8, EXPECTED)
        self.assertNotEqual(a["passes"], b["passes"])
        first = M.SERVE_WINDOW * M.SERVE_CONNECTIONS
        for stream in a["passes"] + b["passes"]:
            cold = [c for c, _ in stream if c >= 0]
            self.assertEqual(sorted(cold), list(range(len(a["cells"]))))
            self.assertTrue(all(c >= 0 for c, _ in stream[:first]))
            repeats = len(stream) - len(cold)
            self.assertEqual(repeats, (len(cold) - first) // 2 + 1)


class OutputCheck(unittest.TestCase):
    def test_planted_wrong_value_fails_the_op(self):
        plan = M.make_plan("inspect-observed", 1, EXPECTED)
        cells = plan["cells"]
        outputs = M.expected_outputs(EXPECTED)
        ops = [{"kind": "bare", "id": i, "ok": True,
                "cells": [[i, *outputs[tuple(c)]]]}
               for i, c in enumerate(cells)]
        self.assertEqual(M.check_ops(copy.deepcopy(ops), cells, outputs), [])
        planted = dict(outputs)
        key = tuple(cells[3])
        planted[key] = (planted[key][0] + 1, *planted[key][1:])
        checked = copy.deepcopy(ops)
        failures = M.check_ops(checked, cells, planted)
        self.assertEqual(len(failures), 1)
        self.assertFalse(checked[3]["ok"])


if __name__ == "__main__":
    unittest.main()
