#!/usr/bin/env python3
"""Determinism self-test of the benchmark binary.

For every workload: one seed gives bit-identical simulated-time results
across repetitions, across processes and with tracing on or off, and a
different seed gives a different arrival stream. Builds the binary the
same way run.py does. Run from the repository root:

    python3 perfbench/test_determinism.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 11


def simulated(reps):
    return [r["sim"] for r in reps]


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("onfiber_perfbench build failed")

    def check_workload(self, workload):
        first, _ = run.drive(workload, SEED, 0, traced=False, min_reps=2)
        second, _ = run.drive(workload, SEED, 0, traced=False, min_reps=1)
        traced, _ = run.drive(workload, SEED, 0, traced=True, min_reps=1)
        other, _ = run.drive(workload, SEED + 1, 0, traced=False, min_reps=1)
        for reps in (first, second, traced, other):
            for r in reps:
                self.assertEqual(r["violations"], [])

        reference = first[0]["sim"]
        self.assertEqual(simulated(first), [reference] * len(first),
                         "repetitions of one process differ")
        self.assertEqual(second[0]["sim"], reference,
                         "two processes with one seed differ")
        self.assertEqual(traced[0]["sim"], reference,
                         "tracing changed the simulated results")
        self.assertTrue(traced[0]["obs"], "traced run read no obs counters")

        changed = other[0]["sim"]
        self.assertNotEqual(
            (changed["offered"], changed["latency_p50_s"],
             changed["latency_p99_s"]),
            (reference["offered"], reference["latency_p50_s"],
             reference["latency_p99_s"]),
            "another seed left the arrival stream unchanged")

    def test_fig1_infer(self):
        self.check_workload("fig1_infer")

    def test_ids_overload(self):
        self.check_workload("ids_overload")

    def test_flap_recover(self):
        self.check_workload("flap_recover")


if __name__ == "__main__":
    unittest.main()
