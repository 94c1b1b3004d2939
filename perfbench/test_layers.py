"""Tests for the layer hooks of the traced run.

Run with ``python3 -m pytest perfbench/test_layers.py`` from the root of
a checkout (``src`` must be importable, e.g. ``PYTHONPATH=src``).
"""

from __future__ import annotations

import os
import sys
import time
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


class LayerClockTest(unittest.TestCase):
    def test_missing_targets_are_unmeasured(self):
        clock = layers.LayerClock()
        clock.install([
            ("gone.module", "repro.no_such_module", "f"),
            ("gone.function", "repro.ilp.simplex", "no_such_function"),
            ("gone.method", "repro.ilp.model", "Model.no_such_method"),
        ])
        self.assertEqual(clock.unmeasured,
                         ["gone.function", "gone.method", "gone.module"])

    def test_nested_self_times_add_up(self):
        clock = layers.LayerClock()
        inner = clock.wrap("inner", lambda: time.sleep(0.02))

        def outer_body():
            time.sleep(0.02)
            inner()

        outer = clock.wrap("outer", outer_body)
        start = time.perf_counter()
        outer()
        wall = time.perf_counter() - start
        snap = clock.snapshot()
        self.assertEqual(snap["calls"], {"outer": 1, "inner": 1})
        self.assertGreaterEqual(snap["self_s"]["inner"], 0.02)
        self.assertGreaterEqual(snap["self_s"]["outer"], 0.02)
        self.assertAlmostEqual(snap["self_s"]["outer"] + snap["self_s"]["inner"],
                               snap["top_s"], places=9)
        self.assertLessEqual(snap["top_s"], wall)

    def test_by_name_imports_are_rebound(self):
        from repro.ilp import branch_and_bound, simplex

        original = simplex.solve_lp
        clock = layers.LayerClock()
        try:
            clock.install([("ilp.simplex", "repro.ilp.simplex", "solve_lp")])
            self.assertIs(branch_and_bound.solve_lp, simplex.solve_lp)
            self.assertIs(simplex.solve_lp.__wrapped__, original)
        finally:
            for mod in list(sys.modules.values()):
                if isinstance(mod, types.ModuleType) and \
                        getattr(mod, "solve_lp", None) is simplex.solve_lp:
                    mod.solve_lp = original


if __name__ == "__main__":
    unittest.main()
