"""Tests for the percentile helper.

Run with ``python3 -m pytest perfbench/test_stats.py`` or
``python3 perfbench/test_stats.py``.
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import MIN_BEYOND, summarize, tail_name  # noqa: E402


def beyond(values, threshold):
    return sum(1 for v in values if v > threshold)


class SummarizeTest(unittest.TestCase):
    def test_nine_samples_have_no_tail(self):
        values = [float(i) for i in range(1, 10)]
        out = summarize(values)
        self.assertEqual(out["n"], 9)
        self.assertEqual(out["p50"], 5.0)
        self.assertIsNone(out["tail"])

    def test_twenty_samples_have_no_tail(self):
        # p90 of 20 is the 18th value: only 2 samples lie beyond it.
        out = summarize([float(i) for i in range(20, 0, -1)])
        self.assertEqual(out["p50"], 10.5)
        self.assertIsNone(out["tail"])

    def test_hundred_samples_give_p90(self):
        values = [float(i) for i in range(1, 101)]
        out = summarize(values)
        self.assertEqual(out["tail"], (900, 90.0))
        self.assertEqual(beyond(values, out["tail"][1]), MIN_BEYOND)

    def test_hundred_fifty_samples_stay_at_p90(self):
        # p95 would be the 143rd value with only 7 samples beyond it.
        values = [float(i) for i in range(1, 151)]
        out = summarize(values)
        self.assertEqual(out["p50"], 75.5)
        self.assertEqual(out["tail"], (900, 135.0))
        self.assertGreaterEqual(beyond(values, out["tail"][1]), MIN_BEYOND)

    def test_highest_supported_tail_wins(self):
        out = summarize([float(i) for i in range(1, 1001)])
        self.assertEqual(out["tail"], (990, 990.0))

    def test_empty_input_is_rejected(self):
        with self.assertRaises(ValueError):
            summarize([])

    def test_tail_names(self):
        self.assertEqual(tail_name(900), "p90")
        self.assertEqual(tail_name(999), "p99.9")


if __name__ == "__main__":
    unittest.main()
