"""Reference time and the stop rule of a measured run.

    python3 -m pytest bench/test_calibrate.py
"""

import os
import statistics
import sys
from array import array

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402
import run  # noqa: E402

run.import_folc()
import workloads as W  # noqa: E402


def test_each_op_is_scaled_by_the_slices_around_it():
    res = run.Results()
    for i in range(12):
        res.add("g%d" % (i % 2), 1.0)
    res.slices = array("d", [2e-4, 5e-4, 4e-4, 1e-3, 3e-4])
    res.slice_at = array("l", [0, 2, 5, 9, 12])  # the last slice follows every op
    ref = res.ref_latencies()
    for s, (start, end) in enumerate([(0, 2), (2, 5), (5, 9), (9, 12)]):
        around = res.slices[max(0, s + 1 - calibrate.WINDOW) : s + 1 + calibrate.WINDOW]
        expected = calibrate.NOMINAL_SLICE_S / statistics.median(around)
        assert list(ref[start:end]) == pytest.approx([expected] * (end - start))
    assert sorted(res.by_group(ref)) == ["g0", "g1"]


def test_a_measured_run_stops_after_whole_rounds():
    ops = [W.Op(f"op/{i}", "g", lambda: None, lambda out: None, lambda out: True) for i in range(10)]
    res = run.run_ops(ops, seconds=0.0, stride=4)
    assert res.count == 4
    assert res.slice_at[0] == 0 and len(res.slices) >= 1
