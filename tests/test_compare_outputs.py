"""compare_outputs.compare, the per-run gate of tests/compare_outputs.py, on synthetic runs."""

import numpy as np

from compare_outputs import TOL, compare

HEADER = ["# run", "t,value"]


def _run(values, status=0, header=HEADER):
    return status, "", header, np.asarray(values, dtype=float)


def test_identical_runs_pass_with_zero_differences():
    values = [[0.0, 1.0], [0.5, -2.0]]
    assert compare(_run(values), _run(values)) == (0.0, 0.0, False)


def test_relative_column_is_the_gates_own_measure():
    # a roundoff change on a near-zero value reads as roundoff, not as half the value
    gap, rel, fails = compare(_run([[8.9e-16]]), _run([[4.5e-16]]))
    assert gap == rel < 1e-15 and not fails  # |gap| / |parent| reads 0.5 here
    # above 1 the measure is relative: 2.7e-12 on a value near 5e3
    gap, rel, fails = compare(_run([[5e3]]), _run([[5e3 + 2.7e-12]]))
    assert 2e-12 < gap < 4e-12 and rel == gap / 5e3 and not fails


def test_a_difference_above_the_tolerance_fails():
    gap, rel, fails = compare(_run([[1.0, 1e4]]), _run([[1.0 + 10 * TOL, 1e4]]))
    assert fails and rel == gap
    assert compare(_run([[1e4]]), _run([[1e4 + 1e-9]]))[2] is False  # 1e-13 relative
    assert compare(_run([[1.0]]), _run([[np.nan]]))[2] is True


def test_status_header_or_shape_mismatch_fails():
    values = [[0.0, 1.0]]
    assert compare(_run(values), _run(values, status=2))[2] is True
    assert compare(_run(values), _run(values, header=["# run", "t,other"]))[2] is True
    assert compare(_run(values), _run(values + values))[2] is True
