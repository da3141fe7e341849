"""Tests for append-only growth into bounded spare capacity."""

import numpy as np
import pytest

from repro.utils.growth import append_rows


@pytest.mark.parametrize("axis", (0, -1))
def test_append_rows_equals_concatenate_and_reuses_its_buffer(axis):
    rng = np.random.default_rng(0)
    grown, spare = rng.normal(size=(16, 3, 16)), None
    expected = grown.copy()
    buffers = set()
    for _ in range(12):
        rows = rng.normal(size=(16, 3, 2) if axis else (2, 3, 16))
        expected = np.concatenate([expected, rows], axis=axis)
        grown, spare = append_rows(grown, spare, rows, axis=axis)
        buffers.add(id(spare))
        assert grown.tobytes() == np.ascontiguousarray(expected).tobytes()
        assert grown.shape[axis] <= spare.shape[axis] <= grown.shape[axis] + grown.shape[axis] // 8
    assert len(buffers) < 12  # most appends landed in spare capacity


def test_append_rows_keeps_earlier_views_valid():
    grown, spare = append_rows(np.arange(8.0), None, np.array([8.0]))
    earlier = grown
    grown, spare = append_rows(grown, spare, np.array([9.0]))
    assert spare is earlier.base
    np.testing.assert_array_equal(earlier, np.arange(9.0))
    np.testing.assert_array_equal(grown, np.arange(10.0))


def test_append_rows_never_writes_behind_a_foreign_or_stale_view():
    caller = np.arange(10.0)
    grown, spare = append_rows(caller[:4], None, np.array([-1.0]))
    np.testing.assert_array_equal(caller, np.arange(10.0))  # a view of the caller's array
    replaced = np.zeros(5)  # e.g. a refit replaced the grown array since
    regrown, fresh = append_rows(replaced, spare, np.array([7.0]))
    assert fresh is not spare
    np.testing.assert_array_equal(regrown, [0, 0, 0, 0, 0, 7.0])
    np.testing.assert_array_equal(grown, [0, 1, 2, 3, -1.0])


def test_append_rows_promotes_the_dtype_like_concatenate():
    grown, spare = append_rows(np.array(["ab", "cd"]), None, np.array(["e"]))
    grown, spare = append_rows(grown, spare, np.array(["longer"]))
    assert grown.tolist() == ["ab", "cd", "e", "longer"]
    assert grown.dtype == np.concatenate([np.array(["ab"]), np.array(["longer"])]).dtype
