"""The pinned float summation: strictly left to right on every Python.

Builtin ``sum()`` compensates float sums from Python 3.12 on, so the
reports' per-rank compute seconds and modeled peaks fold through
:func:`repro.summation.left_to_right_sum` instead.
"""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.summation import left_to_right_sum

floats = st.lists(st.floats(allow_nan=False))


def test_cancellation_is_not_compensated():
    # Python 3.12's builtin sum() returns 1.0 here, 3.11's returns 0.0
    assert left_to_right_sum([1e16, 1.0, -1e16]) == 0.0


def test_empty_sum_is_float_zero():
    total = left_to_right_sum([])
    assert type(total) is float and total == 0.0


@given(floats)
def test_folds_left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    assert left_to_right_sum(iter(values)).hex() == total.hex()


@pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="builtin sum() compensates from 3.12"
)
@given(floats)
def test_same_bits_as_builtin_sum_before_3_12(values):
    assert left_to_right_sum(values).hex() == float(sum(values)).hex()
