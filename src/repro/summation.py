"""The pinned float summation: strictly left to right.

Per-rank compute seconds and modeled peak powers are sums of floats
that end up in reports and cache-keyed results, so their bits must not
depend on the interpreter.  Builtin ``sum()`` stopped being a plain
left-to-right fold in Python 3.12, which compensates float sums
(Neumaier): ``sum([1e16, 1.0, -1e16])`` is ``1.0`` there and ``0.0``
on 3.11.  ``numpy.sum`` is pairwise and ``math.fsum`` is exact; both
give other bits as well.  :func:`left_to_right_sum` is the one fold
the reproduction uses wherever it claims that convention.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["left_to_right_sum"]


def left_to_right_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...`` on every Python version.

    Bit-identical to builtin ``sum()`` over floats before Python 3.12;
    an empty iterable sums to ``0.0``.
    """
    total = 0.0
    for value in values:
        total += value
    return total
