"""The β execution-time model (paper §3.2, Eq. 3).

The computation time of a phase run at frequency ``f`` relative to its
time at the top frequency ``fmax`` is::

    T(f) / T(fmax) = beta * (fmax / f - 1) + 1

``beta`` captures memory-boundedness: ``beta = 1`` means time scales
inversely with frequency (pure CPU-bound); ``beta = 0`` means frequency
does not matter at all (pure memory-bound).  The paper assumes
``beta = 0.5`` on average and sweeps 0.3–1.0 in §5.3.3.

Savings intuition (paper §5.3.3): the *smaller* β is (more memory
bound), the less the execution time grows at low frequency, so the same
target computation-time stretch can be met at a much lower frequency —
hence "the more an application is memory bounded, the higher savings
are possible".  Applications already clamped at the gear set's minimum
frequency (BT-MZ, IS-32) cannot exploit lower β.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "BetaTimeModel",
    "required_frequencies",
    "required_frequency",
    "scaled_time",
    "time_ratio",
]

#: Default memory-boundedness parameter (paper §3.2).
DEFAULT_BETA = 0.5


def _check_beta(beta: float) -> None:
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [0, 1], got {beta!r}")


def time_ratio(f: float, fmax: float, beta: float) -> float:
    """``T(f) / T(fmax)`` per Eq. 3.

    Valid for over-clocking too (``f > fmax`` gives a ratio < 1).
    """
    _check_beta(beta)
    if f <= 0.0:
        raise ValueError(f"frequency must be positive, got {f!r}")
    if fmax <= 0.0:
        raise ValueError(f"fmax must be positive, got {fmax!r}")
    return beta * (fmax / f - 1.0) + 1.0


def scaled_time(t_at_fmax: float, f: float, fmax: float, beta: float) -> float:
    """Execution time at frequency ``f`` of a phase measured at ``fmax``."""
    if t_at_fmax < 0.0:
        raise ValueError(f"time must be >= 0, got {t_at_fmax!r}")
    return t_at_fmax * time_ratio(f, fmax, beta)


def required_frequency(
    t_at_fmax: float, t_target: float, fmax: float, beta: float
) -> float:
    """Invert Eq. 3: the frequency at which the phase takes ``t_target``.

    Returns:

    * ``0.0`` when the phase is empty (any frequency meets the target) —
      callers should clamp to the gear set's minimum;
    * ``math.inf`` when the target is unattainable at any finite
      frequency, i.e. ``t_target/t_at_fmax <= 1 - beta`` (the
      memory-bound floor of the model) — callers should clamp to the
      gear set's maximum and flag the rank as "target missed".

    The inversion: ``r = t_target/t_at_fmax`` gives
    ``f = fmax / ((r - 1)/beta + 1)``.
    """
    _check_beta(beta)
    if t_at_fmax < 0.0 or t_target < 0.0:
        raise ValueError("times must be >= 0")
    if t_at_fmax == 0.0:
        return 0.0
    if t_target == 0.0:
        return math.inf
    ratio = t_target / t_at_fmax
    if beta == 0.0:
        # time does not depend on frequency: target met iff ratio >= 1
        return 0.0 if ratio >= 1.0 else math.inf
    denom = (ratio - 1.0) / beta + 1.0
    if denom <= 0.0:
        return math.inf
    return fmax / denom


def required_frequencies(
    t_at_fmax: Any, t_target: float, fmax: float, beta: float
) -> np.ndarray:
    """:func:`required_frequency` for every phase time at once.

    The same IEEE operations elementwise, so each entry is the float
    the scalar inversion returns for that time (``0.0`` for an empty
    phase, ``inf`` for an unattainable target).
    """
    _check_beta(beta)
    times = np.asarray(t_at_fmax, dtype=float)
    if not times.size:
        return np.empty(times.shape)
    t_min = times.min()
    if t_target < 0.0 or t_min < 0.0:
        raise ValueError("times must be >= 0")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if t_target == 0.0:
            out = np.full(times.shape, math.inf)
        elif beta == 0.0:
            out = np.where(t_target / times >= 1.0, 0.0, math.inf)
        else:
            denom = (t_target / times - 1.0) / beta + 1.0
            out = fmax / denom
            if not denom.min() > 0.0:  # also taken when a NaN is present
                out[denom <= 0.0] = math.inf
    if not t_min > 0.0:
        out[times == 0.0] = 0.0
    return out


@dataclass(frozen=True)
class BetaTimeModel:
    """Bound form of the model: fixed ``fmax`` and default ``beta``.

    Per-burst β overrides (``ComputeBurst.beta``) are honoured by passing
    an explicit ``beta`` to the methods.
    """

    fmax: float
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        if self.fmax <= 0.0:
            raise ValueError(f"fmax must be positive, got {self.fmax!r}")

    def ratio(self, f: float, beta: float | None = None) -> float:
        return time_ratio(f, self.fmax, self.beta if beta is None else beta)

    def scale(self, t_at_fmax: float, f: float, beta: float | None = None) -> float:
        return scaled_time(t_at_fmax, f, self.fmax, self.beta if beta is None else beta)

    def ratios(self, frequencies: Any) -> np.ndarray:
        """:meth:`ratio` elementwise at the default β (the same floats)."""
        f = np.asarray(frequencies, dtype=float)
        bad = f <= 0.0
        if bad.any():
            got = float(f[np.argmax(bad)])
            raise ValueError(f"frequency must be positive, got {got!r}")
        return self.beta * (self.fmax / f - 1.0) + 1.0

    def frequency_for(
        self, t_at_fmax: float, t_target: float, beta: float | None = None
    ) -> float:
        return required_frequency(
            t_at_fmax, t_target, self.fmax, self.beta if beta is None else beta
        )

    def frequencies_for(self, times: Any, t_target: float) -> np.ndarray:
        """:meth:`frequency_for` for every time at once, default β."""
        return required_frequencies(times, t_target, self.fmax, self.beta)

    def min_time_at(self, t_at_fmax: float, f_ceiling: float,
                    beta: float | None = None) -> float:
        """Shortest attainable time given a frequency ceiling (AVG needs this)."""
        return self.scale(t_at_fmax, f_ceiling, beta)
