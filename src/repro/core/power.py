"""CPU power model (paper §3.2, Eq. 1–2).

Dynamic power::

    P_dyn = A * C * f * V^2          (Eq. 1)

Static power::

    P_static = alpha * V             (Eq. 2)

Conventions (exactly the paper's):

* The product ``A*C`` during *computation* is an arbitrary scale factor;
  since every result is normalized to the original (top-frequency)
  energy, we fix ``A_comp * C = 1`` and express power in "model watts".
* During *communication* (including blocked waits in MPI calls) the
  activity factor is lower: ``A_comp / A_comm = activity_ratio``
  (default 1.5, swept 1.5–3.0 in §5.3.5).
* ``alpha`` is calibrated so that static power is ``static_fraction``
  (default 20%, swept 0–90% in §5.3.4) of *total* CPU power when the CPU
  computes at the top frequency:

      alpha * V_max = sf * (f_max * V_max^2 + alpha * V_max)
      =>  alpha = sf / (1 - sf) * f_max * V_max
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.gears import (
    DEFAULT_VOLTAGE_LAW,
    Gear,
    LinearVoltageLaw,
    NOMINAL_FMAX,
)

__all__ = ["CpuPowerModel", "CpuState"]


class CpuState:
    """CPU activity states the power model distinguishes."""

    COMPUTE = "compute"
    COMM = "comm"  # communicating or blocked in an MPI call

    ALL = (COMPUTE, COMM)


@dataclass(frozen=True)
class CpuPowerModel:
    """Per-CPU power as a function of gear and activity state.

    Parameters
    ----------
    activity_ratio:
        ``A_computation / A_communication`` (paper default 1.5).
    static_fraction:
        Fraction of total CPU power that is static at full compute load
        and top frequency (paper default 0.20).
    nominal_fmax:
        The reference top frequency used for the alpha calibration.
    law:
        Voltage law used to find the calibration voltage ``V(fmax)``.
    """

    activity_ratio: float = 1.5
    static_fraction: float = 0.20
    nominal_fmax: float = NOMINAL_FMAX
    law: LinearVoltageLaw = field(default=DEFAULT_VOLTAGE_LAW)

    def __post_init__(self) -> None:
        if self.activity_ratio < 1.0:
            raise ValueError(
                f"activity ratio must be >= 1 (computation is at least as "
                f"active as communication), got {self.activity_ratio!r}"
            )
        if not (0.0 <= self.static_fraction < 1.0):
            raise ValueError(
                f"static fraction must be in [0, 1), got {self.static_fraction!r}"
            )
        if self.nominal_fmax <= 0.0:
            raise ValueError(f"nominal fmax must be positive, got {self.nominal_fmax!r}")

    # ------------------------------------------------------------------
    @cached_property
    def alpha(self) -> float:
        """Technology parameter of Eq. 2, from the calibration rule."""
        sf = self.static_fraction
        vmax = self.law.voltage(self.nominal_fmax)
        return sf / (1.0 - sf) * self.nominal_fmax * vmax

    def dynamic_power(self, gear: Gear, state: str = CpuState.COMPUTE) -> float:
        """Eq. 1 with ``A*C`` = 1 (compute) or 1/activity_ratio (comm)."""
        return self._dynamic(gear.frequency, gear.voltage, state)

    def _dynamic(self, frequency: float, voltage: float, state: str) -> float:
        activity = 1.0 if state == CpuState.COMPUTE else 1.0 / self.activity_ratio
        if state not in CpuState.ALL:
            raise ValueError(f"unknown CPU state {state!r}")
        return activity * frequency * voltage**2

    def static_power(self, gear: Gear) -> float:
        """Eq. 2."""
        return self.alpha * gear.voltage

    def power(self, gear: Gear, state: str = CpuState.COMPUTE) -> float:
        """Total CPU power at a gear in a given activity state."""
        return self.dynamic_power(gear, state) + self.static_power(gear)

    def point_powers(
        self, frequency: float, voltage: float
    ) -> tuple[float, float, float]:
        """(compute, comm, static) power at a bare operating point.

        The floats :meth:`power` and :meth:`static_power` give for
        ``Gear(frequency, voltage)``, without building the gear (gear
        tables price their entries through this).
        """
        static = self.alpha * voltage
        return (
            self._dynamic(frequency, voltage, CpuState.COMPUTE) + static,
            self._dynamic(frequency, voltage, CpuState.COMM) + static,
            static,
        )

    # ------------------------------------------------------------------
    def reference_power(self) -> float:
        """Power of a CPU computing at the nominal top gear.

        This is the calibration point: ``static_power / reference_power``
        equals ``static_fraction`` by construction.
        """
        return self.power(self.law.gear(self.nominal_fmax), CpuState.COMPUTE)

    def with_static_fraction(self, static_fraction: float) -> "CpuPowerModel":
        return CpuPowerModel(
            activity_ratio=self.activity_ratio,
            static_fraction=static_fraction,
            nominal_fmax=self.nominal_fmax,
            law=self.law,
        )

    def with_activity_ratio(self, activity_ratio: float) -> "CpuPowerModel":
        return CpuPowerModel(
            activity_ratio=activity_ratio,
            static_fraction=self.static_fraction,
            nominal_fmax=self.nominal_fmax,
            law=self.law,
        )
