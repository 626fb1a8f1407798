"""Assignment and power-cap rule packs (codes ``AS...`` / ``PC...``).

The AS rules statically verify frequency-assignment vectors (the
``repro balance --save-assignment`` artifact, or a sweep candidate grid)
against a gear set and the app world *before* any replay is priced:

=====  ========  ========================================================
code   severity  finding
=====  ========  ========================================================
AS001  ERROR     assigned frequency is not a gear of the set
AS002  ERROR     assignment length disagrees with the app world size
AS003  ERROR     assigned voltage off the set's frequency->voltage law
AS004  WARNING   more-loaded ranks assigned slower gears (non-monotone)
AS005  ERROR     beta override outside [0, 1]
AS006  WARNING   duplicate sweep-grid candidates (wasted pricing)
=====  ========  ========================================================

The PC rules are the power-cap feasibility pre-checks the ROADMAP's
``PowerCapBalancer`` objective calls for: a cap is screened against the
power model's floor and ceiling (all powers in the paper's normalised
"model watts") so an infeasible budget is rejected at admission instead
of surfacing as a silent all-fmin assignment after a full sweep:

=====  ========  ========================================================
code   severity  finding
=====  ========  ========================================================
PC001  ERROR     cap below the idle (static) floor of the world
PC002  ERROR     cap unreachable even with every rank at fmin
PC003  WARNING   per-rank budget underflow once one rank runs at fmax
PC004  INFO      cap above the all-fmax peak (never binds)
=====  ========  ========================================================

Contexts carry raw ``(frequency, voltage)`` pairs rather than
:class:`~repro.core.gears.Gear` objects so malformed artifacts (negative
frequencies, absurd voltages) are reported as findings instead of
crashing validation in the constructor.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.gears import DiscreteGearSet, Gear, GearSet
from repro.core.power import CpuPowerModel, CpuState
from repro.diagnostics.model import Diagnostic, Severity
from repro.diagnostics.registry import Maker, rule

__all__ = ["AssignmentContext", "PowerCapContext"]

#: Matching tolerance for "is this frequency one of the set's gears".
_F_TOL = 1e-9
#: Tolerance for voltage agreement with the set's law.
_V_TOL = 1e-6


@dataclass(frozen=True)
class AssignmentContext:
    """What the AS rules see.  Every field except ``gear_set`` is
    optional: a rule whose inputs are absent finds nothing (e.g. AS002
    needs ``nproc``, AS004 needs ``compute_times``, AS006 needs
    ``grid``)."""

    gear_set: GearSet
    #: Per-rank (frequency GHz, voltage V) pairs; None = no vector.
    pairs: tuple[tuple[float, float], ...] | None = None
    #: Expected world size (e.g. from the app name), if known.
    nproc: int | None = None
    #: Per-rank compute times the assignment was derived from.
    compute_times: tuple[float, ...] | None = None
    #: Scalar or per-rank beta override(s); None = model default.
    beta: float | tuple[float, ...] | None = None
    #: Sweep candidate grid: one dict per candidate (gears/algorithm).
    grid: tuple[dict[str, Any], ...] | None = None
    subject: str = ""

    @classmethod
    def from_assignment(
        cls,
        assignment: Any,
        gear_set: GearSet,
        *,
        nproc: int | None = None,
        compute_times: Sequence[float] | None = None,
        subject: str = "",
    ) -> "AssignmentContext":
        """Context for a :class:`FrequencyAssignment` or its dict form."""
        if isinstance(assignment, dict):
            raw = assignment.get("gears", ())
            pairs = tuple((float(f), float(v)) for f, v in raw)
        else:
            pairs = tuple(
                zip(
                    assignment.frequencies.tolist(),
                    assignment.voltages.tolist(),
                    strict=True,
                )
            )
        return cls(
            gear_set=gear_set,
            pairs=pairs,
            nproc=nproc,
            compute_times=(
                None if compute_times is None else tuple(compute_times)
            ),
            subject=subject,
        )


def _offered_frequency(gear_set: GearSet, f: float) -> bool:
    """Is ``f`` a frequency this set can actually run?"""
    if not math.isfinite(f) or f <= 0.0:
        return False
    if isinstance(gear_set, DiscreteGearSet):
        return any(
            abs(f - offered) <= _F_TOL for offered in gear_set.frequencies
        )
    return gear_set.fmin - _F_TOL <= f <= gear_set.fmax + _F_TOL


def _grouped(
    hits: list[tuple[int, float]]
) -> list[tuple[float, int, int]]:
    """Group (rank, value) hits into (value, count, first rank)."""
    groups: dict[float, tuple[int, int]] = {}
    for rank, value in hits:
        count, first = groups.get(value, (0, rank))
        groups[value] = (count + 1, first)
    return [(value, n, first) for value, (n, first) in sorted(groups.items())]


@rule(
    "AS001",
    severity=Severity.ERROR,
    domain="assignment",
    summary="assigned frequency is not a gear of the set",
    fix="re-run the balancer against this gear set, or fix the set spec",
)
def _as001(ctx: AssignmentContext, make: Maker) -> Iterator[Diagnostic]:
    if ctx.pairs is None:
        return
    hits = [
        (rank, f)
        for rank, (f, _v) in enumerate(ctx.pairs)
        if not _offered_frequency(ctx.gear_set, f)
    ]
    for f, n, first in _grouped(hits):
        yield make(
            f"frequency {f:g} GHz is not a gear of {ctx.gear_set.name} "
            f"({n} rank(s), first at rank {first})",
            subject=ctx.subject,
            rank=first,
        )


@rule(
    "AS002",
    severity=Severity.ERROR,
    domain="assignment",
    summary="assignment length disagrees with the app world size",
    fix="regenerate the assignment for this world size",
)
def _as002(ctx: AssignmentContext, make: Maker) -> Iterator[Diagnostic]:
    if ctx.pairs is None or ctx.nproc is None:
        return
    if len(ctx.pairs) != ctx.nproc:
        yield make(
            f"assignment has {len(ctx.pairs)} gear(s) but the app world "
            f"has {ctx.nproc} rank(s)",
            subject=ctx.subject,
        )


@rule(
    "AS003",
    severity=Severity.ERROR,
    domain="assignment",
    summary="assigned voltage off the set's frequency->voltage law",
    fix="derive voltages through the gear set instead of hand-editing",
)
def _as003(ctx: AssignmentContext, make: Maker) -> Iterator[Diagnostic]:
    if ctx.pairs is None:
        return
    hits: list[tuple[int, float]] = []
    expected_by_f: dict[float, float] = {}
    for rank, (f, v) in enumerate(ctx.pairs):
        if not _offered_frequency(ctx.gear_set, f):
            continue  # AS001 already owns this rank
        expected = ctx.gear_set.select(max(f, 0.0)).gear.voltage
        if abs(v - expected) > _V_TOL:
            hits.append((rank, f))
            expected_by_f.setdefault(f, expected)
    for f, n, first in _grouped(hits):
        v = ctx.pairs[first][1]
        yield make(
            f"voltage {v:g} V at {f:g} GHz deviates from the set's "
            f"{expected_by_f[f]:g} V ({n} rank(s), first at rank {first})",
            subject=ctx.subject,
            rank=first,
        )


@rule(
    "AS004",
    severity=Severity.WARNING,
    domain="assignment",
    summary="more-loaded ranks assigned slower gears (non-monotone)",
    fix="heavier compute should never get a slower gear; check the "
        "balancer inputs",
)
def _as004(ctx: AssignmentContext, make: Maker) -> Iterator[Diagnostic]:
    if ctx.pairs is None or ctx.compute_times is None:
        return
    if len(ctx.pairs) != len(ctx.compute_times):
        return  # AS002 territory; a pairwise scan would be meaningless
    # sorted by load: a slowdown relative to any lighter rank is a
    # monotonicity violation (the heavy rank paces the iteration)
    order = sorted(
        range(len(ctx.pairs)), key=lambda r: (ctx.compute_times[r], r)
    )
    best_rank = order[0]
    best_f = ctx.pairs[best_rank][0]
    violations = 0
    example: tuple[int, int] | None = None
    for r in order[1:]:
        f = ctx.pairs[r][0]
        if (
            f < best_f - _F_TOL
            and ctx.compute_times[r] > ctx.compute_times[best_rank]
        ):
            violations += 1
            if example is None:
                example = (r, best_rank)
        elif f > best_f:
            best_f, best_rank = f, r
    if violations:
        r, j = example  # type: ignore[misc]
        yield make(
            f"{violations} rank(s) run slower gears than less-loaded "
            f"ranks (first: rank {r} at {ctx.pairs[r][0]:g} GHz has more "
            f"compute than rank {j} at {ctx.pairs[j][0]:g} GHz)",
            subject=ctx.subject,
            rank=r,
        )


@rule(
    "AS005",
    severity=Severity.ERROR,
    domain="assignment",
    summary="beta override outside [0, 1]",
    fix="beta is the memory-bound fraction; it must lie in [0, 1]",
)
def _as005(ctx: AssignmentContext, make: Maker) -> Iterator[Diagnostic]:
    if ctx.beta is None:
        return
    values: Sequence[tuple[int | None, float]]
    if isinstance(ctx.beta, (int, float)):
        values = [(None, float(ctx.beta))]
    else:
        values = [(rank, float(b)) for rank, b in enumerate(ctx.beta)]
    for rank, b in values:
        if math.isnan(b) or not 0.0 <= b <= 1.0:
            yield make(
                f"beta override {b!r} outside [0, 1]",
                subject=ctx.subject,
                rank=rank,
            )


def _grid_key(candidate: dict[str, Any]) -> str:
    """Canonical identity of one sweep cell (gears + algorithm)."""
    return json.dumps(
        {
            "algorithm": candidate.get("algorithm"),
            "gears": candidate.get("gears"),
        },
        sort_keys=True,
    )


@rule(
    "AS006",
    severity=Severity.WARNING,
    domain="assignment",
    summary="duplicate sweep-grid candidates (wasted pricing)",
    fix="deduplicate the candidate grid before submitting",
)
def _as006(ctx: AssignmentContext, make: Maker) -> Iterator[Diagnostic]:
    if ctx.grid is None:
        return
    seen: dict[str, int] = {}
    for j, candidate in enumerate(ctx.grid):
        key = _grid_key(candidate)
        if key in seen:
            yield make(
                f"candidate #{j} duplicates candidate #{seen[key]} "
                "(identical gears and algorithm)",
                subject=ctx.subject,
                index=j,
            )
        else:
            seen[key] = j


# ----------------------------------------------------------------------
# Power-cap feasibility (PCxxx)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PowerCapContext:
    """What the PC rules see: a cap, a world size, a gear set, a model.

    All powers are in the paper's normalised "model watts" — the same
    unit :class:`~repro.core.power.CpuPowerModel` prices replays in, so
    a cap screened here is directly comparable to report energies.
    """

    cap: float
    nproc: int
    gear_set: GearSet
    power_model: CpuPowerModel = field(default_factory=CpuPowerModel)
    subject: str = ""

    @property
    def floor_gear(self) -> Gear:
        """The slowest gear the set can run."""
        return self.gear_set.select(0.0).gear

    @property
    def top(self) -> Gear:
        return self.gear_set.top_gear()


@rule(
    "PC001",
    severity=Severity.ERROR,
    domain="powercap",
    summary="cap below the idle (static) floor of the world",
    fix="raise the cap above nproc x static power, or shrink the world",
)
def _pc001(ctx: PowerCapContext, make: Maker) -> Iterator[Diagnostic]:
    floor = ctx.nproc * ctx.power_model.static_power(ctx.floor_gear)
    if ctx.cap < floor:
        yield make(
            f"power cap {ctx.cap:g} model-W is below the idle floor "
            f"{floor:g} model-W ({ctx.nproc} rank(s) of static power at "
            f"{ctx.floor_gear.frequency:g} GHz); no assignment can meet it",
            subject=ctx.subject,
        )


@rule(
    "PC002",
    severity=Severity.ERROR,
    domain="powercap",
    summary="cap unreachable even with every rank at fmin",
    fix="raise the cap above the all-fmin compute power of the world",
)
def _pc002(ctx: PowerCapContext, make: Maker) -> Iterator[Diagnostic]:
    floor = ctx.nproc * ctx.power_model.static_power(ctx.floor_gear)
    need = ctx.nproc * ctx.power_model.power(
        ctx.floor_gear, CpuState.COMPUTE
    )
    if floor <= ctx.cap < need:
        yield make(
            f"power cap {ctx.cap:g} model-W cannot be met while "
            f"computing: {ctx.nproc} rank(s) at the slowest gear "
            f"({ctx.floor_gear.frequency:g} GHz) already draw "
            f"{need:g} model-W",
            subject=ctx.subject,
        )


@rule(
    "PC003",
    severity=Severity.WARNING,
    domain="powercap",
    summary="per-rank budget underflow once one rank runs at fmax",
    fix="the cap forbids any rank from reaching fmax; expect a "
        "compressed gear range",
)
def _pc003(ctx: PowerCapContext, make: Maker) -> Iterator[Diagnostic]:
    if ctx.nproc < 2:
        return
    need = ctx.power_model.power(ctx.floor_gear, CpuState.COMPUTE)
    if ctx.cap < ctx.nproc * need:
        return  # PC001/PC002 territory: infeasible outright
    peak_one = ctx.power_model.power(ctx.top, CpuState.COMPUTE)
    remaining = (ctx.cap - peak_one) / (ctx.nproc - 1)
    if remaining < need:
        yield make(
            f"cap {ctx.cap:g} model-W leaves {remaining:g} model-W per "
            f"remaining rank once one rank computes at "
            f"{ctx.top.frequency:g} GHz — below the {need:g} model-W "
            "all-fmin floor; the critical path cannot get full headroom",
            subject=ctx.subject,
        )


@rule(
    "PC004",
    severity=Severity.INFO,
    domain="powercap",
    summary="cap above the all-fmax peak (never binds)",
    fix="drop the cap or tighten it; capping above peak is a no-op",
)
def _pc004(ctx: PowerCapContext, make: Maker) -> Iterator[Diagnostic]:
    peak = ctx.nproc * ctx.power_model.power(ctx.top, CpuState.COMPUTE)
    if ctx.cap >= peak:
        yield make(
            f"power cap {ctx.cap:g} model-W never binds: {ctx.nproc} "
            f"rank(s) computing at {ctx.top.frequency:g} GHz draw only "
            f"{peak:g} model-W",
            subject=ctx.subject,
        )
