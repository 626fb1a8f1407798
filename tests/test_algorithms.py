"""Unit tests for the MAX and AVG frequency-assignment algorithms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import AvgAlgorithm, MaxAlgorithm, NoDvfsAlgorithm
from repro.core.gears import (
    DEFAULT_VOLTAGE_LAW,
    DiscreteGearSet,
    Gear,
    exponential_gear_set,
    limited_continuous_set,
    overclocked,
    uniform_gear_set,
    unlimited_continuous_set,
)
from repro.core.power import CpuPowerModel, CpuState
from repro.core.powercap import PowerCapAlgorithm
from repro.core.timemodel import BetaTimeModel
from tests.assign_oracle import matches, oracle_assign

MODEL = BetaTimeModel(fmax=2.3, beta=0.5)


class TestMax:
    def test_heaviest_rank_keeps_top_frequency(self):
        a = MaxAlgorithm().assign([1.0, 2.0, 3.0], limited_continuous_set(), MODEL)
        assert a.frequencies[2] == pytest.approx(2.3)

    def test_target_is_max_time(self):
        a = MaxAlgorithm().assign([1.0, 3.0], limited_continuous_set(), MODEL)
        assert a.target_time == 3.0

    def test_light_ranks_slowed_to_finish_together(self):
        times = [1.0, 2.0, 4.0]
        a = MaxAlgorithm().assign(times, unlimited_continuous_set(), MODEL)
        predicted = a.predicted_compute_times(times, MODEL)
        assert predicted == pytest.approx([4.0, 4.0, 4.0])

    def test_continuous_frequencies_monotone_in_load(self):
        times = np.linspace(0.5, 4.0, 16)
        a = MaxAlgorithm().assign(times, unlimited_continuous_set(), MODEL)
        assert (np.diff(a.frequencies) > -1e-12).all()

    def test_never_overclocks(self):
        a = MaxAlgorithm().assign([1.0, 5.0], unlimited_continuous_set(), MODEL)
        assert not any(a.overclocked)
        assert a.overclocked_fraction == 0.0

    def test_discrete_rounds_up(self):
        # rank needs f for ratio 4/3: f = 2.3/(2*(4/3)-1) = 1.38 -> gear 1.4
        a = MaxAlgorithm().assign([3.0, 4.0], uniform_gear_set(6), MODEL)
        assert a.frequencies[0] == pytest.approx(1.4)

    def test_discrete_rounding_finishes_no_later_than_target(self):
        times = [1.0, 1.7, 2.6, 4.0]
        a = MaxAlgorithm().assign(times, uniform_gear_set(6), MODEL)
        predicted = a.predicted_compute_times(times, MODEL)
        assert (predicted <= a.target_time + 1e-12).all()

    def test_limited_floor_clamps_very_light_ranks(self):
        # stretch 10x needs f < 0.8: the limited set clamps, unlimited not
        lim = MaxAlgorithm().assign([0.4, 4.0], limited_continuous_set(), MODEL)
        unl = MaxAlgorithm().assign([0.4, 4.0], unlimited_continuous_set(), MODEL)
        assert lim.frequencies[0] == pytest.approx(0.8)
        assert unl.frequencies[0] < 0.8

    def test_balanced_input_keeps_everyone_at_top(self):
        a = MaxAlgorithm().assign([2.0, 2.0, 2.0], uniform_gear_set(6), MODEL)
        assert list(a.frequencies) == pytest.approx([2.3] * 3)

    def test_zero_rank_gets_slowest_gear(self):
        a = MaxAlgorithm().assign([0.0, 2.0], uniform_gear_set(6), MODEL)
        assert a.frequencies[0] == pytest.approx(0.8)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            MaxAlgorithm().assign([], uniform_gear_set(6), MODEL)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            MaxAlgorithm().assign([0.0, 0.0], uniform_gear_set(6), MODEL)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            MaxAlgorithm().assign([-1.0, 2.0], uniform_gear_set(6), MODEL)


class TestAvg:
    def test_target_is_mean_when_attainable(self):
        gear_set = overclocked(limited_continuous_set(), 20.0)
        times = [1.9, 2.0, 2.1]  # mean 2.0; the 2.1 rank reaches it at ~2.54 GHz
        a = AvgAlgorithm().assign(times, gear_set, MODEL)
        assert a.target_time == pytest.approx(2.0)

    def test_heavy_ranks_overclocked(self):
        gear_set = overclocked(limited_continuous_set(), 20.0)
        a = AvgAlgorithm().assign([1.9, 2.0, 2.1], gear_set, MODEL)
        assert a.overclocked == (False, False, True)
        assert a.frequencies[2] > 2.3

    def test_all_finish_at_target(self):
        gear_set = overclocked(limited_continuous_set(), 20.0)
        times = [1.9, 2.0, 2.1]
        a = AvgAlgorithm().assign(times, gear_set, MODEL)
        predicted = a.predicted_compute_times(times, MODEL)
        assert predicted == pytest.approx([2.0, 2.0, 2.0])

    def test_target_degrades_to_attainable_floor(self):
        """Very imbalanced input: the mean is unreachable even at +10%."""
        gear_set = overclocked(limited_continuous_set(), 10.0)
        times = [0.2, 0.2, 0.2, 4.0]  # mean 1.15 << what 4.0 can reach
        a = AvgAlgorithm().assign(times, gear_set, MODEL)
        floor = MODEL.scale(4.0, 2.3 * 1.1)
        assert a.target_time == pytest.approx(floor)
        # the heavy rank runs at the ceiling
        assert a.frequencies[3] == pytest.approx(2.3 * 1.1)

    def test_discrete_extra_gear_used(self):
        gear_set = uniform_gear_set(6).with_extra_gear(Gear(2.6, 1.6))
        a = AvgAlgorithm().assign([1.9, 2.0, 2.1], gear_set, MODEL)
        assert a.frequencies[2] == pytest.approx(2.6)
        assert a.overclocked_fraction == pytest.approx(1 / 3)

    def test_execution_faster_than_max(self):
        """AVG's whole point: the critical path shrinks below max time."""
        gear_set = overclocked(limited_continuous_set(), 20.0)
        times = [1.0, 2.0, 3.0]
        a = AvgAlgorithm().assign(times, gear_set, MODEL)
        assert a.target_time < max(times)

    def test_balanced_input_noop(self):
        gear_set = overclocked(limited_continuous_set(), 10.0)
        a = AvgAlgorithm().assign([2.0, 2.0], gear_set, MODEL)
        assert list(a.frequencies) == pytest.approx([2.3, 2.3])
        assert not any(a.overclocked)

    def test_alternative_targets(self):
        gear_set = overclocked(limited_continuous_set(), 20.0)
        times = [1.9, 1.9, 1.9, 2.1]
        mean_a = AvgAlgorithm("mean").assign(times, gear_set, MODEL)
        p90_a = AvgAlgorithm("p90").assign(times, gear_set, MODEL)
        assert p90_a.target_time >= mean_a.target_time

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            AvgAlgorithm("p50")

    def test_name_reflects_target(self):
        assert AvgAlgorithm().name == "AVG"
        assert AvgAlgorithm("median").name == "AVG[median]"


class TestNoDvfs:
    def test_everyone_at_nominal_top(self):
        a = NoDvfsAlgorithm().assign([1.0, 2.0], uniform_gear_set(6), MODEL)
        assert list(a.frequencies) == pytest.approx([2.3, 2.3])
        assert not any(a.overclocked)


class TestAssignment:
    def test_nproc_property(self):
        a = MaxAlgorithm().assign([1.0, 2.0], uniform_gear_set(6), MODEL)
        assert a.nproc == 2

    def test_overclocked_fraction_counts(self):
        gear_set = uniform_gear_set(6).with_extra_gear(Gear(2.6, 1.6))
        a = AvgAlgorithm().assign([1.0, 2.0, 2.0, 2.0], gear_set, MODEL)
        assert 0.0 <= a.overclocked_fraction <= 1.0


class TestAssignmentPersistence:
    def test_dict_round_trip(self):
        a = MaxAlgorithm().assign([1.0, 2.0, 4.0], uniform_gear_set(6), MODEL)
        b = type(a).from_dict(a.to_dict())
        assert b == a

    def test_json_serialisable(self):
        import json

        a = AvgAlgorithm().assign(
            [1.9, 2.0, 2.1], overclocked(limited_continuous_set(), 20.0), MODEL
        )
        restored = type(a).from_dict(json.loads(json.dumps(a.to_dict())))
        assert restored.frequencies.tolist() == a.frequencies.tolist()
        assert restored.overclocked == a.overclocked

    def test_malformed_dict_rejected(self):
        from repro.core.algorithms import FrequencyAssignment

        with pytest.raises(ValueError, match="malformed"):
            FrequencyAssignment.from_dict({"algorithm": "MAX"})


class TestNonFiniteTimes:
    """NaN and ±inf compute times fail closed for every algorithm."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "algorithm",
        [MaxAlgorithm(), AvgAlgorithm(), PowerCapAlgorithm(1e6), NoDvfsAlgorithm()],
        ids=lambda a: a.name,
    )
    def test_rejected(self, algorithm, bad):
        with pytest.raises(ValueError, match="computation times must be finite"):
            algorithm.assign([bad, 1.0], uniform_gear_set(6), MODEL)


# ----------------------------------------------------------------------
# vectorised assign == the per-rank oracle (tests/assign_oracle.py)
# ----------------------------------------------------------------------
PM = CpuPowerModel()


def _custom_set(draw) -> DiscreteGearSet:
    freqs = draw(
        st.lists(
            st.floats(0.8, 2.3), min_size=1, max_size=9,
            unique_by=lambda f: round(f, 9),
        )
    )
    return DiscreteGearSet(
        (DEFAULT_VOLTAGE_LAW.gear(f) for f in freqs), name="custom"
    )


@st.composite
def gear_sets(draw):
    kind = draw(st.sampled_from([
        "uniform", "exponential", "custom", "uniform+2.6",
        "unlimited", "limited", "overclocked",
    ]))
    n = draw(st.integers(2, 12))
    if kind == "uniform":
        return uniform_gear_set(n)
    if kind == "exponential":
        return exponential_gear_set(n)
    if kind == "custom":
        return _custom_set(draw)
    if kind == "uniform+2.6":
        return uniform_gear_set(n).with_extra_gear(Gear(2.6, 1.6))
    if kind == "unlimited":
        return unlimited_continuous_set()
    if kind == "limited":
        return limited_continuous_set()
    # ceilings a hair above nominal sit on either side of the 1e-12
    # over-clock slack
    pct = draw(st.one_of(st.sampled_from([1e-11, 1e-9]), st.floats(0.0, 30.0)))
    return overclocked(limited_continuous_set(), pct)


@st.composite
def cases(draw):
    """(times, gear set, model): zeros, equal ranks, and ranks whose
    request lands within ±1e-12 of a gear."""
    beta = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    model = BetaTimeModel(fmax=2.3, beta=beta)
    gear_set = draw(gear_sets())
    nproc = draw(st.integers(1, 24))
    top = draw(st.floats(0.5, 10.0))
    pool = [top, 0.0, draw(st.floats(0.0, 10.0))]
    freqs = list(getattr(gear_set, "frequencies", (gear_set.fmin, gear_set.fmax)))
    times = [top]
    for _ in range(nproc - 1):
        how = draw(st.sampled_from(["pool", "free", "near-gear"]))
        if how == "pool":
            times.append(draw(st.sampled_from(pool)))
        elif how == "free":
            times.append(draw(st.floats(0.0, 10.0)))
        else:
            # the time whose request is this gear, nudged by a few ulps
            # of 1e-13 either way: rounding must honour the 1e-12 slack
            f = draw(st.sampled_from(freqs))
            nudge = draw(st.integers(-20, 20)) * 1e-13
            times.append(top / model.ratio(f) * (1.0 + nudge))
    return draw(st.permutations(times)), gear_set, model


def _feasible_cap(draw, nproc, gear_set, most=1.2):
    floor = PM.power(gear_set.select(0.0).gear, CpuState.COMPUTE)
    ceiling = PM.power(gear_set.top_gear(), CpuState.COMPUTE)
    share = draw(st.floats(0.0, most))
    return nproc * (floor + share * (ceiling - floor))


class TestAgainstPerRankOracle:
    @settings(deadline=None, max_examples=300)
    @given(case=cases(), data=st.data())
    def test_assign_equals_oracle(self, case, data):
        times, gear_set, model = case
        algorithm = data.draw(st.sampled_from([
            "max", "avg", "avg-median", "avg-p90", "no-dvfs", "cap",
        ]))
        algorithm = {
            "max": MaxAlgorithm,
            "avg": AvgAlgorithm,
            "avg-median": lambda: AvgAlgorithm("median"),
            "avg-p90": lambda: AvgAlgorithm("p90"),
            "no-dvfs": NoDvfsAlgorithm,
            "cap": lambda: PowerCapAlgorithm(
                _feasible_cap(data.draw, len(times), gear_set)
            ),
        }[algorithm]()
        try:
            want = oracle_assign(algorithm, times, gear_set, model)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                algorithm.assign(times, gear_set, model)
            return
        got = algorithm.assign(times, gear_set, model)
        assert matches(got, want), (algorithm.name, gear_set.name)

    @settings(deadline=None, max_examples=200)
    @given(case=cases(), data=st.data())
    def test_binding_caps_search_like_the_oracle(self, case, data):
        """Caps below the all-fmax peak: the water-filling search
        (threshold grid or bisection) must pick the oracle's level."""
        times, gear_set, model = case
        algorithm = PowerCapAlgorithm(
            _feasible_cap(data.draw, len(times), gear_set, most=0.9)
        )
        want = oracle_assign(algorithm, times, gear_set, model)
        assert matches(algorithm.assign(times, gear_set, model), want)

    @pytest.mark.parametrize("pct, over", [(1e-11, False), (1e-9, True)])
    def test_ceiling_at_the_overclock_slack(self, pct, over):
        """A ceiling within 1e-12 (relative) of nominal is not over-clock."""
        gear_set = overclocked(limited_continuous_set(), pct)
        times = [1.0, 2.0]
        got = AvgAlgorithm().assign(times, gear_set, MODEL)
        assert got.overclocked == (False, over)
        assert matches(got, oracle_assign(AvgAlgorithm(), times, gear_set, MODEL))

    def test_requests_at_the_rounding_slack(self):
        """A request 1e-12 above a gear still takes it; 2e-12 above
        moves up a gear — on both sides of the rule."""
        gear_set = uniform_gear_set(6)
        f = gear_set.frequencies[2]
        for nudge, want in ((0.9e-12, f), (2e-12, gear_set.frequencies[3])):
            table, index, attained = gear_set.select_many(
                np.array([f + nudge])
            )
            assert table.frequencies[index[0]] == want
            assert gear_set.select(f + nudge).gear.frequency == want
            assert attained.tolist() == [True]
