"""Unit tests for the experiment Runner's caching semantics."""

import pytest

from repro.core.algorithms import AvgAlgorithm
from repro.core.gears import uniform_gear_set
from repro.core.power import CpuPowerModel
from repro.experiments.runner import Runner, RunnerConfig


@pytest.fixture()
def runner():
    return Runner(RunnerConfig(iterations=2))


class TestTraceCache:
    def test_same_app_returns_same_object(self, runner):
        t1 = runner.trace("CG-16")
        t2 = runner.trace("CG-16")
        assert t1 is t2

    def test_different_apps_different_traces(self, runner):
        assert runner.trace("CG-16") is not runner.trace("MG-16")


class TestReportCache:
    def test_cell_cached_on_all_inputs(self, runner):
        gs = uniform_gear_set(6)
        r1 = runner.balance("CG-16", gs)
        r2 = runner.balance("CG-16", gs)
        assert r1 is r2

    def test_beta_is_part_of_the_key(self, runner):
        gs = uniform_gear_set(6)
        r1 = runner.balance("IS-16", gs, beta=0.3)
        r2 = runner.balance("IS-16", gs, beta=0.9)
        assert r1 is not r2
        assert r1.normalized_energy <= r2.normalized_energy + 1e-9

    def test_algorithm_is_part_of_the_key(self, runner):
        from repro.experiments.fig9 import avg_discrete_set

        r_max = runner.balance("IS-16", uniform_gear_set(6))
        r_avg = runner.balance("IS-16", avg_discrete_set(),
                               algorithm=AvgAlgorithm())
        assert r_max.algorithm == "MAX"
        assert r_avg.algorithm == "AVG"

    def test_gear_set_name_is_part_of_the_key(self, runner):
        r6 = runner.balance("IS-16", uniform_gear_set(6))
        r8 = runner.balance("IS-16", uniform_gear_set(8))
        assert r6.gear_set != r8.gear_set


class TestPhysicalCellKey:
    """Two gear sets sharing a display name are still two cells."""

    LOW = uniform_gear_set(6)
    HIGH = uniform_gear_set(6, fmin=1.4)

    @pytest.fixture(scope="class")
    def fresh_high(self):
        return Runner(RunnerConfig(iterations=2)).balance("BT-MZ-32", self.HIGH)

    def test_sets_share_a_name(self):
        assert self.LOW.name == self.HIGH.name

    def test_balance_keys_on_gear_content(self, fresh_high):
        runner = Runner(RunnerConfig(iterations=2))
        runner.balance("BT-MZ-32", self.LOW)
        got = runner.balance("BT-MZ-32", self.HIGH)
        assert min(got.assignment.frequencies) >= self.HIGH.fmin
        assert got.to_json() == fresh_high.to_json()

    def test_balance_many_keys_on_gear_content(self, fresh_high):
        runner = Runner(RunnerConfig(iterations=2))
        runner.balance_many("BT-MZ-32", [self.LOW])
        (got,) = runner.balance_many("BT-MZ-32", [self.HIGH])
        assert min(got.assignment.frequencies) >= self.HIGH.fmin
        assert got.to_json() == fresh_high.to_json()


class TestPowerModelReaccounting:
    def test_custom_model_does_not_pollute_cache(self, runner):
        gs = uniform_gear_set(6)
        heavy_static = runner.balance(
            "IS-16", gs, power_model=CpuPowerModel(static_fraction=0.8)
        )
        default = runner.balance("IS-16", gs)
        assert default.normalized_energy < heavy_static.normalized_energy
        # cached entry stays on the default model
        again = runner.balance("IS-16", gs)
        assert again is default

    def test_reaccounted_report_shares_times(self, runner):
        gs = uniform_gear_set(6)
        default = runner.balance("IS-16", gs)
        custom = runner.balance(
            "IS-16", gs, power_model=CpuPowerModel(activity_ratio=3.0)
        )
        assert custom.new_time == default.new_time
        assert custom.original_time == default.original_time


class TestConfig:
    def test_default_app_list_is_table3(self):
        from repro.apps.registry import TABLE3_INSTANCES

        assert RunnerConfig().app_list() == TABLE3_INSTANCES

    def test_subset_respected(self):
        cfg = RunnerConfig(apps=("CG-16",))
        assert cfg.app_list() == ("CG-16",)
