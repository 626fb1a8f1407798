"""repro — Power-Aware Load Balancing of Large Scale MPI Applications.

A full reproduction of Etinski et al. (IPDPS 2009): DVFS gear sets, the
β time model, the CPU power model, the MAX and AVG frequency-assignment
algorithms, a Dimemas-equivalent MPI replay simulator, calibrated
application skeletons for the paper's twelve workload instances, and an
experiment harness regenerating every table and figure.

Quickstart::

    from repro import build_app, PowerAwareLoadBalancer, uniform_gear_set

    balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
    report = balancer.balance_app(build_app("BT-MZ-32"))
    print(report)            # normalized energy / time / EDP

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core import (
    AvgAlgorithm,
    BalanceReport,
    BetaTimeModel,
    CpuPowerModel,
    EnergyAccountant,
    FrequencyAssignment,
    Gear,
    GearSet,
    MaxAlgorithm,
    NoDvfsAlgorithm,
    PowerAwareLoadBalancer,
    exponential_gear_set,
    limited_continuous_set,
    overclocked,
    uniform_gear_set,
    unlimited_continuous_set,
)
from repro.apps import build_app, app_names
from repro.netsim import MpiSimulator, PlatformConfig
from repro.traces import ColumnarTrace, load_balance, read_trace, write_trace

__version__ = "1.0.0"

__all__ = [
    "AvgAlgorithm",
    "BalanceReport",
    "BetaTimeModel",
    "ColumnarTrace",
    "CpuPowerModel",
    "EnergyAccountant",
    "FrequencyAssignment",
    "Gear",
    "GearSet",
    "MaxAlgorithm",
    "MpiSimulator",
    "NoDvfsAlgorithm",
    "PlatformConfig",
    "PowerAwareLoadBalancer",
    "__version__",
    "app_names",
    "build_app",
    "exponential_gear_set",
    "limited_continuous_set",
    "load_balance",
    "overclocked",
    "read_trace",
    "uniform_gear_set",
    "unlimited_continuous_set",
    "write_trace",
]
