"""Executor economics: is running PDS2 infrastructure viable? (Section VI)

"The executors need to be compensated for their computational costs, which
must be sustainable and competitive compared to existing solutions."  This
module turns that sentence into arithmetic:

* :class:`ExecutorCostModel` — the cost of executing one workload on TEE
  hardware: amortized capital, electricity, and a fixed per-job overhead;
* :class:`ViabilityAnalysis` — revenue (the infra share of a reward pool,
  split across executors) against cost, the break-even infra share, and a
  competitiveness ratio versus a reference cloud price.

All money is in abstract currency units (set ``token_value`` to anchor them
to the reward token); defaults approximate a consumer SGX-capable machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RewardError
from repro.tee.cost_model import CostModel, ExecutionBackend, WorkloadProfile


@dataclass(frozen=True)
class ExecutorCostModel:
    """Cost structure of one executor machine.

    Defaults: a 1,200-unit machine amortized over 3 years, drawing 80 W at
    0.25 units/kWh, plus a small fixed cost per job (provisioning,
    attestation round-trips, bookkeeping).
    """

    hardware_cost: float = 1200.0
    amortization_s: float = 3 * 365 * 24 * 3600.0
    power_watts: float = 80.0
    electricity_per_kwh: float = 0.25
    fixed_cost_per_job: float = 0.002
    utilization: float = 0.5  # fraction of amortized time actually billed

    def __post_init__(self) -> None:
        if self.amortization_s <= 0 or not 0 < self.utilization <= 1:
            raise RewardError("invalid amortization or utilization")

    @property
    def capital_cost_per_s(self) -> float:
        """Amortized hardware cost per *billed* second."""
        return self.hardware_cost / (self.amortization_s * self.utilization)

    @property
    def energy_cost_per_s(self) -> float:
        return self.power_watts / 1000.0 * self.electricity_per_kwh / 3600.0

    def cost_of_job(self, seconds: float) -> float:
        """Total cost of occupying the machine for ``seconds``."""
        if seconds < 0:
            raise RewardError("job duration must be non-negative")
        per_second = self.capital_cost_per_s + self.energy_cost_per_s
        return self.fixed_cost_per_job + seconds * per_second


@dataclass(frozen=True)
class ViabilityAnalysis:
    """Revenue-vs-cost analysis for one workload class."""

    workload: WorkloadProfile
    reward_pool: float
    infra_share: float
    num_executors: int
    executor_costs: ExecutorCostModel = ExecutorCostModel()
    performance: CostModel = CostModel()
    token_value: float = 1.0
    cloud_price_per_s: float = 0.0001  # reference on-demand vCPU-second

    def __post_init__(self) -> None:
        if not 0 <= self.infra_share < 1:
            raise RewardError("infra share must be in [0, 1)")
        if self.num_executors < 1:
            raise RewardError("need at least one executor")
        if self.reward_pool < 0:
            raise RewardError("reward pool must be non-negative")

    @property
    def job_seconds(self) -> float:
        """TEE execution time for this workload per executor."""
        return self.performance.estimate_seconds(ExecutionBackend.TEE,
                                                 self.workload)

    @property
    def revenue_per_executor(self) -> float:
        """Each executor's slice of the infra share, in currency units."""
        pool_value = self.reward_pool * self.token_value
        return pool_value * self.infra_share / self.num_executors

    @property
    def cost_per_executor(self) -> float:
        return self.executor_costs.cost_of_job(self.job_seconds)

    @property
    def profit_per_executor(self) -> float:
        return self.revenue_per_executor - self.cost_per_executor

    @property
    def is_viable(self) -> bool:
        """True when executors at least break even."""
        return self.profit_per_executor >= 0

    def break_even_infra_share(self) -> float:
        """The smallest infra share at which executors break even.

        Raises when even a 100% share cannot cover costs (the workload's
        reward pool is simply too small).
        """
        pool_value = self.reward_pool * self.token_value
        if pool_value <= 0:
            raise RewardError("cannot break even on a zero reward pool")
        needed = (self.cost_per_executor * self.num_executors) / pool_value
        if needed >= 1.0:
            raise RewardError(
                "reward pool too small: executors cannot break even"
            )
        return needed

    def competitiveness_vs_cloud(self) -> float:
        """Executor revenue per second divided by the cloud price per second.

        > 1 means running PDS2 infrastructure pays better than renting the
        same seconds out to a cloud; the paper requires the compensation be
        "competitive compared to existing solutions".
        """
        if self.job_seconds <= 0:
            raise RewardError("workload has no execution time")
        revenue_per_s = self.revenue_per_executor / self.job_seconds
        return revenue_per_s / self.cloud_price_per_s
