"""E4 (Section III-B): backend scaling with model size.

The paper (citing Haralampieva et al.) claims HE/SMC solutions "failed to
scale for larger models" while "TEE solutions exhibited better scalability".
Using the calibrated cost model, this experiment sweeps MLP width and batch
size and reports the estimated latency per backend — the TEE's overhead
factor must *shrink* as the job grows (fixed attestation amortizes), while
the HE and SMC factors stay orders of magnitude above plain.
"""

from __future__ import annotations

from repro.bench import Experiment, format_table, info, lower_is_better
from repro.tee.cost_model import CostModel, ExecutionBackend, mlp_profile

SWEEP = [
    ("tiny", 64, 16, [16], 2),
    ("small", 256, 32, [64], 4),
    ("medium", 1024, 64, [256], 8),
    ("large", 4096, 128, [512, 512], 16),
]


def run_bench(quick: bool = False) -> dict:
    """Sweep the cost model over MLP sizes (fully deterministic)."""
    model = CostModel()
    rows = []
    tee_factors = []
    rankings_ok = True
    for name, batch, features, hidden, outputs in SWEEP:
        profile = mlp_profile(batch=batch, features=features, hidden=hidden,
                              outputs=outputs)
        seconds = {
            backend: model.estimate_seconds(backend, profile)
            for backend in ExecutionBackend
        }
        plain = seconds[ExecutionBackend.PLAIN]
        tee_factor = seconds[ExecutionBackend.TEE] / plain
        tee_factors.append(tee_factor)
        rows.append([
            name,
            f"{profile.macs:,}",
            f"{plain:.2e}",
            f"{tee_factor:,.1f}x",
            f"{seconds[ExecutionBackend.SMC] / plain:,.0f}x",
            f"{seconds[ExecutionBackend.HE] / plain:,.0f}x",
        ])
        ranking = model.ranking(profile)
        rankings_ok = rankings_ok and (
            ranking[0] == ExecutionBackend.PLAIN
            and ranking[1] == ExecutionBackend.TEE
            and ranking[-1] == ExecutionBackend.HE
        )
    lines = format_table(
        ["model", "MACs", "plain s", "tee", "smc", "he"], rows,
    )
    metrics = {
        "tee_factor_large": lower_is_better(tee_factors[-1], unit="x"),
        "tee_factor_tiny": info(tee_factors[0], unit="x"),
    }
    claims = {
        # The ordering of Section III-B holds at every size.
        "ordering_holds": rankings_ok,
        # TEE amortizes its fixed costs: the overhead factor falls
        # monotonically as the workload grows.
        "tee_amortizes": tee_factors == sorted(tee_factors, reverse=True),
        "tee_factor_large_under_3x": tee_factors[-1] < 3.0,
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment(
    "E4", "backend scaling over MLP size (cost-model estimates)", run_bench,
)
