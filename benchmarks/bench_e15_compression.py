"""E15 (extension, Section III-C): communication-efficient gossip.

The paper cites work on gossip learning in "constrained and highly
heterogeneous environments"; the practical lever is message compression.
This ablation runs identical gossip schedules with dense, quantized and
subsampled model messages and charts accuracy against bytes on the wire.
"""

from __future__ import annotations

from harness import har_problem
from repro.bench import (
    Experiment,
    format_table,
    higher_is_better,
    info,
    lower_is_better,
)
from repro.ml.compression import CompressionConfig, CompressionKind
from repro.ml.gossip import GossipConfig, GossipTrainer
from repro.ml.models import SoftmaxRegressionModel

DURATION_S = 900.0
SEED = 15

VARIANTS = [
    ("dense float64", CompressionConfig()),
    ("quantized 8-bit", CompressionConfig(kind=CompressionKind.QUANTIZE,
                                          quantize_bits=8)),
    ("quantized 4-bit", CompressionConfig(kind=CompressionKind.QUANTIZE,
                                          quantize_bits=4)),
    ("subsample 25%", CompressionConfig(kind=CompressionKind.SUBSAMPLE,
                                        subsample_fraction=0.25)),
]


def factory():
    return SoftmaxRegressionModel(6, 5)


def gossip_config(compression: CompressionConfig) -> GossipConfig:
    return GossipConfig(wake_interval_s=10, local_steps=4,
                        learning_rate=0.3, compression=compression)


def run(parts, test, compression: CompressionConfig,
        duration: float = DURATION_S):
    trainer = GossipTrainer(factory, parts, test,
                            gossip_config(compression), seed=SEED)
    return trainer.run(duration, duration)


def run_bench(quick: bool = False) -> dict:
    """Every message format on the shared split (seeded, deterministic)."""
    parts, test = har_problem(12 if quick else 24,
                              1500 if quick else 3000)
    duration = 450.0 if quick else DURATION_S
    rows = []
    results = {}
    for name, compression in VARIANTS:
        result = run(parts, test, compression, duration)
        results[name] = result
        rows.append([
            name,
            f"{result.final_mean_score:.3f}",
            f"{result.bytes_delivered:,}",
            f"{result.bytes_delivered / results['dense float64'].bytes_delivered:.2f}x",
        ])

    lines = format_table(
        ["message format", "final accuracy", "bytes on wire", "vs dense"],
        rows,
    )
    dense = results["dense float64"]
    quant8 = results["quantized 8-bit"]
    metrics = {
        "dense_bytes": lower_is_better(dense.bytes_delivered, unit="B"),
        "quant8_bytes": lower_is_better(quant8.bytes_delivered, unit="B"),
        "dense_score": higher_is_better(dense.final_mean_score),
        "quant8_score": higher_is_better(quant8.final_mean_score),
        "subsample_score": info(
            results["subsample 25%"].final_mean_score),
    }
    claims = {
        # 8-bit quantization: big byte savings at negligible accuracy cost.
        "quant8_halves_traffic":
            quant8.bytes_delivered < 0.5 * dense.bytes_delivered,
        "quant8_keeps_accuracy":
            quant8.final_mean_score > dense.final_mean_score - 0.05,
        "every_format_learns": all(result.final_mean_score > 0.45
                                   for result in results.values()),
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E15", "gossip message compression", run_bench)
