"""E9 (Section IV-B): signed devices defeat forgery, tampering and resale.

Sweeps the adversarial rate in a mixed reading stream and reports detection
precision/recall, plus the verifier's throughput (readings/second) — the
cost of putting signature verification on the executor's ingest path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import Experiment, higher_is_better, info
from repro.identity.authenticity import (
    AuthenticityVerifier,
    simulate_adversarial_stream,
)
from repro.identity.device import Manufacturer, ManufacturerRegistry
from reporting import format_table, report

ATTACK_RATES = [0.1, 0.3, 0.5]
HONEST_PER_DEVICE = 60
DEVICES = 3


def run_detection(attack_rate: float, seed: int,
                  honest_per_device: int = HONEST_PER_DEVICE,
                  devices: int = DEVICES):
    rng = np.random.default_rng(seed)
    manufacturer = Manufacturer("acme", b"root", trust_score=0.9)
    registry = ManufacturerRegistry()
    registry.register(manufacturer)
    verifier = AuthenticityVerifier(registry)
    honest_total = 0
    attack_total = 0
    for device_index in range(devices):
        device = manufacturer.build_device(f"SN-{device_index}")
        stream = simulate_adversarial_stream(
            device, honest_per_device, attack_rate, rng,
            start_time=device_index * 10_000.0,
        )
        honest_total += sum(1 for _, a in stream if not a)
        attack_total += sum(1 for _, a in stream if a)
        verifier.verify_batch(
            [(reading, device.certificate) for reading, _ in stream]
        )
    true_rejects = verifier.stats.total_rejected
    false_rejects = max(0, honest_total - verifier.stats.accepted)
    recall = true_rejects / attack_total if attack_total else 1.0
    precision = (true_rejects / (true_rejects + false_rejects)
                 if true_rejects else 1.0)
    return honest_total, attack_total, precision, recall, verifier


def run_bench(quick: bool = False) -> dict:
    """The adversarial-rate sweep plus a verifier throughput probe."""
    rates = [0.1, 0.5] if quick else ATTACK_RATES
    per_device = 30 if quick else HONEST_PER_DEVICE
    devices = 2 if quick else DEVICES

    rows = []
    precisions = []
    recalls = []
    for index, attack_rate in enumerate(rates):
        honest, attacks, precision, recall, verifier = run_detection(
            attack_rate, seed=60 + index,
            honest_per_device=per_device, devices=devices,
        )
        precisions.append(precision)
        recalls.append(recall)
        reasons = ", ".join(f"{k}:{v}" for k, v in
                            sorted(verifier.stats.rejected.items()))
        rows.append([
            f"{attack_rate:.0%}", honest, attacks,
            f"{precision:.3f}", f"{recall:.3f}", reasons,
        ])

    # Throughput: honest verification cost per reading (wall clock).
    manufacturer = Manufacturer("acme", b"root")
    registry = ManufacturerRegistry()
    registry.register(manufacturer)
    device = manufacturer.build_device("SN-T")
    count = 20 if quick else 50
    readings = [
        device.produce_reading({"v": float(i)}, timestamp=float(i))
        for i in range(count)
    ]
    verifier = AuthenticityVerifier(registry)
    start = time.perf_counter()
    verifier.verify_batch(
        [(reading, device.certificate) for reading in readings]
    )
    elapsed = max(time.perf_counter() - start, 1e-9)

    lines = format_table(
        ["attack rate", "honest", "attacks", "precision", "recall",
         "rejection reasons"],
        rows,
    )
    lines += ["", f"verifier throughput: {count / elapsed:,.0f} readings/s"]
    metrics = {
        "min_precision": higher_is_better(min(precisions),
                                          threshold_pct=1.0),
        "min_recall": higher_is_better(min(recalls), threshold_pct=1.0),
        "verify_throughput_per_s": info(count / elapsed, unit="1/s"),
    }
    return {"metrics": metrics, "lines": lines, "rows": rows}


EXPERIMENT = Experiment("E9", "data-authenticity detection", run_bench)


def test_e9_detection_sweep():
    payload = run_bench()
    report("E9", "authenticity detection vs adversarial rate",
           payload["lines"])

    # Signature-based detection is exact: perfect precision and recall.
    for row in payload["rows"]:
        assert row[3] == "1.000" and row[4] == "1.000"
