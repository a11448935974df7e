"""E9 (Section IV-B): signed devices defeat forgery, tampering and resale.

Sweeps the adversarial rate in a mixed reading stream and reports detection
precision/recall, plus the verifier's throughput (readings/second) — the
cost of putting signature verification on the executor's ingest path — and
``verify_batch``'s speedup over checking the same readings one by one, a
ratio of two timings taken side by side in one run.  The throughput is in
reference-host readings/s: each batch's wall time is rescaled by E25's
host slice (``benchmarks/e25/run.py``), run just before and just after it,
so two hosts, or one host in a slow phase, read alike.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np

from repro.bench import Experiment, format_table, higher_is_better, info
from repro.identity.authenticity import (
    AuthenticityVerifier,
    simulate_adversarial_stream,
)
from repro.identity.device import Manufacturer, ManufacturerRegistry

ATTACK_RATES = [0.1, 0.3, 0.5]
HONEST_PER_DEVICE = 60
DEVICES = 3
THROUGHPUT_REPEATS = 7


def _e25_run():
    """``benchmarks/e25/run.py``, for its host slice and reference."""
    path = Path(__file__).resolve().parent / "e25" / "run.py"
    spec = importlib.util.spec_from_file_location("e25_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_detection(attack_rate: float, seed: int,
                  honest_per_device: int = HONEST_PER_DEVICE,
                  devices: int = DEVICES):
    rng = np.random.default_rng(seed)
    manufacturer = Manufacturer("acme", b"root")
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

    # Throughput: honest verification cost per reading in reference-host
    # time (wall clock × reference slice / the slices beside the batch),
    # the median of THROUGHPUT_REPEATS fresh verifiers over the same
    # readings (one batch alone is mostly noise).  Each repeat also times
    # the same signatures checked one by one, alternating with the batch,
    # for a same-run reference.
    e25 = _e25_run()
    manufacturer = Manufacturer("acme", b"root")
    registry = ManufacturerRegistry()
    registry.register(manufacturer)
    device = manufacturer.build_device("SN-T")
    count = 20 if quick else 50
    readings = [
        device.produce_reading({"v": float(i)}, timestamp=float(i))
        for i in range(count)
    ]
    device_key = device.certificate.device_public_key
    throughputs = []
    speedups = []
    for _ in range(THROUGHPUT_REPEATS):
        start = time.perf_counter()
        for reading in readings:
            device_key.verify(reading.signed_payload(), reading.signature)
        one_by_one = time.perf_counter() - start
        verifier = AuthenticityVerifier(registry)
        slice_before = e25.host_slice()
        start = time.perf_counter()
        verifier.verify_batch(
            [(reading, device.certificate) for reading in readings]
        )
        batched = max(time.perf_counter() - start, 1e-9)
        timed = {"slice_ms": (slice_before + e25.host_slice()) / 2}
        throughputs.append(count / (batched * e25.host_scale(timed)))
        speedups.append(one_by_one / batched)
    q1, throughput, q3 = np.percentile(throughputs, [25, 50, 75])
    speedup = float(np.median(speedups))

    lines = format_table(
        ["attack rate", "honest", "attacks", "precision", "recall",
         "rejection reasons"],
        rows,
    )
    lines += ["", f"verifier throughput: {throughput:,.0f} reference-host "
                  f"readings/s (median of {THROUGHPUT_REPEATS}; quartiles {q1:,.0f}"
                  f"–{q3:,.0f}, range {min(throughputs):,.0f}–{max(throughputs):,.0f})",
              f"verify_batch vs one by one: {speedup:.2f}x (median of "
              f"{THROUGHPUT_REPEATS} alternating pairs)"]
    metrics = {
        "min_precision": higher_is_better(min(precisions),
                                          threshold_pct=1.0),
        "min_recall": higher_is_better(min(recalls), threshold_pct=1.0),
        "verify_throughput_per_s": info(float(throughput), unit="1/s"),
        "verify_batch_speedup": info(speedup, unit="x"),
    }
    # Signature-based detection is exact: perfect precision and recall.
    claims = {"detection_exact": min(precisions + recalls) == 1.0}
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E9", "data-authenticity detection", run_bench)
