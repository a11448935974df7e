"""The BENCH trajectory schema: metric specs, provenance, condensation.

A *trajectory file* (``BENCH_<git-sha>.json`` at the repo root) is one
machine-readable performance point of the whole system: every experiment
the harness ran, each with wall time, the metrics the experiment chose to
publish, and a condensed telemetry view (gas, bytes, crypto ops).  Two
trajectory files diff into a regression report
(:mod:`repro.bench.compare`); the committed ``BENCH_seed.json`` is the
baseline CI gates against.

A :class:`Metric` carries its own comparison policy — ``direction``
(``"lower"``/``"higher"`` is better, or ``"info"`` for ungated context
like wall time on shared CI runners) and a ``threshold_pct`` beyond which
a change counts as a regression.  Only deterministic quantities (gas,
bytes, operation counts, seeded accuracy) should gate; noisy wall-clock
numbers ride along as ``info``.
"""

from __future__ import annotations

import platform
import socket
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from repro.crypto import libcrypto

BENCH_FORMAT = "pds2-bench-trajectory/1"

DIRECTIONS = ("lower", "higher", "info")

#: Default regression thresholds (percent) by direction.
DEFAULT_LOWER_THRESHOLD_PCT = 10.0
DEFAULT_HIGHER_THRESHOLD_PCT = 5.0

#: Registry totals condensed into each experiment's trajectory entry.
CONDENSED_METRICS = (
    "pds2_chain_blocks_mined_total",
    "pds2_chain_gas_total",
    "pds2_vm_txs_applied_total",
    "pds2_crypto_sign_total",
    "pds2_crypto_verify_total",
    "pds2_crypto_scalar_mult_total",
    "pds2_tee_enclave_launches_total",
    "pds2_gossip_merges_total",
    "pds2_net_messages_total",
    "pds2_storage_ops_total",
    "pds2_storage_bytes_total",
)


@dataclass
class Metric:
    """One published benchmark quantity plus its comparison policy."""

    value: float
    unit: str = ""
    direction: str = "info"
    threshold_pct: Optional[float] = None

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"metric direction {self.direction!r} not in {DIRECTIONS}"
            )

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "unit": self.unit,
            "direction": self.direction,
            "threshold_pct": self.threshold_pct,
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "Metric":
        threshold = record.get("threshold_pct")
        return cls(
            value=float(record.get("value", 0.0)),
            unit=record.get("unit", ""),
            direction=record.get("direction", "info"),
            threshold_pct=float(threshold) if threshold is not None else None,
        )


def lower_is_better(value: float, unit: str = "",
                    threshold_pct: float = DEFAULT_LOWER_THRESHOLD_PCT
                    ) -> Metric:
    """A gated cost metric (gas, bytes, counts): growth is a regression."""
    return Metric(value=float(value), unit=unit, direction="lower",
                  threshold_pct=threshold_pct)


def higher_is_better(value: float, unit: str = "",
                     threshold_pct: float = DEFAULT_HIGHER_THRESHOLD_PCT
                     ) -> Metric:
    """A gated quality metric (accuracy, recall): decay is a regression."""
    return Metric(value=float(value), unit=unit, direction="higher",
                  threshold_pct=threshold_pct)


def info(value: float, unit: str = "") -> Metric:
    """An ungated context metric (wall time, rates on shared hardware)."""
    return Metric(value=float(value), unit=unit, direction="info",
                  threshold_pct=None)


def git_sha() -> str:
    """The current (short) commit id of the working directory's checkout,
    or ``"unknown"`` outside one."""
    cmd = ["git", "rev-parse", "--short", "HEAD"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def provenance() -> dict:
    """Who/where/what produced a trajectory point or metrics sidecar; the
    libcrypto that ran decides the path of every signature batch."""
    return {
        "git_sha": git_sha(),
        "python_version": platform.python_version(),
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "argv": list(sys.argv),
        "libcrypto": getattr(libcrypto.LIBCRYPTO, "version", None),
    }


def source_lines(package_root: Optional[Path] = None) -> int:
    """Lines of Python under ``src/repro`` — the size the trajectory tracks
    (the SRC experiment publishes it), so deleted paths show as a drop."""
    root = (package_root if package_root is not None
            else Path(__file__).resolve().parents[1])
    return sum(len(path.read_bytes().splitlines())
               for path in root.rglob("*.py"))


def condense(snapshot: Mapping) -> dict[str, float]:
    """Reduce a registry snapshot to ``{metric name: total}`` for the
    trajectory entry (full snapshots stay in the per-experiment sidecars;
    the trajectory only carries the comparable aggregates)."""
    totals: dict[str, float] = {}
    for metric in snapshot.get("metrics", ()):
        name = metric.get("name")
        if name not in CONDENSED_METRICS:
            continue
        if metric.get("type") == "histogram":
            total = sum(sample.get("count", 0)
                        for sample in metric.get("samples", ()))
        else:
            total = sum(sample.get("value", 0)
                        for sample in metric.get("samples", ()))
        if total:
            totals[name] = float(total)
    return totals
