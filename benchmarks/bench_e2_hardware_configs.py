"""E2 (Fig. 3): data-movement cost of the provider hardware configurations.

The paper's user-centered flexibility claim: providers may (a) keep storage
and execution on their own hardware, (b) outsource execution only, or
(c) outsource both.  We measure what each configuration costs in bytes
moved off the provider's hardware and in transfer latency — the quantities
that decide whether self-hosting stays viable.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, format_table, info, lower_is_better
from repro.storage.local import LocalEncryptedStore
from repro.storage.swarm import SwarmStore
from repro.tee.cost_model import NetworkProfile

DATA_BYTES = 512 * 1024  # one provider's partition, serialized
OWNER = "0x" + "aa" * 20
EXECUTOR = "0x" + "bb" * 20

network = NetworkProfile(latency_s=0.02,
                         bandwidth_bytes_per_s=12_500_000.0)


def _payload(rng, data_bytes: int = DATA_BYTES) -> bytes:
    return bytes(rng.integers(0, 256, data_bytes, dtype=np.uint8))


def config_a_self_hosted(rng, data_bytes: int = DATA_BYTES
                         ) -> tuple[int, float]:
    """(a) Own storage + own execution: data never leaves the provider."""
    store = LocalEncryptedStore(OWNER, rng)
    object_id = store.put(_payload(rng, data_bytes), OWNER)
    store.get(object_id, OWNER)  # local execution reads locally
    external_bytes = 0  # both hops are on-device
    return external_bytes, 0.0


def config_b_outsourced_execution(rng, data_bytes: int = DATA_BYTES
                                  ) -> tuple[int, float]:
    """(b) Own storage, third-party executor: one upload to the executor."""
    store = LocalEncryptedStore(OWNER, rng)
    object_id = store.put(_payload(rng, data_bytes), OWNER)
    store.grant(object_id, OWNER, EXECUTOR)
    data = store.get(object_id, EXECUTOR)  # travels provider -> executor
    external_bytes = len(data)
    latency = network.latency_s + network.transfer_time(external_bytes)
    return external_bytes, latency


def config_c_fully_outsourced(rng, data_bytes: int = DATA_BYTES
                              ) -> tuple[int, float]:
    """(c) Third-party storage + executor: upload once, download once."""
    store = SwarmStore(num_nodes=12, rng=rng, replication=3,
                       chunk_size=4096)
    payload = _payload(rng, data_bytes)
    object_id = store.put(payload, OWNER)       # provider -> swarm
    store.grant(object_id, OWNER, EXECUTOR)
    data = store.get(object_id, EXECUTOR)       # swarm -> executor
    external_bytes = len(payload) + len(data)
    latency = 2 * network.latency_s + network.transfer_time(external_bytes)
    return external_bytes, latency


def run_bench(quick: bool = False) -> dict:
    """Measure all three Fig. 3 configurations on one seeded payload."""
    rng = np.random.default_rng(20260705)
    data_bytes = DATA_BYTES // 4 if quick else DATA_BYTES
    a_bytes, a_latency = config_a_self_hosted(rng, data_bytes)
    b_bytes, b_latency = config_b_outsourced_execution(rng, data_bytes)
    c_bytes, c_latency = config_c_fully_outsourced(rng, data_bytes)
    rows = [
        ["(a) own storage + execution", f"{a_bytes:,}",
         f"{a_latency * 1000:.1f}"],
        ["(b) own storage, 3rd-party exec", f"{b_bytes:,}",
         f"{b_latency * 1000:.1f}"],
        ["(c) fully outsourced", f"{c_bytes:,}",
         f"{c_latency * 1000:.1f}"],
    ]
    lines = format_table(["configuration", "external bytes", "latency ms"],
                         rows)
    # The transfer latencies come from the deterministic network model,
    # so they gate alongside the byte counts.
    metrics = {
        "self_hosted_bytes": lower_is_better(a_bytes, unit="B",
                                             threshold_pct=1.0),
        "outsourced_exec_bytes": lower_is_better(b_bytes, unit="B"),
        "fully_outsourced_bytes": lower_is_better(c_bytes, unit="B"),
        "outsourced_exec_latency_ms": lower_is_better(b_latency * 1e3,
                                                      unit="ms"),
        "fully_outsourced_latency_ms": lower_is_better(c_latency * 1e3,
                                                       unit="ms"),
        "partition_bytes": info(data_bytes, unit="B"),
    }
    # The paper's point: control costs nothing extra in data movement.
    claims = {
        "self_hosted_moves_nothing": a_bytes == 0,
        "bytes_ordered": a_bytes < b_bytes < c_bytes,
        "full_outsourcing_doubles": c_bytes == 2 * b_bytes,
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E2", "Fig. 3 hardware configurations", run_bench)
