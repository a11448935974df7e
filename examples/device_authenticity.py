"""Data authenticity and trustless audit (paper Sections IV-B, II-E).

A fleet of manufacturer-certified IoT sensors streams signed readings while
an adversary injects forgeries, tampered values and duplicate resales.  The
executor-side verifier must reject every attack while accepting every honest
reading.  The second half demonstrates the user-centered storage options of
Fig. 3: the same data held on the owner's encrypted hardware, a decentralized
swarm, and an untrusted cloud with key-keeper escrow — with confidentiality
checked at each.

Run with::

    python examples/device_authenticity.py
"""

from __future__ import annotations

import numpy as np

from repro.identity.authenticity import (
    AuthenticityVerifier,
    simulate_adversarial_stream,
)
from repro.identity.device import Manufacturer, ManufacturerRegistry
from repro.storage.cloud import CloudStore
from repro.storage.local import LocalEncryptedStore
from repro.storage.swarm import SwarmStore


def authenticity_demo(rng) -> None:
    print("=== authenticity: certified devices vs an active adversary ===")
    registry = ManufacturerRegistry()
    trusted = Manufacturer("sensorcorp", b"sensorcorp-root")
    registry.register(trusted)

    verifier = AuthenticityVerifier(registry)
    total_honest = 0
    total_attacks = 0
    for device_index in range(5):
        device = trusted.build_device(f"SC-{device_index:04d}")
        stream = simulate_adversarial_stream(
            device, honest_count=100, attack_rate=0.3, rng=rng,
            start_time=device_index * 1000.0,
        )
        total_honest += sum(1 for _, is_attack in stream if not is_attack)
        total_attacks += sum(1 for _, is_attack in stream if is_attack)
        verifier.verify_batch(
            [(reading, device.certificate) for reading, _ in stream]
        )
    print(f"honest readings: {total_honest}, attacks injected: "
          f"{total_attacks}")
    print(f"accepted: {verifier.stats.accepted}, rejected: "
          f"{verifier.stats.total_rejected}")
    for reason, count in sorted(verifier.stats.rejected.items()):
        print(f"  rejected as {reason}: {count}")
    detected = verifier.stats.total_rejected == total_attacks
    clean = verifier.stats.accepted == total_honest
    print(f"perfect precision/recall: {detected and clean}")

    # Devices from an unregistered manufacturer are refused wholesale.
    knockoff = Manufacturer("knockoff-inc", b"knockoff-root")
    fake_device = knockoff.build_device("KO-1")
    reading = fake_device.produce_reading({"t": 20.0}, timestamp=1.0)
    try:
        verifier.verify(reading, fake_device.certificate)
    except Exception as exc:  # noqa: BLE001 - demo output
        print(f"knockoff device rejected: {exc}\n")


def storage_demo(rng) -> None:
    print("=== storage: the three Fig. 3 hardware configurations ===")
    owner = "0x" + "ab" * 20
    executor = "0x" + "cd" * 20
    payload = b'{"acc_mean":0.43,"heart_rate":96.0,"label":"walking"}' * 50

    local = LocalEncryptedStore(owner, rng)
    object_id = local.put(payload, owner)
    print(f"(a) owner hardware: stored {len(payload)} B, at-rest bytes are "
          f"ciphertext: {local.verify_at_rest_confidentiality(object_id)}")
    local.grant(object_id, owner, executor)
    print(f"    granted executor read: "
          f"{local.get(object_id, executor) == payload}")

    swarm = SwarmStore(num_nodes=12, rng=rng, replication=3, chunk_size=256)
    swarm_id = swarm.put(payload, owner)
    swarm.grant(swarm_id, owner, executor)
    swarm.fail_nodes(3, rng)
    print(f"(b) swarm: {len(payload)} B over 12 nodes (3 failed), "
          f"retrievable: {swarm.get(swarm_id, executor) == payload}, "
          f"chunk availability {swarm.chunk_availability(swarm_id):.0%}")

    cloud = CloudStore(keepers=5, threshold=3, rng=rng)
    cloud_id = cloud.put(payload, owner)
    cloud.grant(cloud_id, owner, executor)
    visible = cloud.cloud_visible_bytes(cloud_id)
    print(f"(c) cloud + key keepers: operator stores {len(visible)} B of "
          f"ciphertext, plaintext hidden: {payload[:20] not in visible}")
    cloud.fail_keepers(2)
    print(f"    2 of 5 keepers down, executor still reads: "
          f"{cloud.get(cloud_id, executor) == payload}")
    cloud.fail_keepers(3)
    try:
        cloud.get(cloud_id, executor)
    except Exception as exc:  # noqa: BLE001 - demo output
        print(f"    below keeper threshold: {type(exc).__name__}")


def main() -> None:
    rng = np.random.default_rng(99)
    authenticity_demo(rng)
    storage_demo(rng)


if __name__ == "__main__":
    main()
