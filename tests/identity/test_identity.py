"""Tests for device identity and data authenticity."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.crypto import ecdsa
from repro.crypto.ecdsa import N
from repro.errors import AuthenticityError, IdentityError
from repro.identity.authenticity import (
    AuthenticityVerifier,
    forge_reading,
    replay_reading,
    simulate_adversarial_stream,
    tamper_reading,
)
from repro.identity.device import Manufacturer, ManufacturerRegistry


@pytest.fixture
def manufacturer():
    return Manufacturer("acme", b"acme-root-secret")


@pytest.fixture
def registry(manufacturer):
    registry = ManufacturerRegistry()
    registry.register(manufacturer)
    return registry


@pytest.fixture
def device(manufacturer):
    return manufacturer.build_device("SN-0001")


class TestManufacturer:
    def test_device_keys_deterministic(self, manufacturer):
        a = manufacturer.build_device("SN-1")
        b = manufacturer.build_device("SN-1")
        assert a.device_key.secret == b.device_key.secret

    def test_distinct_serials_distinct_keys(self, manufacturer):
        a = manufacturer.build_device("SN-1")
        b = manufacturer.build_device("SN-2")
        assert a.device_key.secret != b.device_key.secret

    def test_certificate_verifies(self, registry, device):
        registry.verify_certificate(device.certificate)

    def test_unknown_manufacturer_rejected(self, device):
        empty = ManufacturerRegistry()
        with pytest.raises(AuthenticityError):
            empty.verify_certificate(device.certificate)

    def test_forged_certificate_rejected(self, registry, device, rng):
        from repro.crypto.ecdsa import PrivateKey

        forged = dataclasses.replace(
            device.certificate,
            device_public_key=PrivateKey.generate(rng).public_key,
        )
        with pytest.raises(AuthenticityError):
            registry.verify_certificate(forged)

    def test_duplicate_registration_rejected(self, registry, manufacturer):
        with pytest.raises(IdentityError):
            registry.register(manufacturer)


class TestDevice:
    def test_sequence_increments(self, device):
        first = device.produce_reading({"t": 20.0}, timestamp=1.0)
        second = device.produce_reading({"t": 21.0}, timestamp=2.0)
        assert (first.sequence, second.sequence) == (0, 1)

    def test_clock_regression_rejected(self, device):
        device.produce_reading({"t": 20.0}, timestamp=5.0)
        with pytest.raises(IdentityError):
            device.produce_reading({"t": 20.0}, timestamp=4.0)

    def test_reading_id_distinct(self, device):
        a = device.produce_reading({"t": 20.0}, timestamp=1.0)
        b = device.produce_reading({"t": 20.0}, timestamp=1.0)
        assert a.signed_payload() != b.signed_payload()  # sequence differs


class TestVerifier:
    def test_honest_reading_accepted(self, registry, device):
        verifier = AuthenticityVerifier(registry)
        reading = device.produce_reading({"t": 20.0}, timestamp=1.0)
        verifier.verify(reading, device.certificate)
        assert verifier.stats.accepted == 1

    def test_forgery_rejected(self, registry, device, rng):
        verifier = AuthenticityVerifier(registry)
        honest = device.produce_reading({"t": 20.0}, timestamp=1.0)
        with pytest.raises(AuthenticityError, match="bad_signature"):
            verifier.verify(forge_reading(honest, rng), device.certificate)

    def test_tamper_rejected(self, registry, device):
        verifier = AuthenticityVerifier(registry)
        honest = device.produce_reading({"t": 20.0}, timestamp=1.0)
        with pytest.raises(AuthenticityError, match="bad_signature"):
            verifier.verify(tamper_reading(honest), device.certificate)

    def test_replay_rejected(self, registry, device):
        verifier = AuthenticityVerifier(registry)
        honest = device.produce_reading({"t": 20.0}, timestamp=1.0)
        verifier.verify(honest, device.certificate)
        with pytest.raises(AuthenticityError, match="duplicate"):
            verifier.verify(replay_reading(honest), device.certificate)

    def test_timestamp_regression_rejected(self, registry, manufacturer):
        verifier = AuthenticityVerifier(registry)
        device_a = manufacturer.build_device("SN-A")
        late = device_a.produce_reading({"t": 1.0}, timestamp=10.0)
        verifier.verify(late, device_a.certificate)
        # Craft an older reading from the same serial via a fresh device
        # object (same burned-in key, reset clock).  Skip sequence 0 so the
        # duplicate check does not fire first.
        device_b = manufacturer.build_device("SN-A")
        device_b.produce_reading({"t": 1.0}, timestamp=4.0)  # seq 0, unused
        early = device_b.produce_reading({"t": 1.0}, timestamp=5.0)  # seq 1
        with pytest.raises(AuthenticityError, match="timestamp_regression"):
            verifier.verify(early, device_a.certificate)

    def test_stale_reading_rejected(self, registry, device):
        verifier = AuthenticityVerifier(registry, freshness_window_s=60.0)
        old = device.produce_reading({"t": 1.0}, timestamp=0.0)
        with pytest.raises(AuthenticityError, match="stale"):
            verifier.verify(old, device.certificate, now=1000.0)

    def test_cross_serial_certificate_rejected(self, registry, manufacturer):
        verifier = AuthenticityVerifier(registry)
        device_a = manufacturer.build_device("SN-A")
        device_b = manufacturer.build_device("SN-B")
        reading = device_a.produce_reading({"t": 1.0}, timestamp=1.0)
        with pytest.raises(AuthenticityError):
            verifier.verify(reading, device_b.certificate)

    def test_a_remembered_certificate_with_a_forged_signature_fails(
            self, registry, device):
        verifier = AuthenticityVerifier(registry)
        verifier.verify(device.produce_reading({"t": 1.0}, timestamp=1.0),
                        device.certificate)
        signature = device.certificate.signature
        forged = dataclasses.replace(device.certificate, signature=(
            dataclasses.replace(signature, s=signature.s % (N // 2) + 1)))
        with pytest.raises(AuthenticityError, match="bad_certificate"):
            verifier.verify(device.produce_reading({"t": 2.0}, timestamp=2.0),
                            forged)

    def test_unknown_manufacturer_reason(self, manufacturer):
        verifier = AuthenticityVerifier(ManufacturerRegistry())
        device = manufacturer.build_device("SN-X")
        reading = device.produce_reading({"t": 1.0}, timestamp=1.0)
        with pytest.raises(AuthenticityError, match="unknown_manufacturer"):
            verifier.verify(reading, device.certificate)


class TestAdversarialStream:
    def test_perfect_detection(self, registry, device):
        rng = np.random.default_rng(55)
        stream = simulate_adversarial_stream(device, honest_count=80,
                                             attack_rate=0.25, rng=rng)
        verifier = AuthenticityVerifier(registry)
        accepted, reasons = verifier.verify_batch(
            [(reading, device.certificate) for reading, _ in stream]
        )
        honest = sum(1 for _, is_attack in stream if not is_attack)
        attacks = sum(1 for _, is_attack in stream if is_attack)
        assert len(accepted) == honest          # perfect recall on honest
        assert len(reasons) == attacks           # perfect attack detection
        assert verifier.stats.total_rejected == attacks

    def test_attack_mix_covers_reasons(self, registry, device):
        rng = np.random.default_rng(56)
        stream = simulate_adversarial_stream(device, honest_count=60,
                                             attack_rate=0.5, rng=rng)
        verifier = AuthenticityVerifier(registry)
        verifier.verify_batch(
            [(reading, device.certificate) for reading, _ in stream]
        )
        assert set(verifier.stats.rejected) >= {"bad_signature", "duplicate"}

    def test_warmed_batch_equals_the_reading_by_reading_loop(
            self, manufacturer, registry, device, monkeypatch):
        """``verify_batch`` checks the signatures in one ``batch_verify`` up
        front; the decisions, their order and the reasons must be those of
        calling ``verify`` reading by reading."""
        from repro.identity import authenticity

        rng = np.random.default_rng(57)
        stream = simulate_adversarial_stream(device, honest_count=40,
                                             attack_rate=0.4, rng=rng)
        stranger = Manufacturer("ghost", b"ghost-root").build_device("SN-G")
        items = [(reading, device.certificate) for reading, _ in stream]
        # An unregistered maker, a certificate of the wrong serial and two
        # readings out of order: rejected before or after the signature check.
        items.insert(7, (stranger.produce_reading({"v": 1.0}, timestamp=1.0),
                         stranger.certificate))
        items.insert(20, (items[3][0], manufacturer.build_device(
            "SN-other").certificate))
        late = [device.produce_reading({"value": 0.0}, timestamp=stamp)
                for stamp in (1000.0, 1001.0)]
        items += [(reading, device.certificate) for reading in late[::-1]]

        def outcome(verifier, run):
            accepted, reasons = run(verifier)
            return ([r.sequence for r in accepted], reasons,
                    verifier.stats.accepted, dict(verifier.stats.rejected))

        def loop(verifier):
            accepted, reasons = [], []
            for reading, certificate in items:
                try:
                    verifier.verify(reading, certificate)
                    accepted.append(reading)
                except AuthenticityError as exc:
                    reasons.append(str(exc))
            return accepted, reasons

        batches = []
        real = authenticity.batch_verify
        monkeypatch.setattr(
            authenticity, "batch_verify",
            lambda triples: batches.append(len(triples)) or real(triples))
        warmed = outcome(AuthenticityVerifier(registry),
                         lambda verifier: verifier.verify_batch(items))
        assert batches == [len(items)]
        assert warmed == outcome(AuthenticityVerifier(registry), loop)
        assert {"bad_signature", "duplicate", "timestamp_regression",
                "unknown_manufacturer", "bad_certificate"} <= set(warmed[3])

    @pytest.mark.usefixtures("equation_from_32")
    def test_twenty_readings_of_one_device_are_21_checks(
            self, registry, device, monkeypatch):
        # Each reading signature is checked once, by the batch, and the
        # device certificate once: 20 + 1, where checking every reading's
        # certificate and signature again in the loop made 60.  Counted at
        # the check primitive, which the batch's pool threads run too.
        readings = [device.produce_reading({"v": float(i)},
                                           timestamp=float(i))
                    for i in range(20)]
        checks = []
        real = ecdsa._check
        monkeypatch.setattr(ecdsa, "_check",
                            lambda handle, message, signature: checks.append(
                                handle) or real(handle, message, signature))
        accepted, reasons = AuthenticityVerifier(registry).verify_batch(
            [(reading, device.certificate) for reading in readings])
        assert (len(accepted), reasons) == (20, [])
        assert len(checks) == 21
