"""Integration: aggregate workloads through attested enclaves.

Verifies that the non-ML workload path (Section II's generalization) rides
the full TEE machinery: measurement covers the aggregate entry point,
attestation gates provisioning, and confidential inputs reach the enclave
encrypted.
"""

from __future__ import annotations

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from repro.core.aggregates import (
    AggregateKind,
    AggregateResult,
    AggregateSpec,
    aggregate_enclave_entry_point,
)
from repro.core.workload import (
    enclave_entry_point,
    join_rows,
    serialize_partition,
)
from repro.crypto import hpke
from repro.errors import AttestationError
from repro.ml.datasets import make_iot_activity
from repro.tee.attestation import AttestationService
from repro.tee.enclave import EnclaveCode, TEEPlatform


def payload_for(data) -> bytes:
    return join_rows(serialize_partition(data.features, data.targets))


@pytest.fixture
def setup(rng):
    platform = TEEPlatform("agg-platform", rng)
    service = AttestationService()
    service.provision_platform(platform)
    code = EnclaveCode("pds2-aggregate", "1",
                       aggregate_enclave_entry_point)
    data = make_iot_activity(200, rng)
    return platform, service, code, data


class TestAggregateThroughEnclave:
    def test_attested_confidential_aggregate(self, setup, rng):
        platform, service, code, data = setup
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        enclave_key = service.verify(
            quote, expected_measurement=code.measurement
        )
        provider_key = X25519PrivateKey.from_private_bytes(rng.bytes(32))
        info = b"pds2/partition/agg/0x" + b"ab" * 20
        blob = hpke.seal(enclave_key, provider_key, payload_for(data), info,
                         rng)
        enclave.provision_input("provider:0x" + "ab" * 20, blob,
                                provider_key.public_key(), info)
        spec = AggregateSpec(AggregateKind.MEAN, field_index=3)
        enclave.run(agg_spec=spec.to_dict(), noise_seed=5)
        result = AggregateResult.from_output(enclave.extract_output())
        assert result.statistic == pytest.approx(
            float(data.features[:, 3].mean())
        )

    def test_aggregate_measurement_differs_from_training(self):
        aggregate_code = EnclaveCode("wl", "1",
                                     aggregate_enclave_entry_point)
        training_code = EnclaveCode("wl", "1", enclave_entry_point)
        assert aggregate_code.measurement != training_code.measurement

    def test_wrong_code_fails_attestation(self, setup):
        platform, service, code, data = setup
        impostor = EnclaveCode("pds2-aggregate", "1", enclave_entry_point)
        enclave = platform.launch(impostor)
        quote = AttestationService.produce_quote(enclave)
        with pytest.raises(AttestationError):
            service.verify(quote, expected_measurement=code.measurement)

    def test_dp_aggregate_hides_exact_value(self, setup, rng):
        platform, service, code, data = setup
        enclave = platform.launch(code)
        enclave.provision_plain("provider:0x" + "ab" * 20,
                                payload_for(data))
        spec = AggregateSpec(AggregateKind.MEAN, field_index=0,
                             dp_epsilon=2.0, sensitivity=0.05)
        enclave.run(agg_spec=spec.to_dict(), noise_seed=9)
        output = enclave.extract_output()
        assert output["exact"] is None
        exact = float(data.features[:, 0].mean())
        assert output["statistic"] != pytest.approx(exact)
