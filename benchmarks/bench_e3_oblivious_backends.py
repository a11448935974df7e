"""E3 (Section III-B): measured overhead of the oblivious-computation options.

The paper's central technology argument: homomorphic encryption is
"impractical", SMC is communication-bound, TEEs add only a small overhead.
This experiment *measures* the claim on linear scoring over n samples with
d features:

* plain — numpy matrix product (the no-privacy floor);
* TEE — the same computation run through the enclave interface, plus the
  calibrated attestation/transition costs from the cost model;
* SMC — the real additive-sharing engine (3 parties), wall time plus the
  modeled network time for its logged traffic;
* HE — real Paillier encrypted dot products.  ``he_s`` scales one row
  timed at :data:`HE_CLAIM_BITS` (the deployable key size the claim is
  about) to all n rows; the same workload at the reduced benchmark key
  size :data:`PAILLIER_BITS` rides along as ``he_384_s``.

Reported: wall seconds and slowdown versus plain, each the median of
``TIMING_REPEATS`` alternating repeats in one process, and the spread of
the paired HE/TEE ratio.  The paper's ordering (plain < TEE << SMC < HE)
must hold on the medians.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from harness import TIMING_REPEATS, alternating_repeats, median_spread
from repro.bench import Experiment, format_table, info
from repro.crypto.paillier import encrypted_dot, generate_keypair
from repro.crypto.smc import SMCEngine
from repro.tee.cost_model import CostModel, NetworkProfile
from repro.tee.enclave import EnclaveCode, TEEPlatform

SAMPLES = 200
FEATURES = 16
PAILLIER_BITS = 384
HE_CLAIM_BITS = 2048


def scoring_entry(inputs, weights=None):
    features = inputs["features"]
    return (features @ np.asarray(weights)).tolist()


def run_plain(features, weights) -> float:
    start = time.perf_counter()
    _ = features @ weights
    return time.perf_counter() - start


def run_tee(features, weights, rng, cost_model) -> float:
    platform = TEEPlatform("bench", rng)
    enclave = platform.launch(
        EnclaveCode("score", "1", scoring_entry)
    )
    start = time.perf_counter()
    enclave.provision_plain("features", features)
    enclave.run(weights=weights.tolist())
    enclave.extract_output()
    measured = time.perf_counter() - start
    # Add the hardware costs the simulation cannot produce: attestation
    # and the slowdown factor on the compute itself.
    return (measured * cost_model.tee_slowdown
            + cost_model.tee_attestation_s
            + enclave.call_transitions * cost_model.tee_transition_s)


def run_smc(features, weights, rng, network: NetworkProfile) -> float:
    engine = SMCEngine(parties=3, rng=rng)
    start = time.perf_counter()
    results = []
    for row in features:
        shared = engine.share_vector(row)
        results.append(engine.reveal(engine.dot_plain(shared, weights)))
    compute = time.perf_counter() - start
    # Communication: every reveal is one round of the logged traffic.
    network_time = (engine.log.rounds * network.latency_s
                    + network.transfer_time(engine.log.bytes_sent))
    return compute + network_time


def run_he(features, weights, rng, keypair) -> float:
    codec = keypair.codec
    encoded_weights = [codec.encode(float(w)) for w in weights]
    start = time.perf_counter()
    for row in features:
        ciphers = keypair.public_key.encrypt_vector(row, rng, codec)
        result = encrypted_dot(ciphers, encoded_weights)
        codec.decode_product(keypair.private_key.decrypt(result))
    return time.perf_counter() - start


def run_bench(quick: bool = False) -> dict:
    """Measure all four backends on one seeded scoring workload."""
    rng = np.random.default_rng(20260705)
    samples = 50 if quick else SAMPLES
    he_rows = 10 if quick else 40
    features = rng.normal(size=(samples, FEATURES))
    weights = rng.normal(size=FEATURES)
    cost_model = CostModel()
    network = NetworkProfile()

    keys = {bits: generate_keypair(bits, rng)
            for bits in (PAILLIER_BITS, HE_CLAIM_BITS)}
    # Every backend once per repeat, in turn; each timing is the median.
    # One row at the claim's key size (seconds each) is scaled like the
    # reduced-size rows: the ordering compares HE at a key size it would
    # deploy with.
    runs = alternating_repeats({
        "plain": lambda: max(run_plain(features, weights), 1e-6),
        "tee": lambda: run_tee(features, weights, rng, cost_model),
        "smc": lambda: run_smc(features, weights, rng, network),
        "he_384": lambda: (run_he(features[:he_rows], weights, rng,
                                  keys[PAILLIER_BITS])
                           * (samples / he_rows)),
        "he": lambda: (run_he(features[:1], weights, rng,
                              keys[HE_CLAIM_BITS]) * samples),
    })
    plain_s, tee_s, smc_s, he_384_s, he_s = (
        statistics.median(runs[name])
        for name in ("plain", "tee", "smc", "he_384", "he"))
    he_over_tee, he_over_tee_spread = median_spread(
        [he / tee for he, tee in zip(runs["he"], runs["tee"])])

    rows = [
        ["plain", f"{plain_s:.5f}", "1x"],
        ["tee", f"{tee_s:.5f}", f"{tee_s / plain_s:,.0f}x"],
        ["smc (3 parties)", f"{smc_s:.5f}", f"{smc_s / plain_s:,.0f}x"],
        [f"he (paillier {HE_CLAIM_BITS})", f"{he_s:.5f}",
         f"{he_s / plain_s:,.0f}x"],
        [f"he (paillier {PAILLIER_BITS})", f"{he_384_s:.5f}",
         f"{he_384_s / plain_s:,.0f}x"],
    ]
    lines = format_table(["backend", "seconds", "slowdown"], rows)
    lines.append(f"median of {TIMING_REPEATS} alternating repeats; he/tee "
                 f"{he_over_tee:,.0f}x, spread {he_over_tee_spread:.3f}")
    # Wall seconds are noisy on shared runners: only the qualitative
    # claims gate; the raw timings ride along as context.
    metrics = {
        "plain_s": info(plain_s, unit="s"),
        "tee_s": info(tee_s, unit="s"),
        "smc_s": info(smc_s, unit="s"),
        "he_s": info(he_s, unit="s"),
        "he_384_s": info(he_384_s, unit="s"),
        "he_over_tee": info(he_over_tee, unit="x"),
        "he_over_tee_spread": info(he_over_tee_spread),
    }
    claims = {
        "ordering_holds": plain_s < tee_s < smc_s < he_s,
        # HE is orders of magnitude beyond the TEE.
        "he_10x_tee": he_over_tee > 10,
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E3", "oblivious backends, linear scoring",
                        run_bench)
