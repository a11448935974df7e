"""Communication-efficient model exchange for constrained devices.

Section III-C cites Giaretta & Girdzijauskas ("Gossip learning: off the
beaten path") on making gossip work "in constrained and highly heterogeneous
environments".  The practical lever is shrinking the model messages.  Two
standard compressors are implemented, both *merge-compatible* (a receiver
can fold a compressed update into its local model):

* **parameter subsampling** — send a random coordinate subset each round
  (the gossip analogue of federated dropout / sparsification);
* **uniform quantization** — send parameters at reduced bit width.

Compressed payloads carry exact byte-size accounting so the E15 ablation can
chart accuracy against bytes on the wire.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import MLError, ModelCompatibilityError
from repro.kernels.ops import (
    convex_combine_rows,
    dequantize_rows,
    quantize_rows,
)
from repro.ml.merge import MergeStrategy, TrackedModel


class CompressionKind(enum.Enum):
    """Available message compressors."""

    NONE = "none"
    SUBSAMPLE = "subsample"
    QUANTIZE = "quantize"


@dataclass(frozen=True)
class CompressionConfig:
    """How a gossip node compresses its outgoing model messages.

    ``subsample_fraction`` is the fraction of coordinates sent per message
    (SUBSAMPLE); ``quantize_bits`` the per-parameter bit width (QUANTIZE).
    """

    kind: CompressionKind = CompressionKind.NONE
    subsample_fraction: float = 0.25
    quantize_bits: int = 8

    def __post_init__(self) -> None:
        if not 0 < self.subsample_fraction <= 1:
            raise MLError("subsample fraction must be in (0, 1]")
        if not 2 <= self.quantize_bits <= 32:
            raise MLError("quantization width must be in [2, 32] bits")


@dataclass(frozen=True)
class CompressedUpdate:
    """A wire-format model update.

    Exactly one of the representations is populated, matching ``kind``:
    dense ``values`` (NONE), sparse ``(indices, values)`` (SUBSAMPLE), or
    quantized ``(codes, scale_min, scale_max)`` (QUANTIZE).
    """

    kind: CompressionKind
    num_params: int
    age: int
    samples: int
    values: np.ndarray | None = None
    indices: np.ndarray | None = None
    codes: np.ndarray | None = None
    scale_min: float = 0.0
    scale_max: float = 0.0
    quantize_bits: int = 8

    @property
    def size_bytes(self) -> int:
        """Honest wire size of this update (plus a 64-byte envelope)."""
        overhead = 64
        if self.kind is CompressionKind.NONE:
            return overhead + self.values.nbytes
        if self.kind is CompressionKind.SUBSAMPLE:
            return overhead + self.indices.nbytes + self.values.nbytes
        payload_bits = self.num_params * self.quantize_bits
        return overhead + 16 + math.ceil(payload_bits / 8)


def compress(params: np.ndarray, age: int, samples: int,
             config: CompressionConfig,
             rng: np.random.Generator) -> CompressedUpdate:
    """Build the wire update for one outgoing gossip message."""
    params = np.asarray(params, dtype=float)
    if config.kind is CompressionKind.NONE:
        return CompressedUpdate(
            kind=config.kind, num_params=len(params), age=age,
            samples=samples, values=params.copy(),
        )
    if config.kind is CompressionKind.SUBSAMPLE:
        count = max(1, int(round(len(params) * config.subsample_fraction)))
        indices = np.sort(rng.choice(len(params), size=count,
                                     replace=False)).astype(np.int32)
        return CompressedUpdate(
            kind=config.kind, num_params=len(params), age=age,
            samples=samples, indices=indices,
            values=params[indices].copy(),
        )
    # Uniform quantization over the parameter range.  Routed through the
    # shared row kernel so the vectorized gossip engine (which quantizes a
    # whole round of messages at once) is bit-identical by construction.
    codes, low, high = quantize_rows(params[None, :], config.quantize_bits)
    return CompressedUpdate(
        kind=config.kind, num_params=len(params), age=age, samples=samples,
        codes=codes[0], scale_min=float(low[0]), scale_max=float(high[0]),
        quantize_bits=config.quantize_bits,
    )


def decompress_dense(update: CompressedUpdate) -> np.ndarray:
    """Reconstruct a dense vector from a NONE or QUANTIZE update."""
    if update.kind is CompressionKind.NONE:
        return update.values.copy()
    if update.kind is CompressionKind.QUANTIZE:
        return dequantize_rows(
            update.codes[None, :],
            np.asarray([update.scale_min]),
            np.asarray([update.scale_max]),
            update.quantize_bits,
        )[0]
    raise MLError("subsampled updates have no dense reconstruction; "
                  "merge them with merge_compressed_into")


def merge_compressed_into(local: TrackedModel, update: CompressedUpdate,
                          strategy: MergeStrategy) -> None:
    """Fold a compressed update into a local model in place.

    Dense/quantized updates merge like ordinary vectors.  Subsampled
    updates merge *coordinate-wise*: only the transmitted coordinates move,
    each toward the remote value with the strategy's weighting — the
    standard partitioned-merge rule for sparsified gossip.
    """
    if update.num_params != local.model.num_params:
        raise ModelCompatibilityError("update has incompatible shape")
    if update.kind in (CompressionKind.NONE, CompressionKind.QUANTIZE):
        remote = decompress_dense(update)
        weights = _strategy_weights(local, update, strategy)
        # Elementwise pairwise combine shared with the kernel engine (see
        # repro.kernels.ops for why this form, not a dgemv, is used).
        merged = convex_combine_rows(local.model.params, remote,
                                     weights[0], weights[1])
        local.model.set_params(merged)
    else:
        params = local.model.params
        weights = _strategy_weights(local, update, strategy)
        total = weights[0] + weights[1]
        local_coeff = weights[0] / total
        remote_coeff = weights[1] / total
        params[update.indices] = (local_coeff * params[update.indices]
                                  + remote_coeff * update.values)
        local.model.set_params(params)
    local.age = max(local.age, update.age)


def _strategy_weights(local: TrackedModel, update: CompressedUpdate,
                      strategy: MergeStrategy) -> list[float]:
    if strategy is MergeStrategy.AVERAGE:
        return [1.0, 1.0]
    if strategy is MergeStrategy.SAMPLE_WEIGHTED:
        return [float(max(1, local.samples)), float(max(1, update.samples))]
    return [float(max(1, local.age)), float(max(1, update.age))]
