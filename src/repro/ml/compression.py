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

from repro.errors import MLError
from repro.kernels.ops import quantize_rows


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
