"""Stacked numeric kernels shared by both gossip engines.

Complexity contract
-------------------

All kernels operate on preallocated flat arrays; ``G`` is the number of
stacked models (nodes in one group), ``P`` the flat parameter count,
``B`` the minibatch size, ``F``/``C`` features/classes, ``S`` test-set
size, ``K`` the number of drawn indices:

* :meth:`SoftmaxFamily.sgd_step`      — O(G·B·F·C) flops, O(G·(B·C + P)) memory
* :meth:`SoftmaxFamily.scores`        — O(G·S·F·C) flops, O(G·S·C) memory
* :func:`convex_combine_rows`         — O(G·P) flops
* :func:`quantize_rows` / :func:`dequantize_rows` — O(G·P)
* :func:`clamped_floor_indices`       — O(K) integer ops
* :func:`counts_to_offsets`           — O(K) integer ops
* :func:`wake_schedule`               — O(rounds)

Determinism rules
-----------------

The gossip kernel engine promises **byte-identical** results to the object
engine at matched seeds.  That holds because both engines call the *same*
functions below, and every function is elementwise-stable under stacking:

* batched ``np.matmul`` over a ``(G, …)`` stack executes the identical
  per-slice dgemm as the ``G`` separate 2-D calls, so a stacked step equals
  the per-node step bit-for-bit (the object engine calls these kernels with
  ``G == 1``);
* merges are elementwise convex combinations (never a ``coeffs @ stacked``
  dgemv, whose accumulation order would differ from the scalar form);
* everything is plain numpy: a compiler that may emit FMA or fastmath code
  would differ from numpy in the last ulp and break the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.models import Model, SoftmaxRegressionModel
from repro.utils.rng import derive_rng

__all__ = [
    "SoftmaxFamily",
    "family_of",
    "convex_combine_rows",
    "quantize_rows",
    "dequantize_rows",
    "clamped_floor_indices",
    "counts_to_offsets",
    "wake_schedule",
    "sample_eval_indices",
]


# -- model-family kernels --------------------------------------------------------


@dataclass(frozen=True)
class SoftmaxFamily:
    """Vectorized ops for :class:`SoftmaxRegressionModel` parameter stacks.

    The parameter layout matches the model: ``W.ravel()`` (``F*C``,
    row-major) followed by the bias (``C``).
    """

    num_features: int
    num_classes: int
    l2: float

    @property
    def num_params(self) -> int:
        return (self.num_features + 1) * self.num_classes

    def _matrices(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        group = params.shape[0]
        cut = self.num_features * self.num_classes
        weights = params[:, :cut].reshape(group, self.num_features,
                                          self.num_classes)
        bias = params[:, cut:]
        return weights, bias

    def _probabilities(self, params: np.ndarray,
                       features: np.ndarray) -> np.ndarray:
        """Stacked softmax probabilities.

        ``features`` is ``(G, B, F)`` (per-model batches) or ``(B, F)``
        (one shared batch broadcast across the stack); result ``(G, B, C)``.
        """
        weights, bias = self._matrices(params)
        logits = np.matmul(features, weights)
        logits += bias[:, None, :]
        # Max/sum over the class axis via explicit left-fold column loops:
        # numpy's reduction over a tiny trailing axis pays per-row ufunc
        # overhead ~15x the arithmetic.  The fold order is fixed (class
        # 0..C-1), so the function stays deterministic and both engines —
        # which share this exact code path — remain bit-identical.  The
        # first pair is combined directly (num_classes >= 2 always) so no
        # strided copy is needed to seed the fold.
        peak = np.maximum(logits[:, :, 0], logits[:, :, 1])
        for cls in range(2, self.num_classes):
            np.maximum(peak, logits[:, :, cls], out=peak)
        logits -= peak[:, :, None]
        np.exp(logits, out=logits)
        norm = logits[:, :, 0] + logits[:, :, 1]
        for cls in range(2, self.num_classes):
            norm += logits[:, :, cls]
        logits /= norm[:, :, None]
        return logits

    def sgd_step(self, params: np.ndarray, batch_features: np.ndarray,
                 batch_targets: np.ndarray, learning_rate: float) -> None:
        """One minibatch SGD step for every model in the stack, in place.

        ``params`` is ``(G, P)``; ``batch_features`` ``(G, B, F)``;
        ``batch_targets`` ``(G, B)`` int.  Mirrors
        :meth:`SoftmaxRegressionModel.gradient` +
        :meth:`~repro.ml.models.Model.sgd_step` operation-for-operation so
        a ``G == 1`` call reproduces the per-object step bit-identically.
        """
        group, batch = batch_targets.shape
        weights, _ = self._matrices(params)
        probs = self._probabilities(params, batch_features)
        probs[np.arange(group)[:, None], np.arange(batch)[None, :],
              batch_targets] -= 1.0
        probs /= batch
        grad_w = np.matmul(batch_features.transpose(0, 2, 1), probs)
        if self.l2:
            grad_w += self.l2 * weights
        grad_b = probs.sum(axis=1)
        cut = self.num_features * self.num_classes
        params[:, :cut] -= learning_rate * grad_w.reshape(group, cut)
        params[:, cut:] -= learning_rate * grad_b

    def scores(self, params: np.ndarray, features: np.ndarray,
               targets: np.ndarray) -> np.ndarray:
        """Test accuracy of every model in the stack: ``(G,)`` floats.

        Shares the probability computation with :meth:`sgd_step` (softmax
        then argmax), matching :meth:`SoftmaxRegressionModel.score`'s
        argmax-of-probabilities semantics.  Scored in blocks of models so
        the ``(G, S, C)`` logits cube stays cache-resident even for
        10k-node populations; each row is computed independently, so the
        blocking leaves every score bit-identical to the one-shot call.
        """
        group = params.shape[0]
        out = np.empty(group)
        block = 256
        for start in range(0, group, block):
            stop = min(start + block, group)
            probs = self._probabilities(params[start:stop], features)
            predictions = np.argmax(probs, axis=2)
            out[start:stop] = np.mean(predictions == targets, axis=1)
        return out


def family_of(model: Model) -> "SoftmaxFamily | None":
    """The vectorized family for ``model``, or None when unsupported."""
    if type(model) is SoftmaxRegressionModel:
        return SoftmaxFamily(
            num_features=model.num_features,
            num_classes=model.num_classes,
            l2=model.l2,
        )
    return None


# -- merge / compression kernels --------------------------------------------------


def convex_combine_rows(local: np.ndarray, remote: np.ndarray,
                        local_weight, remote_weight) -> np.ndarray:
    """Pairwise convex combination, elementwise.

    Weights are scalars (object engine) or ``(G, 1)`` columns (kernel
    engine); either way each element computes
    ``w_l/(w_l+w_r) * local + w_r/(w_l+w_r) * remote`` with identical
    floating-point operations, which is why both engines share this
    function instead of the dgemv in ``merge_parameter_vectors``.
    """
    total = local_weight + remote_weight
    local_coeff = local_weight / total
    remote_coeff = remote_weight / total
    return local_coeff * local + remote_coeff * remote


def quantize_rows(values: np.ndarray,
                  bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise uniform quantization: ``(codes, low, high)``.

    Mirrors :func:`repro.ml.compression.compress`'s QUANTIZE branch
    per row (min/max range, ``round(normalized * levels)``).
    """
    low = values.min(axis=1)
    high = values.max(axis=1)
    levels = (1 << bits) - 1
    span = high - low
    codes = np.zeros(values.shape, dtype=np.int64)
    spread = span > 0
    if np.any(spread):
        normalized = ((values[spread] - low[spread, None])
                      / span[spread, None])
        codes[spread] = np.round(normalized * levels).astype(np.int64)
    return codes, low, high


def dequantize_rows(codes: np.ndarray, low: np.ndarray, high: np.ndarray,
                    bits: int) -> np.ndarray:
    """Row-wise inverse of :func:`quantize_rows`.

    Mirrors :func:`repro.ml.compression.decompress_dense`:
    ``low + codes / levels * span`` with the same operation order.
    """
    levels = (1 << bits) - 1
    span = high - low
    dense = low[:, None] + codes / levels * span[:, None]
    flat = span == 0
    if np.any(flat):
        dense[flat] = low[flat, None]
    return dense


# -- integer bookkeeping ---------------------------------------------------------


def clamped_floor_indices(uniforms: np.ndarray,
                          limits: np.ndarray) -> np.ndarray:
    """Map uniforms in ``[0, 1)`` to indices ``floor(u * limit)``.

    The clamp guards the (rounding-only) case where ``u * limit`` lands
    exactly on ``limit``.
    """
    scaled = (uniforms * limits).astype(np.int64)
    return np.minimum(scaled, limits - 1)


def counts_to_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: offsets of variable-length groups in a flat
    array; ``offsets[-1]`` is the total."""
    offsets = np.empty(len(counts) + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    return offsets


# -- shared schedule/eval helpers --------------------------------------------------


def wake_schedule(first: float, interval: float,
                  duration: float) -> np.ndarray:
    """Absolute wake times ``first + k*interval`` with ``t <= duration``.

    Both engines build wake timelines from this exact expression (a single
    broadcast multiply-add over ``arange``), so their event times agree to
    the last bit.
    """
    if first > duration:
        return np.empty(0)
    estimate = int((duration - first) / interval) + 2
    times = first + interval * np.arange(estimate)
    return times[times <= duration]


#: Nodes an accuracy checkpoint scores (all of them in a smaller network).
EVAL_SAMPLE_NODES = 16


def sample_eval_indices(seed: int, num_nodes: int) -> np.ndarray:
    """Seeded, sorted sample of :data:`EVAL_SAMPLE_NODES` nodes for
    accuracy checkpoints.

    Derived from the experiment seed under its own label so evaluation
    sampling neither consumes nor perturbs any protocol stream.
    """
    take = min(EVAL_SAMPLE_NODES, num_nodes)
    rng = derive_rng(seed, "gossip-eval")
    return np.sort(rng.choice(num_nodes, size=take, replace=False))
