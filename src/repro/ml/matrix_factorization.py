"""Low-rank matrix factorization as a gossip-learnable model.

The paper's gossip-learning citations include Hegedűs et al.'s "Robust
Decentralized Low-Rank Matrix Decomposition" — recommendation-style
workloads where each provider holds the ratings of *one user* and the
*item factor matrix* is what gossips between nodes (user factors stay
private at the provider, which is the privacy point).

:class:`ItemFactorModel` implements that split:

* the flat parameter vector (what travels / merges) is the item-factor
  matrix ``V`` (items x rank);
* ``loss`` / ``gradient`` / ``score`` take rating triples and internally
  solve the *local* user factor ``u`` by ridge regression before
  differentiating with respect to ``V`` — the standard alternating
  formulation, collapsed so the model fits the :class:`~repro.ml.models.Model`
  interface used by :func:`~repro.ml.gossip.GossipTrainer`.

Ratings are encoded as feature rows ``(item_index, rating)`` so the
existing ``Dataset`` plumbing works unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError
from repro.ml.datasets import Dataset
from repro.ml.models import Model


def make_ratings_problem(num_users: int, num_items: int, rank: int,
                         ratings_per_user: int,
                         rng: np.random.Generator,
                         noise: float = 0.1) -> tuple[list[Dataset], Dataset]:
    """Generate a synthetic low-rank ratings problem.

    Returns one :class:`Dataset` per user (their private rating rows,
    features = ``[item_index, rating]``) plus a held-out global test set
    with the same encoding.
    """
    if ratings_per_user > num_items:
        raise MLError("cannot rate more items than exist")
    true_users = rng.normal(0.0, 1.0, (num_users, rank)) / np.sqrt(rank)
    true_items = rng.normal(0.0, 1.0, (num_items, rank)) / np.sqrt(rank)
    per_user: list[Dataset] = []
    test_rows = []
    for user in range(num_users):
        items = rng.choice(num_items, size=ratings_per_user, replace=False)
        values = (true_users[user] @ true_items[items].T
                  + rng.normal(0.0, noise, ratings_per_user))
        split = max(1, int(0.8 * ratings_per_user))
        train_features = np.column_stack([
            items[:split].astype(float), values[:split],
        ])
        per_user.append(Dataset(
            features=train_features,
            targets=values[:split],
            feature_names=("item", "rating"),
            name=f"user-{user}",
        ))
        for item, value in zip(items[split:], values[split:]):
            test_rows.append((float(item), float(value)))
    test_features = np.array([[item, value] for item, value in test_rows])
    return per_user, Dataset(
        features=test_features,
        targets=test_features[:, 1],
        feature_names=("item", "rating"),
        name="ratings-test",
    )


class ItemFactorModel(Model):
    """The shared item-factor half of a low-rank factorization.

    Parameters: the row-major flattening of ``V`` (num_items x rank).
    Each call re-fits the local user vector by ridge regression over the
    given rating rows, then evaluates/differentiates the reconstruction
    error with respect to ``V`` only.
    """

    def __init__(self, num_items: int, rank: int = 4, l2: float = 0.1,
                 init_rng: np.random.Generator | None = None):
        if num_items < 1 or rank < 1:
            raise MLError("need at least one item and rank >= 1")
        self.num_items = num_items
        self.rank = rank
        self.l2 = l2
        super().__init__(num_features=2)  # rows are (item, rating)
        if init_rng is not None:
            self.initialize(init_rng)

    def initialize(self, rng: np.random.Generator) -> None:
        """Small random item factors (deterministic under a seed)."""
        factors = rng.normal(0.0, 1.0 / np.sqrt(self.rank),
                             (self.num_items, self.rank))
        self._params = factors.ravel()

    @property
    def num_params(self) -> int:
        return self.num_items * self.rank

    def architecture_copy(self) -> "ItemFactorModel":
        return ItemFactorModel(self.num_items, self.rank, l2=self.l2)

    # -- internals ------------------------------------------------------------

    def _factors(self) -> np.ndarray:
        return self._params.reshape(self.num_items, self.rank)

    @staticmethod
    def _decode_rows(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        items = features[:, 0].astype(int)
        ratings = features[:, 1]
        return items, ratings

    def _solve_user(self, items: np.ndarray,
                    ratings: np.ndarray) -> np.ndarray:
        """Ridge solve for the local user vector given current ``V``."""
        sub = self._factors()[items]
        gram = sub.T @ sub + self.l2 * np.eye(self.rank)
        return np.linalg.solve(gram, sub.T @ ratings)

    # -- Model interface -------------------------------------------------------

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Reconstructed ratings for the rows' (user-implicit) items."""
        items, ratings = self._decode_rows(features)
        if not len(items):
            return np.zeros(0)
        if items.max() >= self.num_items:
            raise MLError("item index out of range")
        user = self._solve_user(items, ratings)
        return self._factors()[items] @ user

    def loss(self, features: np.ndarray, targets: np.ndarray) -> float:
        items, ratings = self._decode_rows(features)
        predictions = self.predict(features)
        reg = self.l2 * float(np.sum(self._factors()[items] ** 2))
        return float(np.mean((predictions - ratings) ** 2) / 2
                     + reg / max(1, len(items)))

    def gradient(self, features: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
        items, ratings = self._decode_rows(features)
        if items.max() >= self.num_items:
            raise MLError("item index out of range")
        user = self._solve_user(items, ratings)
        sub = self._factors()[items]
        residual = sub @ user - ratings
        grad = np.zeros_like(self._factors())
        # d/dV_i of 1/2n sum (v_i.u - r)^2 + l2/n |v_i|^2.
        contributions = (np.outer(residual, user)
                         + self.l2 * sub) / len(items)
        np.add.at(grad, items, contributions)
        return grad.ravel()

    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Negative RMSE over per-user blocks (higher is better).

        The test set interleaves many users; rows are grouped into blocks
        of consecutive identical-user chunks implicitly via local solves
        over the full set, which is a slight simplification recorded here:
        each call solves ONE user vector for the given rows, so callers
        should score per provider and average for strict fidelity.
        """
        predictions = self.predict(features)
        _, ratings = self._decode_rows(features)
        rmse = float(np.sqrt(np.mean((predictions - ratings) ** 2)))
        return -rmse


def rmse_per_user(model: ItemFactorModel,
                  user_datasets: list[Dataset]) -> float:
    """Mean per-user RMSE (the strict evaluation for gossip MF)."""
    errors = []
    for data in user_datasets:
        predictions = model.predict(data.features)
        errors.append(
            float(np.sqrt(np.mean((predictions - data.targets) ** 2)))
        )
    return float(np.mean(errors))
