"""Decentralized machine learning (paper Section III-C).

Numpy models with a flat-parameter interface, synthetic IoT datasets and
non-IID partitioners, merge strategies, the gossip learning protocol the
paper selects, and the FedAvg baseline it compares against.
"""

from repro.ml.compression import (
    CompressedUpdate,
    CompressionConfig,
    CompressionKind,
    compress,
)
from repro.ml.datasets import (
    Dataset,
    HAR_ACTIVITIES,
    make_binary_classification,
    make_energy_consumption,
    make_iot_activity,
    split_by_label,
    split_dirichlet,
    split_iid,
    train_test_split,
)
from repro.ml.federated import (
    FederatedConfig,
    FederatedResult,
    FederatedTrainer,
)
from repro.ml.gossip import (
    GossipConfig,
    GossipResult,
    GossipTrainer,
)
from repro.ml.merge import (
    MergeStrategy,
    merge_parameter_vectors,
)
from repro.ml.models import (
    LinearRegressionModel,
    MLPClassifier,
    Model,
    SoftmaxRegressionModel,
)

__all__ = [
    "CompressedUpdate",
    "CompressionConfig",
    "CompressionKind",
    "compress",
    "Dataset",
    "HAR_ACTIVITIES",
    "make_binary_classification",
    "make_energy_consumption",
    "make_iot_activity",
    "split_by_label",
    "split_dirichlet",
    "split_iid",
    "train_test_split",
    "FederatedConfig",
    "FederatedResult",
    "FederatedTrainer",
    "GossipConfig",
    "GossipResult",
    "GossipTrainer",
    "MergeStrategy",
    "merge_parameter_vectors",
    "LinearRegressionModel",
    "MLPClassifier",
    "Model",
    "SoftmaxRegressionModel",
]
