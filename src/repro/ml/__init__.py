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
    compression_ratio,
    decompress_dense,
    merge_compressed_into,
)
from repro.ml.datasets import (
    Dataset,
    HAR_ACTIVITIES,
    label_distribution,
    make_binary_classification,
    make_blobs_classification,
    make_energy_consumption,
    make_iot_activity,
    make_linear_regression,
    split_by_label,
    split_dirichlet,
    split_iid,
    train_test_split,
)
from repro.ml.federated import (
    FederatedClient,
    FederatedConfig,
    FederatedResult,
    FederatedServer,
    FederatedTrainer,
    SERVER_ADDRESS,
)
from repro.ml.gossip import (
    GossipConfig,
    GossipNode,
    GossipNodeTrainer,
    GossipResult,
    GossipTrainer,
)
from repro.ml.merge import (
    MergeStrategy,
    TrackedModel,
    federated_average,
    merge_into,
    merge_parameter_vectors,
)
from repro.ml.models import (
    LinearRegressionModel,
    LogisticRegressionModel,
    MLPClassifier,
    Model,
    SoftmaxRegressionModel,
)

__all__ = [
    "CompressedUpdate",
    "CompressionConfig",
    "CompressionKind",
    "compress",
    "compression_ratio",
    "decompress_dense",
    "merge_compressed_into",
    "Dataset",
    "HAR_ACTIVITIES",
    "label_distribution",
    "make_binary_classification",
    "make_blobs_classification",
    "make_energy_consumption",
    "make_iot_activity",
    "make_linear_regression",
    "split_by_label",
    "split_dirichlet",
    "split_iid",
    "train_test_split",
    "FederatedClient",
    "FederatedConfig",
    "FederatedResult",
    "FederatedServer",
    "FederatedTrainer",
    "SERVER_ADDRESS",
    "GossipConfig",
    "GossipNode",
    "GossipNodeTrainer",
    "GossipResult",
    "GossipTrainer",
    "MergeStrategy",
    "TrackedModel",
    "federated_average",
    "merge_into",
    "merge_parameter_vectors",
    "LinearRegressionModel",
    "LogisticRegressionModel",
    "MLPClassifier",
    "Model",
    "SoftmaxRegressionModel",
]
