"""A NumPy federated-learning substrate.

The paper trains PyTorch models on CIFAR-10/100, FEMNIST, and Reddit over
100–1000 clients (§6.1).  Offline and CPU-only, we substitute synthetic
federated tasks with the same structure (documented in DESIGN.md §1):

- :mod:`repro.fl.data`    — synthetic classification corpora partitioned
  non-IID with latent Dirichlet allocation (the paper's partitioner) and
  a Markov-text corpus for next-token perplexity.
- :mod:`repro.fl.models`  — pure-NumPy models with a flat-parameter
  interface: softmax regression, an MLP, a small conv net, and a bigram
  language model.
- :mod:`repro.fl.optim`   — SGD with momentum and AdamW on flat vectors.
- :mod:`repro.fl.client` / :mod:`repro.fl.server` — local training and
  FedAvg aggregation.

Client availability (who drops out of a round) is a property of the
device population, not of the learning algorithm: see
:mod:`repro.fleet.availability`.
"""

from repro.fl.data import (
    FederatedDataset,
    lda_partition,
    make_classification_task,
    make_cifar10_like,
    make_cifar100_like,
    make_femnist_like,
    make_text_task,
)
from repro.fl.models import (
    SoftmaxRegression,
    MLPClassifier,
    ConvClassifier,
    BigramLM,
)
from repro.fl.optim import SGD, AdamW
from repro.fl.client import LocalTrainer
from repro.fl.server import FedAvgServer

__all__ = [
    "FederatedDataset",
    "lda_partition",
    "make_classification_task",
    "make_cifar10_like",
    "make_cifar100_like",
    "make_femnist_like",
    "make_text_task",
    "SoftmaxRegression",
    "MLPClassifier",
    "ConvClassifier",
    "BigramLM",
    "SGD",
    "AdamW",
    "LocalTrainer",
    "FedAvgServer",
]
