"""Server-side FedAvg aggregation.

The server refines the global model with the mean of the participants'
updates (§2.1).  With distributed DP the *sum* arrives from secure
aggregation already noised; dividing by the participant count yields the
noisy mean this class consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fl.models import FlatModel


@dataclass
class FedAvgServer:
    """Holds the global model and applies aggregate updates."""

    model: FlatModel
    server_lr: float = 1.0
    rounds_applied: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.server_lr <= 0:
            raise ValueError("server_lr must be positive")
        self.global_params = self.model.clone_params()

    def apply_update_sum(self, update_sum: np.ndarray, n_participants: int) -> None:
        """FedAvg step from a *sum* of updates (what SecAgg outputs)."""
        if n_participants < 1:
            raise ValueError("need at least one participant")
        if update_sum.shape != self.global_params.shape:
            raise ValueError(
                f"update shape {update_sum.shape} != model "
                f"shape {self.global_params.shape}"
            )
        mean = update_sum / n_participants
        self.global_params = self.global_params + self.server_lr * mean
        self.model.set_flat(self.global_params)
        self.rounds_applied += 1

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        self.model.set_flat(self.global_params)
        return self.model.accuracy(x, y)

    def evaluate_perplexity(self, x: np.ndarray, y: np.ndarray) -> float:
        self.model.set_flat(self.global_params)
        return self.model.perplexity(x, y)
