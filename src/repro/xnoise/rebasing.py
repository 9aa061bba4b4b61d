"""The 'rebasing' add-then-remove baseline (§3.1, adopted by Baek et al.).

Rebasing also over-adds noise, but removes the excess differently: after
the dropout outcome is known, every survivor samples the *newly-required*
noise n_u, and transmits the full correction vector ``n_u − n_o`` to the
server (sending either noise alone would let the server reconstruct the
noise-free aggregate).  Two consequences the paper exploits (§3.1, §6.3,
Table 3):

1. **Cost** — the correction is a model-sized vector, so the removal
   traffic grows linearly with the model, while XNoise ships 32-byte
   seeds.
2. **Robustness** — the correction can be neither seed-compressed nor
   secret-shared ahead of time (it depends on the dropout outcome), so a
   survivor dropping mid-removal leaves the aggregate at the *wrong*
   noise level with no recovery path.

This module implements a working float-domain simulation of the scheme
(used by the comparison tests) and the network-footprint model behind
Table 3, which compares the *additional* per-round traffic a surviving
client pays for noise enforcement, relative to Orig:

- **rebasing**: one full model-sized correction vector — grows linearly
  with the model (11.9 MB at 5M weights → 1192 MB at 500M);
- **XNoise**: seed bookkeeping only — Shamir shares of the T noise-
  component seeds, distributed through ciphertexts to the other sampled
  clients, plus the revealed seeds.  Independent of model size, growing
  ~quadratically with the sample size, and *shrinking* slightly with the
  dropout rate (fewer components to reveal/recover).

Deployment constants from §6.3: model weight 2.5 B, noise seed 32 B,
Shamir share of a seed 16 B, ciphertext of a share 120 B.  The dropout
tolerance follows the paper's Table 3 setting T = ⌈|U|/2⌉.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import derive_rng
from repro.xnoise.decomposition import per_client_variance


@dataclass
class RebasingRoundOutcome:
    """What a rebasing round produced.

    ``achieved_variance`` is the aggregate noise level actually present;
    it equals the target only if every survivor completed noise removal.
    """

    aggregate: np.ndarray
    achieved_variance: float
    target_variance: float
    removal_bytes_per_survivor: int

    @property
    def enforced(self) -> bool:
        return abs(self.achieved_variance - self.target_variance) < 1e-9


class RebasingScheme:
    """Float-domain simulation of rebasing over one round."""

    def __init__(self, n_sampled: int, tolerance: int, target_variance: float):
        self.n_sampled = n_sampled
        self.tolerance = tolerance
        self.target_variance = target_variance
        self.client_variance = per_client_variance(
            n_sampled, tolerance, target_variance
        )

    def run_round(
        self,
        updates: dict[int, np.ndarray],
        dropped: set[int],
        removal_dropouts: set[int] | None = None,
        seed: int = 0,
        element_bytes: float = 2.5,
    ) -> RebasingRoundOutcome:
        """Aggregate with rebasing noise enforcement.

        ``dropped`` leave before upload; ``removal_dropouts`` are
        survivors that vanish during the correction phase — their old
        (excessive) noise stays in the aggregate, demonstrating the
        robustness gap.
        """
        if len(updates) != self.n_sampled:
            raise ValueError("updates must cover the sampled set")
        if not dropped <= set(updates):
            raise ValueError("dropped ids must be sampled clients")
        removal_dropouts = set(removal_dropouts or set())
        survivors = [u for u in sorted(updates) if u not in dropped]
        n_dropped = len(dropped)
        if n_dropped > self.tolerance:
            raise ValueError("dropout beyond tolerance")

        dim = next(iter(updates.values())).shape[0]
        rng = derive_rng("rebasing", seed)
        aggregate = np.zeros(dim)
        achieved = 0.0
        new_variance = self.target_variance / len(survivors)
        for u in survivors:
            old_noise = rng.normal(0, np.sqrt(self.client_variance), dim)
            aggregate = aggregate + updates[u] + old_noise
            if u in removal_dropouts:
                # Correction never arrives; the old noise stays.
                achieved += self.client_variance
            else:
                new_noise = rng.normal(0, np.sqrt(new_variance), dim)
                aggregate = aggregate + (new_noise - old_noise)
                achieved += new_variance
        removal_bytes = rebasing_removal_bytes(dim, element_bytes)
        return RebasingRoundOutcome(
            aggregate=aggregate,
            achieved_variance=achieved,
            target_variance=self.target_variance,
            removal_bytes_per_survivor=removal_bytes,
        )


def rebasing_removal_bytes(model_size: int, element_bytes: float = 2.5) -> int:
    """Per-survivor removal traffic of rebasing: one full noise vector.

    Table 3's deployment constants: 2.5 bytes per model weight.
    """
    if model_size <= 0:
        raise ValueError("model_size must be positive")
    return int(model_size * element_bytes)


#: §6.3 deployment constants (bytes).
WEIGHT_BYTES = 2.5
SEED_BYTES = 32
SHARE_BYTES = 16
CIPHERTEXT_BYTES = 120


def xnoise_extra_bytes(
    n_sampled: int,
    dropout_rate: float = 0.0,
    tolerance: int | None = None,
    unmask_dropout_fraction: float = 0.05,
) -> int:
    """Per-round extra traffic of a surviving client under XNoise (bytes).

    Components:

    1. ShareKeys: T seed-shares encrypted to each of the |U|−1 peers —
       T·(|U|−1)·120 B (this dominates and is model-size independent);
    2. Unmasking: direct reveal of the T−|D| excess seeds — (T−|D|)·32 B;
    3. Stage 5: contributed shares for survivors that dropped mid-
       removal — (T−|D|)·f·|U|·16 B with f the unmask-dropout fraction.

    Terms 2–3 shrink as the dropout rate grows (Eq. 2's monotonicity),
    which is why the Table-3 columns decrease slightly with d.
    """
    if n_sampled < 2:
        raise ValueError("need at least 2 sampled clients")
    if not 0 <= dropout_rate < 1:
        raise ValueError("dropout_rate must be in [0, 1)")
    t = tolerance if tolerance is not None else (n_sampled + 1) // 2
    if not 0 <= t < n_sampled:
        raise ValueError("tolerance must be in [0, n_sampled)")
    dropped = int(round(dropout_rate * n_sampled))
    removable = max(t - min(dropped, t), 0)
    share_dist = t * (n_sampled - 1) * CIPHERTEXT_BYTES
    reveal = removable * SEED_BYTES
    recovery = int(removable * unmask_dropout_fraction * n_sampled * SHARE_BYTES)
    return share_dist + reveal + recovery


@dataclass(frozen=True)
class Table3Row:
    """One Table-3 cell pair: rebasing vs XNoise, in MB."""

    model_size: int
    n_sampled: int
    dropout_rate: float
    rebasing_mb: float
    xnoise_mb: float


def table3_row(
    model_size: int, n_sampled: int, dropout_rate: float
) -> Table3Row:
    """Compute one (model size, sample size, dropout) Table-3 row."""
    return Table3Row(
        model_size=model_size,
        n_sampled=n_sampled,
        dropout_rate=dropout_rate,
        rebasing_mb=rebasing_removal_bytes(model_size, WEIGHT_BYTES) / 2**20,
        xnoise_mb=xnoise_extra_bytes(n_sampled, dropout_rate) / 2**20,
    )
