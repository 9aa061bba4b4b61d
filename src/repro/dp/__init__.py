"""Distributed differential privacy: accounting, mechanisms, planning.

Distributed DP (§2.2) specifies a global privacy budget (ε_G, δ_G) that is
consumed by every released aggregate update.  The pieces:

- :mod:`repro.dp.accountant` — Rényi-DP accounting: per-round RDP curves
  for the Gaussian and Skellam mechanisms, composition across rounds, and
  conversion to (ε, δ).
- :mod:`repro.dp.gaussian`   — the distributed Gaussian mechanism (each
  client adds a share of the target variance; Gaussian is closed under
  summation).
- :mod:`repro.dp.skellam`    — the DSkellam mechanism [Agarwal et al.
  2021] the paper's prototype employs (§5): clip → scale → rotate →
  conditionally round → add Skellam noise → wrap modulo 2**b.
- :mod:`repro.dp.sampler`    — seed → Skellam noise, specified in the
  repo: the vector XNoise's clients add and its server removes
  (SHA-256 counter stream, strip rejection, native kernel + numpy twin).
- :mod:`repro.dp.quantize`   — clipping, stochastic rounding, modular
  (un)wrapping.
- :mod:`repro.dp.rotation`   — the randomized Hadamard transform used to
  flatten coordinate magnitudes before quantization.
- :mod:`repro.dp.planner`    — offline noise planning: the smallest
  per-round noise level σ²_* whose R-fold composition stays within the
  global budget.
"""

from repro.dp.accountant import (
    RdpAccountant,
    gaussian_rdp,
    skellam_rdp,
    rdp_to_epsilon,
    DEFAULT_ORDERS,
)
from repro.dp.gaussian import DistributedGaussianMechanism
from repro.dp.skellam import SkellamMechanism, SkellamConfig
from repro.dp.quantize import (
    clip_l2,
    stochastic_round,
    wrap_modular,
    unwrap_modular,
)
from repro.dp.rotation import RandomizedHadamard
from repro.dp.planner import NoisePlan, plan_noise
from repro.dp.dgauss import (
    DGaussConfig,
    DiscreteGaussianMechanism,
    sample_discrete_gaussian,
)

__all__ = [
    "RdpAccountant",
    "gaussian_rdp",
    "skellam_rdp",
    "rdp_to_epsilon",
    "DEFAULT_ORDERS",
    "DistributedGaussianMechanism",
    "SkellamMechanism",
    "SkellamConfig",
    "clip_l2",
    "stochastic_round",
    "wrap_modular",
    "unwrap_modular",
    "RandomizedHadamard",
    "NoisePlan",
    "plan_noise",
    "DGaussConfig",
    "DiscreteGaussianMechanism",
    "sample_discrete_gaussian",
]
