"""Distributed differential privacy: accounting, mechanisms, planning.

Distributed DP (§2.2) specifies a global privacy budget (ε_G, δ_G) that is
consumed by every released aggregate update.  The pieces:

- :mod:`repro.dp.accountant` — Rényi-DP accounting: per-round RDP curves
  for the Gaussian and Skellam mechanisms, composition across rounds, and
  conversion to (ε, δ).
- :mod:`repro.dp.skellam`    — the DSkellam mechanism [Agarwal et al.
  2021] the paper's prototype employs (§5): clip → scale → rotate →
  conditionally round → add Skellam noise → wrap modulo 2**b.
- :mod:`repro.dp.sampler`    — seed → Skellam noise, specified in the
  repo: the vector XNoise's clients add and its server removes
  (AES-256-CTR stream, strip rejection, native kernel + numpy twin).
- :mod:`repro.dp.quantize`   — clipping, stochastic rounding, modular
  (un)wrapping.
- :mod:`repro.dp.rotation`   — the randomized Hadamard transform used to
  flatten coordinate magnitudes before quantization.
- :mod:`repro.dp.planner`    — offline noise planning: the smallest
  per-round noise level σ²_* whose R-fold composition stays within the
  global budget.

The real-domain Gaussian mechanism (``DordisConfig.mechanism =
"gaussian"``) is :func:`clip_l2` plus one ``rng.normal`` draw inline in
``DordisSession._aggregate``.  There is no discrete Gaussian: it is not
closed under summation, so XNoise's add-then-remove cannot run on it —
the reason Dordis uses DSkellam (§5).
"""

from repro.dp.accountant import (
    RdpAccountant,
    gaussian_rdp,
    skellam_rdp,
    rdp_to_epsilon,
    DEFAULT_ORDERS,
)
from repro.dp.skellam import SkellamMechanism, SkellamConfig
from repro.dp.quantize import (
    clip_l2,
    stochastic_round,
    wrap_modular,
    unwrap_modular,
)
from repro.dp.rotation import RandomizedHadamard
from repro.dp.planner import NoisePlan, plan_noise

__all__ = [
    "RdpAccountant",
    "gaussian_rdp",
    "skellam_rdp",
    "rdp_to_epsilon",
    "DEFAULT_ORDERS",
    "SkellamMechanism",
    "SkellamConfig",
    "clip_l2",
    "stochastic_round",
    "wrap_modular",
    "unwrap_modular",
    "RandomizedHadamard",
    "NoisePlan",
    "plan_noise",
]
