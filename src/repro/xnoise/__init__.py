"""XNoise: the paper's dropout-resilient 'add-then-remove' noise scheme.

- :mod:`repro.xnoise.decomposition` — the noise-component algebra of
  §3.2: how much each client over-adds, how the T+1 component variances
  telescope, and how much the server removes for each dropout outcome
  (Theorem 1), including the collusion inflation factor t/(t−T_C) (§3.3).
- :mod:`repro.xnoise.protocol` — XNoise integrated with SecAgg exactly as
  Fig. 5: noise-seed secret sharing in ShareKeys, direct seed reveal in
  Unmasking, and the extra Stage 5 (ExcessiveNoiseRemoval) recovering
  seeds of clients that dropped mid-removal.
- :mod:`repro.xnoise.rebasing` — the 'rebasing' baseline [Baek et al.]:
  noise correction transmitted as a full model-sized vector, with the
  robustness gap XNoise fixes, and the Table-3 footprint model that
  prices both schemes' extra per-round traffic.
- :mod:`repro.xnoise.verify` — the §3.3 defense against a malicious
  server understating dropout: signed round numbers rebroadcast with the
  dropout outcome.
"""

from repro.xnoise.decomposition import (
    NoiseDecomposition,
    component_variances,
    removable_indices,
    residual_variance_after_removal,
)
from repro.xnoise.protocol import (
    XNoiseClient,
    XNoiseConfig,
    XNoiseResult,
    XNoiseServer,
    XNoiseWorkflowServer,
    arun_xnoise_round,
    run_xnoise_round,
    xnoise_round_components,
)
from repro.xnoise.rebasing import (
    RebasingScheme,
    rebasing_removal_bytes,
    table3_row,
    xnoise_extra_bytes,
)
from repro.xnoise.verify import DropoutAttestation, UnderstatementDetected

__all__ = [
    "NoiseDecomposition",
    "component_variances",
    "removable_indices",
    "residual_variance_after_removal",
    "XNoiseConfig",
    "XNoiseResult",
    "XNoiseClient",
    "XNoiseServer",
    "XNoiseWorkflowServer",
    "run_xnoise_round",
    "arun_xnoise_round",
    "xnoise_round_components",
    "RebasingScheme",
    "rebasing_removal_bytes",
    "table3_row",
    "xnoise_extra_bytes",
    "DropoutAttestation",
    "UnderstatementDetected",
]
