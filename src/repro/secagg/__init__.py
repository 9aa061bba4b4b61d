"""Secure aggregation: SecAgg (Bonawitz et al.) and SecAgg+ (Bell et al.).

Distributed DP aggregates locally-perturbed updates with secure
aggregation so the untrusted server learns only the (noised) sum (§2.2).
This subpackage implements both protocols the paper evaluates as
in-process state machines:

- :mod:`repro.secagg.client` / :mod:`repro.secagg.server` — the SecAgg
  stages of Fig. 5 (AdvertiseKeys, ShareKeys, MaskedInputCollection,
  ConsistencyCheck, Unmasking), with the bracketed malicious-mode steps
  toggleable via configuration.
- :mod:`repro.secagg.graph` — the masking graph both sides compute:
  complete for SecAgg, a k-regular Harary graph over a seeded order of
  the roster for SecAgg+ (the "(poly)logarithmic overhead" variant).
- :mod:`repro.secagg.masking` — pairwise and self masks over Z_{2^b}.
- :mod:`repro.secagg.workflow` — the Fig.-5 protocol declared as an
  Appendix-D workflow for the unified round engine
  (:mod:`repro.engine`), with dropout injected as transport middleware.
- :mod:`repro.secagg.driver` — the round driver: the engine-backed
  :func:`run_secagg_round` injects client dropout before any stage and
  returns the aggregate plus the per-stage participant sets.
- :mod:`repro.secagg.types` — configuration and the protocol messages,
  each small one a :class:`~repro.secagg.types.WireRecord` (its wire
  body is the value encoding of its fields); :mod:`repro.secagg.codec`
  holds the one bulk format, the bit-packed masked input.

The XNoise protocol (:mod:`repro.xnoise.protocol`) extends these classes
with seed sharing and the ExcessiveNoiseRemoval stage.
"""

from repro.secagg.types import (
    SecAggConfig,
    RoundResult,
    ProtocolAbort,
    STAGE_ADVERTISE,
    STAGE_SHARE_KEYS,
    STAGE_MASKED_INPUT,
    STAGE_CONSISTENCY,
    STAGE_UNMASK,
    STAGE_NOISE_REMOVAL,
)
from repro.secagg.graph import masking_graph, recommended_degree, secagg_plus_config
from repro.secagg.client import SecAggClient
from repro.secagg.server import SecAggServer
from repro.secagg.driver import (
    run_secagg_round,
    arun_secagg_round,
    DropoutSchedule,
)
from repro.secagg.workflow import (
    SecAggWorkflowClient,
    SecAggWorkflowServer,
    secagg_stage_of,
    with_dropout,
)

__all__ = [
    "SecAggConfig",
    "RoundResult",
    "ProtocolAbort",
    "masking_graph",
    "SecAggClient",
    "SecAggServer",
    "run_secagg_round",
    "arun_secagg_round",
    "DropoutSchedule",
    "SecAggWorkflowClient",
    "SecAggWorkflowServer",
    "secagg_stage_of",
    "with_dropout",
    "secagg_plus_config",
    "recommended_degree",
    "STAGE_ADVERTISE",
    "STAGE_SHARE_KEYS",
    "STAGE_MASKED_INPUT",
    "STAGE_CONSISTENCY",
    "STAGE_UNMASK",
    "STAGE_NOISE_REMOVAL",
]
