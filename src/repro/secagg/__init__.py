"""Secure aggregation: SecAgg (Bonawitz et al.) and SecAgg+ (Bell et al.).

Distributed DP aggregates locally-perturbed updates with secure
aggregation so the untrusted server learns only the (noised) sum (§2.2).
This subpackage implements both protocols the paper evaluates as
in-process state machines:

- :mod:`repro.secagg.client` / :mod:`repro.secagg.server` — the SecAgg
  stages of Fig. 5 (AdvertiseKeys, ShareKeys, MaskedInputCollection,
  ConsistencyCheck, Unmasking), with the bracketed malicious-mode steps
  toggleable via configuration.
- :mod:`repro.secagg.graph` — the communication graph: complete for
  SecAgg, random k-regular for SecAgg+ (the "(poly)logarithmic overhead"
  variant).
- :mod:`repro.secagg.masking` — pairwise and self masks over Z_{2^b}.
- :mod:`repro.secagg.workflow` — the Fig.-5 protocol declared as an
  Appendix-D workflow for the unified round engine
  (:mod:`repro.engine`), with dropout injected as transport middleware.
- :mod:`repro.secagg.driver` — round drivers: the engine-backed
  :func:`run_secagg_round` and the retained synchronous reference it is
  regression-tested against; both inject client dropout before any stage
  and return the aggregate plus the per-stage participant sets.
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
from repro.secagg.graph import CompleteGraph, KRegularGraph
from repro.secagg.client import SecAggClient
from repro.secagg.server import SecAggServer
from repro.secagg.driver import (
    run_secagg_round,
    run_secagg_round_reference,
    arun_secagg_round,
    DropoutSchedule,
)
from repro.secagg.workflow import (
    SecAggWorkflowClient,
    SecAggWorkflowServer,
    secagg_stage_of,
    with_dropout,
)
from repro.secagg.secagg_plus import secagg_plus_config, recommended_degree
from repro.secagg.complexity import (
    secagg_client_cost,
    secagg_plus_client_cost,
    secagg_server_cost,
)

__all__ = [
    "SecAggConfig",
    "RoundResult",
    "ProtocolAbort",
    "CompleteGraph",
    "KRegularGraph",
    "SecAggClient",
    "SecAggServer",
    "run_secagg_round",
    "run_secagg_round_reference",
    "arun_secagg_round",
    "DropoutSchedule",
    "SecAggWorkflowClient",
    "SecAggWorkflowServer",
    "secagg_stage_of",
    "with_dropout",
    "secagg_plus_config",
    "recommended_degree",
    "secagg_client_cost",
    "secagg_plus_client_cost",
    "secagg_server_cost",
    "STAGE_ADVERTISE",
    "STAGE_SHARE_KEYS",
    "STAGE_MASKED_INPUT",
    "STAGE_CONSISTENCY",
    "STAGE_UNMASK",
    "STAGE_NOISE_REMOVAL",
]
