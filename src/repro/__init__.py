"""Dordis reproduction: dropout-resilient distributed DP for federated learning.

This package is a from-scratch reproduction of the system described in
*Dordis: Efficient Federated Learning with Dropout-Resilient Differential
Privacy* (Jiang, Wang, Chen — EuroSys 2024).  It contains:

- ``repro.crypto``   — cryptographic primitives (Shamir, DH, AE, Schnorr, PRG)
  built on the Python standard library.
- ``repro.dp``       — distributed differential privacy: RDP accounting,
  the distributed Gaussian and DSkellam mechanisms, and offline noise
  planning.
- ``repro.secagg``   — the SecAgg (Bonawitz et al.) and SecAgg+ (Bell et
  al.) secure-aggregation protocols as in-process state machines.
- ``repro.xnoise``   — the paper's core contribution: the XNoise
  ``add-then-remove`` noise-enforcement scheme with noise decomposition,
  seed secret-sharing, and malicious-server checks, plus the ``rebasing``
  baseline.
- ``repro.fl``       — a NumPy federated-learning substrate (models, non-IID
  data, FedAvg).
- ``repro.fleet``    — the scenario layer: per-device profiles with
  directional (uplink/downlink) bandwidth, client-availability models
  (fixed-rate dropout, behaviour-trace churn), and the ``Fleet`` object
  sessions and transports consume.
- ``repro.pipeline`` — the pipeline-parallel aggregation architecture:
  stage abstraction, the Eq.-3 performance model, the Appendix-C schedule
  recurrence, and the chunk-count optimizer.
- ``repro.engine``   — the unified async round engine: every declared
  protocol workflow executes over a pluggable transport with concurrent
  client dispatch and chunk-pipelined scheduling per Appendix C.
- ``repro.sim``      — virtual-time execution traces and their offline
  discrete-event replay.
- ``repro.core``     — the end-to-end Dordis framework and the baseline
  noise strategies (Orig / Early / Con-k).

Quickstart::

    from repro.core import DordisConfig, DordisSession
    cfg = DordisConfig(num_clients=20, sample_size=8, rounds=5)
    session = DordisSession(cfg)
    result = session.run()
    print(result.final_accuracy, result.epsilon_consumed)
"""

__all__ = ["DordisConfig", "DordisSession", "TrainingResult"]

__version__ = "1.0.0"


def __getattr__(name):
    # Lazy re-exports: importing `repro` must not drag in the full
    # framework (NumPy models, simulators) when a caller only needs a
    # primitive subpackage such as `repro.crypto`.
    if name == "DordisConfig":
        from repro.core.config import DordisConfig

        return DordisConfig
    if name in ("DordisSession", "TrainingResult"):
        from repro.core import dordis

        return getattr(dordis, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
