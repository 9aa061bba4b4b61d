"""Configuration surface of a Dordis training session."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.fleet.fleet import FleetConfig


@dataclass
class DordisConfig:
    """Everything a :class:`repro.core.dordis.DordisSession` needs.

    Task / model
    ------------
    task:
        "cifar10-like" | "cifar100-like" | "femnist-like" | "reddit-like".
    model:
        "softmax" | "mlp" | "bigram" (bigram only for the language task).
    num_clients, sample_size, rounds:
        Population, per-round sample |U|, and training horizon R.
    local_epochs, batch_size, learning_rate, optimizer:
        Local-training hyperparameters (§6.1).

    Privacy
    -------
    epsilon, delta:
        The global budget (ε_G, δ).  δ defaults to 1/num_clients, the
        paper's "reciprocal of the total number of clients".
    clip_bound:
        Per-client L2 clip (the DP sensitivity).
    mechanism:
        "gaussian" (float-domain simulation) or "skellam" (the DSkellam
        integer path, §5).
    bits:
        DSkellam ring width (paper: 20).

    Fleet / scenario
    ----------------
    fleet:
        The device population (:class:`repro.fleet.FleetConfig`):
        per-client compute slowdown, separate uplink/downlink
        bandwidth, and the availability model dropout is derived from —
        ``"fixed"`` (§6.1 i.i.d. at ``dropout_rate``) or ``"trace"``
        (Fig.-1a behaviour-trace churn, where the rate swings per
        round).  The default builds a symmetric heterogeneous fleet, so
        every session's transports carry per-direction link latency and
        ``round_seconds_history`` is meaningful out of the box.  A
        session always has one; a live-object round without link
        latency is ``DordisSession(cfg, engine=RoundEngine())``.

    Dropout / enforcement
    ---------------------
    dropout_rate:
        Per-round i.i.d. dropout of sampled clients (§6.1's model) when
        the fleet's availability is ``"fixed"``; ignored under
        ``"trace"``, where the behaviour trace sets each round's rate.
    strategy:
        "orig" | "early" | "conK" | "xnoise" (§2.3.1 / §3).
    tolerance_fraction:
        XNoise's T as a fraction of |U|.

    Aggregation
    -----------
    secure_aggregation:
        "simulated" — noise algebra without masking (fast; identical
        privacy accounting); "secagg" — run the real XNoise+SecAgg
        protocol per round (slow; for end-to-end validation).
    pipeline_chunks:
        m ≥ 1: split each secagg round into m chunk sub-rounds executed
        concurrently on the round engine per the §4.1 pipeline schedule
        (1 → plain, unchunked execution).  Only affects the "secagg"
        aggregation path.
    transport:
        Engine transport backend for protocol rounds, each priced on
        the fleet's links: "inprocess" — every payload crosses the
        :mod:`repro.wire` serialization boundary in-process (a priced
        round needs bytes, and bytes come from the encoder), so traced
        per-stage traffic is the length of the frames a framed-TCP
        socket would carry; "sockets" — each client behind a real
        localhost TCP connection with framed messages and
        per-connection accounting.  Ignored when the caller supplies
        its own engine.
    """

    # Task / model.
    task: str = "cifar10-like"
    model: str = "softmax"
    num_clients: int = 100
    sample_size: int = 16
    rounds: int = 30
    samples_per_client: int = 40
    local_epochs: int = 1
    batch_size: int = 20
    learning_rate: float = 0.05
    optimizer: str = "sgd"
    mlp_hidden: int = 32

    # Privacy.
    epsilon: float = 6.0
    delta: Optional[float] = None
    clip_bound: float = 1.0
    mechanism: str = "gaussian"
    bits: int = 20

    # Fleet / scenario.
    fleet: FleetConfig = field(default_factory=FleetConfig)

    # Dropout / enforcement.
    dropout_rate: float = 0.0
    strategy: str = "xnoise"
    tolerance_fraction: float = 0.5
    collusion_tolerance: int = 0

    # Aggregation.
    secure_aggregation: str = "simulated"
    dh_group: str = "modp512"
    pipeline_chunks: int = 1
    transport: str = "inprocess"

    seed: int = 0

    def __post_init__(self) -> None:
        known_tasks = {"cifar10-like", "cifar100-like", "femnist-like", "reddit-like"}
        if self.task not in known_tasks:
            raise ValueError(f"task must be one of {sorted(known_tasks)}")
        if self.model not in {"softmax", "mlp", "bigram"}:
            raise ValueError("model must be softmax, mlp, or bigram")
        if self.task == "reddit-like" and self.model != "bigram":
            raise ValueError("the language task requires the bigram model")
        if self.task != "reddit-like" and self.model == "bigram":
            raise ValueError("the bigram model requires the language task")
        if not 1 <= self.sample_size <= self.num_clients:
            raise ValueError("need 1 <= sample_size <= num_clients")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.delta is None:
            self.delta = 1.0 / self.num_clients
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.clip_bound <= 0:
            raise ValueError("clip_bound must be positive")
        if self.mechanism not in {"gaussian", "skellam"}:
            raise ValueError("mechanism must be gaussian or skellam")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not isinstance(self.fleet, FleetConfig):
            raise ValueError(
                f"fleet must be a repro.fleet.FleetConfig, not {self.fleet!r}"
            )
        if self.secure_aggregation not in {"simulated", "secagg"}:
            raise ValueError("secure_aggregation must be simulated or secagg")
        if self.pipeline_chunks < 1:
            raise ValueError("pipeline_chunks must be >= 1")
        if self.transport not in {"inprocess", "sockets"}:
            raise ValueError(
                f"transport must be inprocess or sockets, not {self.transport!r}"
            )

    @property
    def is_language_task(self) -> bool:
        return self.task == "reddit-like"
