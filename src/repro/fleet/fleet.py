"""The fleet: device columns + an availability model, as one scenario.

A :class:`Fleet` is the single object the rest of the stack consults
about the client population.  A round asks it five things:

- :meth:`Fleet.build` — the §6.1 population for a config and seed;
- :meth:`Fleet.with_id_offset` — the same fleet addressed by protocol
  ids (SecAgg shifts client ids by +1);
- :meth:`Fleet.link_seconds` — one client's exchange priced on its own
  links, the hook every fleet-priced transport takes;
- :meth:`Fleet.straggler_factor` — the sampled compute straggler;
- :meth:`Fleet.round_cost` — the modeled FedAvg round of the fast
  noise-algebra path, recorded as traced spans;

plus :attr:`Fleet.availability` for per-round dropout.  The population
is :class:`repro.fleet.profile.ProfileColumns` — three float64 arrays —
and every query reads them directly.  An id outside the population is a
``KeyError`` naming it: pricing one client's frames on another device's
links is a bug, not a fallback.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.fleet.availability import AlwaysAvailable, build_availability
from repro.fleet.profile import (
    DEFAULT_BANDWIDTH_RANGE,
    ProfileColumns,
    heterogeneous_fleet,
)


@dataclass(frozen=True)
class FleetConfig:
    """Declarative description of a device population.

    ``availability`` is ``"fixed"`` (§6.1 i.i.d. dropout at the
    session's ``dropout_rate``) or ``"trace"`` (Fig.-1a behaviour-trace
    churn: the dense reference at small n, the lazy
    :class:`~repro.fleet.availability.SessionStream` at scale or with a
    ``correlation``).  ``downlink_range=None`` keeps links symmetric; a
    range gives every device an independent Zipf downlink (asymmetric
    WAN).  ``compute_seconds`` is the base local-training time of the
    *fastest* device per round; the sampled straggler's
    ``compute_factor`` scales it.  ``correlation`` rank-couples link
    quality to availability (slow-link devices are also flaky) through
    the session model's Gaussian copula; the fixed-rate model cannot
    express it.
    """

    availability: str = "fixed"
    zipf_a: float = 1.2
    uplink_range: tuple[float, float] = DEFAULT_BANDWIDTH_RANGE
    downlink_range: Optional[tuple[float, float]] = None
    max_slowdown: float = 8.0
    compute_seconds: float = 0.0
    mean_session: float = 8.0
    correlation: float = 0.0

    def __post_init__(self) -> None:
        if self.availability not in {"fixed", "trace"}:
            raise ValueError("availability must be fixed or trace")
        if self.max_slowdown < 1.0:
            raise ValueError("max_slowdown is relative to the fastest (>= 1)")
        if self.compute_seconds < 0:
            raise ValueError("compute_seconds must be non-negative")
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must be in [-1, 1]")
        if self.correlation and self.availability == "fixed":
            raise ValueError(
                "correlation requires availability 'trace' "
                "(the fixed-rate model has no per-device availability)"
            )


@dataclass(frozen=True)
class FleetRoundCost:
    """Modeled cost of one synchronized FedAvg round over a sample.

    Directional: the model broadcast rides the *downlink* of every
    sampled client (gated by the slowest), the update upload rides the
    *uplink* of every survivor.  ``down_bytes`` / ``up_bytes`` follow
    the same split, so Table-3-style per-direction footprints fall out
    of the trace.
    """

    down_seconds: float
    compute_seconds: float
    up_seconds: float
    down_bytes: int
    up_bytes: int

    @property
    def total_seconds(self) -> float:
        return self.down_seconds + self.compute_seconds + self.up_seconds


class Fleet:
    """A device population plus its availability model.

    Client id ``u`` is row ``u − offset`` of :attr:`columns`; the offset
    is 0 unless the fleet came from :meth:`with_id_offset`.
    """

    def __init__(
        self,
        columns: ProfileColumns,
        availability=None,
        config: Optional[FleetConfig] = None,
    ):
        self.columns = columns
        self.availability = availability or AlwaysAvailable()
        self.config = config or FleetConfig()
        self._offset = 0

    @classmethod
    def build(
        cls,
        n_clients: int,
        config: Optional[FleetConfig] = None,
        *,
        dropout_rate: float = 0.0,
        horizon: int = 1,
        seed: int = 0,
    ) -> "Fleet":
        """Population from a :class:`FleetConfig` (deterministic per seed).

        With ``config.correlation`` set, each device's uplink mid-rank
        quantile feeds the availability model's copula so slow links and
        flaky behaviour coincide.
        """
        config = config or FleetConfig()
        columns = heterogeneous_fleet(
            n_clients,
            zipf_a=config.zipf_a,
            bandwidth_range=config.uplink_range,
            max_slowdown=config.max_slowdown,
            seed=seed,
            downlink_range=config.downlink_range,
        )
        link_quantiles = None
        if config.correlation:
            order = np.argsort(columns.uplink_bps, kind="stable")
            ranks = np.empty(n_clients, dtype=np.float64)
            ranks[order] = np.arange(n_clients, dtype=np.float64)
            link_quantiles = (ranks + 0.5) / n_clients
        availability = build_availability(
            config.availability,
            n_clients=n_clients,
            horizon=horizon,
            dropout_rate=dropout_rate,
            mean_session=config.mean_session,
            seed=seed,
            correlation=config.correlation,
            link_quantiles=link_quantiles,
        )
        return cls(columns, availability, config)

    @property
    def n_clients(self) -> int:
        return self.columns.n

    def with_id_offset(self, offset: int) -> "Fleet":
        """This fleet addressed by shifted client ids.

        Protocol layers may re-index clients — SecAgg shifts ids by +1
        so Shamir evaluation points are non-zero — and a transport that
        looks devices up by *protocol* id would otherwise price client
        u's frames on device u+1's links.  The view shares the columns
        and the availability model; only the addressing moves.
        """
        if offset == 0:
            return self
        view = copy.copy(self)
        view._offset = self._offset + offset
        return view

    def _outside(self, client_id: int) -> KeyError:
        lo = self._offset
        return KeyError(
            f"client id {client_id} is not in this fleet "
            f"(ids [{lo}, {lo + self.columns.n}))"
        )

    def _rows(self, sampled: Iterable[int]) -> np.ndarray:
        """Cohort ids → rows, vectorized; refuses empty cohorts and ids
        outside the population."""
        ids = np.asarray(
            sampled if isinstance(sampled, np.ndarray) else list(sampled),
            dtype=np.int64,
        )
        if ids.size == 0:
            raise ValueError("sampled set is empty")
        rows = ids - self._offset
        outside = (rows < 0) | (rows >= self.columns.n)
        if outside.any():
            raise self._outside(int(ids[outside.argmax()]))
        return rows

    def dropped(self, sampled: list[int], round_index: int) -> set[int]:
        """Which of this round's sample the availability model silences."""
        return self.availability.dropped(sampled, round_index)

    def link_seconds(
        self, client_id: int, down_nbytes: float, up_nbytes: float
    ) -> float:
        """One client's request/response exchange on its own links:
        down on the downlink, up on the uplink — one division when the
        links are symmetric, so the pre-split formula holds bit for bit."""
        row = client_id - self._offset
        if not 0 <= row < self.columns.n:
            raise self._outside(client_id)
        up = self.columns.uplink_bps.item(row)
        down = self.columns.downlink_bps.item(row)
        if up == down:
            return (down_nbytes + up_nbytes) / up
        return down_nbytes / down + up_nbytes / up

    def straggler_factor(self, sampled: Iterable[int]) -> float:
        """Compute slowdown of the slowest sampled device."""
        return float(self.columns.compute_factor[self._rows(sampled)].max())

    def round_cost(
        self,
        sampled: list[int],
        survivors: list[int],
        update_nbytes: int,
        compute_seconds: Optional[float] = None,
    ) -> FleetRoundCost:
        """Modeled FedAvg round: broadcast → local train → upload.

        Every sampled client downloads the ``update_nbytes``-sized model
        (dropouts happen *after* being sampled, §6.1, so they cost
        downlink); only survivors upload.  Stage times are gated by the
        slowest relevant link / the compute straggler.
        """
        rows = self._rows(sampled)
        cols = self.columns
        base = (
            self.config.compute_seconds
            if compute_seconds is None
            else compute_seconds
        )
        n_survivors = len(survivors)
        return FleetRoundCost(
            down_seconds=float((update_nbytes / cols.downlink_bps[rows]).max()),
            compute_seconds=base * float(cols.compute_factor[rows].max()),
            up_seconds=(
                float(
                    (update_nbytes / cols.uplink_bps[self._rows(survivors)]).max()
                )
                if n_survivors
                else 0.0
            ),
            down_bytes=update_nbytes * len(sampled),
            up_bytes=update_nbytes * n_survivors,
        )
