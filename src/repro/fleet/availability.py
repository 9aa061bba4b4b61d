"""Client-availability and dropout models.

An availability model answers one question per round: *which of the
sampled clients fail to respond?* (``dropped(sampled, round_index)``).
Three models drive the experiments:

- :class:`FixedRateDropout` — the §6.1 dropout model: sampled clients
  drop i.i.d. with a configurable per-round rate, "after being sampled
  but before sending their masked and perturbed update".
- :class:`BehaviorTrace` (via :class:`TraceDrivenDropout`) — a stand-in
  for the 136k-device user-behaviour trace [Yang et al.] behind Fig. 1a:
  each client alternates heavy-tailed online/offline sessions, so the
  per-round dropout rate of a 16-client sample swings across the whole
  [0, 1] range.  It materializes a dense ``(clients × horizon)`` boolean
  matrix up front — the small-n *reference* implementation.
- :class:`SessionStream` — the same generative model, derived lazily:
  each device's on/off timeline comes on demand from its own rng stream
  (``derive_rng("behavior-trace", seed, client)``), O(1) memory per
  queried device with an LRU bounding resident state to the sampled
  cohort.  This is what a million-device fleet runs on, and the only
  model that supports the correlated bandwidth × availability coupling
  (``correlation`` + ``link_quantiles``: slow-link devices are also
  flaky, via a Gaussian copula that preserves the Beta propensity
  marginal exactly).

Scenario wrappers (:class:`DiurnalWave`, :class:`FlashCrowd`,
:class:`RegionalOutage`) compose over any base model to shape fleet-wide
churn: a time-of-day availability wave, a cohort joining mid-training,
and a correlated slice of the fleet vanishing for a window of rounds.

The fleet layer owns these models because availability is a property
of the device population, not of the learning algorithm.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict

import numpy as np

from repro.utils.rng import derive_rng

#: Above this population size ``build_availability("trace", ...)`` stops
#: materializing the dense BehaviorTrace matrix and derives timelines
#: lazily via :class:`SessionStream` instead.
DENSE_TRACE_MAX_CLIENTS = 4096

#: Resident per-device timelines a :class:`SessionStream` keeps (LRU).
SESSION_CACHE_SIZE = 4096


class AlwaysAvailable:
    """The degenerate model: nobody ever drops."""

    def dropped(self, sampled: list[int], round_index: int) -> set[int]:
        return set()


class FixedRateDropout:
    """I.i.d. per-round dropout at a fixed rate."""

    def __init__(self, rate: float, seed: int = 0):
        if not 0 <= rate < 1:
            raise ValueError("rate must be in [0, 1)")
        self.rate = rate
        self.seed = seed

    def dropped(self, sampled: list[int], round_index: int) -> set[int]:
        """The subset of this round's sample that drops out."""
        if self.rate == 0:
            return set()
        rng = derive_rng("fixed-dropout", self.seed, round_index)
        mask = rng.random(len(sampled)) < self.rate
        return {u for u, gone in zip(sampled, mask) if gone}


class BehaviorTrace:
    """Synthetic device availability: alternating on/off sessions.

    Session lengths are lognormal (heavy-tailed, like real device usage);
    each client has its own online propensity drawn from a Beta
    distribution so the population mixes always-on devices with highly
    volatile ones — the "volatile users" the paper extracts.

    The whole ``(clients × horizon)`` matrix is materialized up front by
    a per-client Python session loop — the small-n reference model.  At
    fleet scale use :class:`SessionStream`, which derives the same
    session process lazily (statistical parity pinned by test).
    """

    def __init__(
        self,
        n_clients: int,
        horizon: int,
        mean_session: float = 8.0,
        volatility: tuple[float, float] = (1.2, 1.2),
        seed: int = 0,
    ):
        if n_clients < 1 or horizon < 1:
            raise ValueError("n_clients and horizon must be positive")
        if mean_session <= 0:
            raise ValueError("mean_session must be positive")
        self.n_clients = n_clients
        self.horizon = horizon
        self._avail = np.zeros((n_clients, horizon), dtype=bool)
        rng = derive_rng("behavior-trace", seed)
        propensity = rng.beta(*volatility, size=n_clients)
        for c in range(n_clients):
            t = 0
            online = rng.random() < propensity[c]
            while t < horizon:
                mean = mean_session * (
                    propensity[c] if online else (1 - propensity[c]) + 0.1
                )
                length = max(1, int(rng.lognormal(np.log(mean + 1e-9), 0.8)))
                self._avail[c, t : t + length] = online
                t += length
                online = not online

    def available(self, client: int, round_index: int) -> bool:
        return bool(self._avail[client % self.n_clients, round_index % self.horizon])

    def availability_matrix(self) -> np.ndarray:
        """(clients × rounds) boolean availability (for Fig. 1a plots)."""
        return self._avail.copy()

    def dropout_rates(self, sample_size: int, seed: int = 0) -> np.ndarray:
        """Per-round dropout rate of a random ``sample_size`` sample.

        Reproduces Fig. 1a: sample clients uniformly each round and
        measure the fraction unavailable by round end.  The per-round
        draws consume the rng exactly like a per-round sample-slice-mean
        loop (pinned equal by test), but the availability gather + mean
        is one batched fancy index over the whole horizon.
        """
        rng = derive_rng("trace-sampling", seed)
        k = min(sample_size, self.n_clients)
        samples = np.stack(
            [
                rng.choice(self.n_clients, size=k, replace=False)
                for _ in range(self.horizon)
            ]
        )
        picked = self._avail[samples, np.arange(self.horizon)[:, None]]
        return 1.0 - picked.mean(axis=1)


class TraceDrivenDropout:
    """Dropout adapter: a sampled client drops if its trace says offline."""

    def __init__(self, trace: BehaviorTrace):
        self.trace = trace

    def dropped(self, sampled: list[int], round_index: int) -> set[int]:
        return {
            u for u in sampled if not self.trace.available(u, round_index)
        }


def _correlated_propensity(
    link_quantile: float, correlation: float, z_indep: float,
    a: float, b: float,
) -> float:
    """Beta(a, b) propensity rank-coupled to link quality.

    A Gaussian copula: the device's bandwidth quantile ``u`` and an
    independent normal draw mix as
    ``z = ρ·Φ⁻¹(u) + √(1−ρ²)·z_indep``; ``Φ(z)`` is again uniform, so
    ``F_Beta⁻¹(Φ(z))`` preserves the exact Beta marginal the
    uncorrelated trace model draws from while giving Spearman-style rank
    correlation ≈ ρ between link speed and online propensity — slow
    devices are also flaky (the Fig.-1a churn shape, coupled).
    """
    from scipy.special import betaincinv, ndtr, ndtri  # gated: scipy ships in CI

    # Clamp away from the copula's singular endpoints (quantiles are
    # mid-ranks (r+0.5)/n, so this only guards degenerate inputs).
    u = min(max(link_quantile, 1e-12), 1.0 - 1e-12)
    z = correlation * float(ndtri(u)) + math.sqrt(
        1.0 - correlation * correlation
    ) * z_indep
    return float(betaincinv(a, b, float(ndtr(z))))


class _DeviceSessions:
    """One device's lazily-extended on/off timeline."""

    __slots__ = ("propensity", "_rng", "_bounds", "_states", "_mean_session")

    def __init__(self, stream: "SessionStream", client: int):
        rng = derive_rng("behavior-trace", stream.seed, client)
        if stream.correlation:
            z = float(rng.standard_normal())
            self.propensity = _correlated_propensity(
                float(stream.link_quantiles[client]),
                stream.correlation,
                z,
                *stream.volatility,
            )
        else:
            self.propensity = float(rng.beta(*stream.volatility))
        self._rng = rng
        self._mean_session = stream.mean_session
        # Segment i spans rounds [_bounds[i], _bounds[i+1]) in state
        # _states[i]; the first state is drawn like BehaviorTrace's.
        self._bounds: list[int] = [0]
        self._states: list[bool] = [bool(rng.random() < self.propensity)]

    def online_at(self, t: int) -> bool:
        # bounds[i] is segment i's first round; bounds[i+1] its end;
        # states[i] its on/off state.  Extend until t is covered.
        bounds, states = self._bounds, self._states
        while bounds[-1] <= t:
            if len(states) == len(bounds):
                online = states[-1]  # initial segment, length not yet drawn
            else:
                online = not states[-1]
                states.append(online)
            mean = self._mean_session * (
                self.propensity if online else (1 - self.propensity) + 0.1
            )
            length = max(1, int(self._rng.lognormal(np.log(mean + 1e-9), 0.8)))
            bounds.append(bounds[-1] + length)
        return states[bisect_right(bounds, t) - 1]


class SessionStream:
    """Lazy behaviour-trace availability: O(1) state per queried device.

    The same generative model as :class:`BehaviorTrace` — per-client
    Beta online propensity, alternating heavy-tailed lognormal on/off
    sessions — but nothing is materialized up front.  Each device's
    timeline derives on demand from its own stream
    ``derive_rng("behavior-trace", seed, client)`` and extends only as
    far as the rounds actually queried, so a million-device fleet costs
    nothing until a cohort is sampled; an LRU bounds resident timelines
    to roughly the sampled cohort (evicted devices regenerate
    deterministically from their stream).

    The per-round dropout-rate *marginal* matches :class:`BehaviorTrace`
    (statistical parity, pinned by test) — the streams differ (the dense
    trace interleaves all clients on one rng), so individual timelines
    are not bit-equal, but the Fig.-1a churn distribution is.

    ``correlation`` ∈ [-1, 1] couples propensity to ``link_quantiles``
    (per-device bandwidth mid-ranks in (0, 1)) through a Gaussian copula
    that preserves the Beta marginal exactly: ρ > 0 makes slow-link
    devices also flaky.
    """

    def __init__(
        self,
        n_clients: int,
        mean_session: float = 8.0,
        volatility: tuple[float, float] = (1.2, 1.2),
        seed: int = 0,
        correlation: float = 0.0,
        link_quantiles: np.ndarray | None = None,
        cache_size: int = SESSION_CACHE_SIZE,
    ):
        if n_clients < 1:
            raise ValueError("n_clients must be positive")
        if mean_session <= 0:
            raise ValueError("mean_session must be positive")
        if not -1.0 <= correlation <= 1.0:
            raise ValueError("correlation must be in [-1, 1]")
        if correlation and link_quantiles is None:
            raise ValueError(
                "correlated availability needs link_quantiles "
                "(per-device bandwidth ranks)"
            )
        if link_quantiles is not None and len(link_quantiles) != n_clients:
            raise ValueError("link_quantiles must cover every device")
        if cache_size < 1:
            raise ValueError("cache_size must be positive")
        self.n_clients = n_clients
        self.mean_session = mean_session
        self.volatility = volatility
        self.seed = seed
        self.correlation = float(correlation)
        self.link_quantiles = link_quantiles
        self.cache_size = cache_size
        self._cache: OrderedDict[int, _DeviceSessions] = OrderedDict()

    def _sessions(self, client: int) -> _DeviceSessions:
        client = int(client) % self.n_clients
        cached = self._cache.get(client)
        if cached is not None:
            self._cache.move_to_end(client)
            return cached
        sessions = _DeviceSessions(self, client)
        self._cache[client] = sessions
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return sessions

    @property
    def resident_devices(self) -> int:
        """Timelines currently cached (≤ ``cache_size`` — O(cohort))."""
        return len(self._cache)

    def propensity(self, client: int) -> float:
        """The device's online propensity (Beta marginal; rank-coupled
        to link quality when ``correlation`` is set)."""
        return self._sessions(client).propensity

    def available(self, client: int, round_index: int) -> bool:
        return self._sessions(client).online_at(int(round_index))

    def dropped(self, sampled: list[int], round_index: int) -> set[int]:
        r = int(round_index)
        return {u for u in sampled if not self.available(u, r)}

    def dropout_rates(
        self, sample_size: int, horizon: int, seed: int = 0
    ) -> np.ndarray:
        """Fig.-1a curve over ``horizon`` rounds (uniform resampling).

        Mirrors :meth:`BehaviorTrace.dropout_rates`; ``horizon`` is a
        parameter because a session stream has no fixed end.
        """
        if horizon < 1:
            raise ValueError("horizon must be positive")
        rng = derive_rng("trace-sampling", seed)
        k = min(sample_size, self.n_clients)
        rates = np.empty(horizon)
        for r in range(horizon):
            sample = rng.choice(self.n_clients, size=k, replace=False)
            online = sum(self.available(u, r) for u in sample)
            rates[r] = 1.0 - online / k
        return rates


class DiurnalWave:
    """Scenario wrapper: a fleet-wide time-of-day availability wave.

    On top of ``base``'s churn, every sampled client is additionally
    offline with probability ``amplitude · (1 − cos(2π·r/period)) / 2``
    — zero at the daily peak (r ≡ 0 mod period), ``amplitude`` in the
    trough half a period later.
    """

    def __init__(self, base, period: int = 24, amplitude: float = 0.5,
                 seed: int = 0):
        if period < 1:
            raise ValueError("period must be positive")
        if not 0 <= amplitude <= 1:
            raise ValueError("amplitude must be in [0, 1]")
        self.base = base
        self.period = period
        self.amplitude = amplitude
        self.seed = seed

    def offline_rate(self, round_index: int) -> float:
        phase = 2.0 * math.pi * (round_index % self.period) / self.period
        return self.amplitude * 0.5 * (1.0 - math.cos(phase))

    def dropped(self, sampled: list[int], round_index: int) -> set[int]:
        gone = set(self.base.dropped(sampled, round_index))
        rate = self.offline_rate(round_index)
        if rate <= 0:
            return gone
        rng = derive_rng("diurnal-wave", self.seed, round_index)
        mask = rng.random(len(sampled)) < rate
        gone.update(u for u, g in zip(sampled, mask) if g)
        return gone


class FlashCrowd:
    """Scenario wrapper: a late cohort joins the fleet mid-training.

    The id-suffix slice (the top ``fraction`` of device ids) is absent
    before ``join_round`` and follows ``base`` from then on — a flash
    crowd arriving all at once.
    """

    def __init__(self, base, n_clients: int, join_round: int,
                 fraction: float = 0.5):
        if n_clients < 1:
            raise ValueError("n_clients must be positive")
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        self.base = base
        self.n_clients = n_clients
        self.join_round = join_round
        self.fraction = fraction
        self.first_late_id = int(round(n_clients * (1.0 - fraction)))

    def dropped(self, sampled: list[int], round_index: int) -> set[int]:
        gone = set(self.base.dropped(sampled, round_index))
        if round_index < self.join_round:
            gone.update(
                u for u in sampled
                if (u % self.n_clients) >= self.first_late_id
            )
        return gone


class RegionalOutage:
    """Scenario wrapper: a contiguous id-region vanishes for a window.

    Devices with ``region[0] <= id < region[1]`` are offline during
    rounds ``[start_round, end_round)`` — the correlated slice of the
    fleet (a region behind one failing backbone) disappearing mid-round
    and coming back.
    """

    def __init__(self, base, region: tuple[int, int], start_round: int,
                 end_round: int):
        lo, hi = region
        if lo >= hi:
            raise ValueError("region must be a non-empty (lo, hi) id slice")
        if start_round >= end_round:
            raise ValueError("outage window must be non-empty")
        self.base = base
        self.region = (lo, hi)
        self.start_round = start_round
        self.end_round = end_round

    def dropped(self, sampled: list[int], round_index: int) -> set[int]:
        gone = set(self.base.dropped(sampled, round_index))
        if self.start_round <= round_index < self.end_round:
            lo, hi = self.region
            gone.update(u for u in sampled if lo <= u < hi)
        return gone


def build_availability(
    name: str,
    *,
    n_clients: int,
    horizon: int,
    dropout_rate: float = 0.0,
    mean_session: float = 8.0,
    seed: int = 0,
    correlation: float = 0.0,
    link_quantiles: np.ndarray | None = None,
):
    """Availability model for a config name.

    ``"fixed"`` → :class:`FixedRateDropout` at ``dropout_rate`` (the
    §6.1 i.i.d. model; rate 0 degenerates to :class:`AlwaysAvailable`);
    ``"trace"`` → the Fig.-1a churn model — ``dropout_rate`` is ignored,
    the trace sets the rate each round.  Small populations get the dense
    :class:`BehaviorTrace` reference; above
    :data:`DENSE_TRACE_MAX_CLIENTS` clients (or whenever ``correlation``
    is set, which only the lazy model supports) the timelines derive
    lazily via :class:`SessionStream`.
    """
    if name == "fixed":
        if correlation:
            raise ValueError(
                "correlation couples availability to link quality, which "
                "the fixed-rate model cannot express; use availability "
                "'trace'"
            )
        if dropout_rate == 0.0:
            return AlwaysAvailable()
        return FixedRateDropout(dropout_rate, seed=seed)
    if name == "trace":
        if correlation or n_clients > DENSE_TRACE_MAX_CLIENTS:
            return SessionStream(
                n_clients=n_clients,
                mean_session=mean_session,
                seed=seed,
                correlation=correlation,
                link_quantiles=link_quantiles,
            )
        return TraceDrivenDropout(
            BehaviorTrace(
                n_clients=n_clients,
                horizon=horizon,
                mean_session=mean_session,
                seed=seed,
            )
        )
    raise ValueError(
        f"unknown availability model {name!r} (fixed | trace)"
    )
