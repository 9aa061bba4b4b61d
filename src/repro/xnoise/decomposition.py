"""The XNoise noise-component algebra (§3.2, Theorem 1).

Setup: |U| sampled clients, dropout tolerance T, target aggregate noise
level σ²_*.  Each client adds noise at the *excessive* level
σ²_*/(|U|−T), split into T+1 additive components:

    n_{i,0} ~ χ(σ²_*/|U|)
    n_{i,k} ~ χ(σ²_*/((|U|−k+1)(|U|−k)))   for k = 1..T.

The variances telescope — 1/((|U|−k+1)(|U|−k)) = 1/(|U|−k) − 1/(|U|−k+1) —
so when |D| ≤ T clients actually drop, removing the components with index
k > |D| from every survivor leaves the aggregate at exactly σ²_*
(Theorem 1; reproduced numerically by the tests).

Collusion (§3.3): with SecAgg threshold t and collusion tolerance T_C,
every component variance is inflated by t/(t−T_C), so that an adversary
who learns the seeds of up to T_C colluding clients still faces at least
σ²_* of residual noise (Theorem 2's algebra).
"""

from __future__ import annotations

from dataclasses import dataclass


def _validate(n_sampled: int, tolerance: int) -> None:
    if n_sampled < 1:
        raise ValueError("need at least one sampled client")
    if not 0 <= tolerance < n_sampled:
        raise ValueError(
            f"dropout tolerance must satisfy 0 <= T < |U| "
            f"(got T={tolerance}, |U|={n_sampled})"
        )


def inflation_factor(threshold: int, collusion_tolerance: int) -> float:
    """The t/(t−T_C) noise inflation handling mild collusion (§3.3)."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if not 0 <= collusion_tolerance < threshold:
        raise ValueError("collusion tolerance must satisfy 0 <= T_C < t")
    return threshold / (threshold - collusion_tolerance)


def component_variances(
    n_sampled: int,
    tolerance: int,
    target_variance: float,
    inflation: float = 1.0,
) -> list[float]:
    """Variances of the T+1 noise components each client adds.

    ``result[k]`` is the variance of n_{i,k}; their sum is the per-client
    excessive level σ²_*/(|U|−T) (times ``inflation``).
    """
    _validate(n_sampled, tolerance)
    if target_variance < 0:
        raise ValueError("target_variance must be non-negative")
    if inflation < 1.0:
        raise ValueError("inflation factor must be >= 1")
    out = [target_variance / n_sampled * inflation]
    for k in range(1, tolerance + 1):
        out.append(
            target_variance / ((n_sampled - k + 1) * (n_sampled - k)) * inflation
        )
    return out


def per_client_variance(
    n_sampled: int, tolerance: int, target_variance: float, inflation: float = 1.0
) -> float:
    """The excessive level σ²_*/(|U|−T) each client adds in total."""
    _validate(n_sampled, tolerance)
    return target_variance / (n_sampled - tolerance) * inflation


def removable_indices(n_dropped: int, tolerance: int) -> range:
    """Component indices the server removes from every survivor.

    With |D| actual dropouts, components k ∈ [|D|+1, T] are excessive
    (Definition 2).  |D| = T ⇒ nothing to remove; |D| > T is outside the
    tolerance and rejected.
    """
    if n_dropped < 0:
        raise ValueError("n_dropped must be non-negative")
    if n_dropped > tolerance:
        raise ValueError(
            f"dropout {n_dropped} exceeds the tolerance T={tolerance}"
        )
    return range(n_dropped + 1, tolerance + 1)


def residual_variance_after_removal(
    n_sampled: int,
    tolerance: int,
    n_dropped: int,
    target_variance: float,
    inflation: float = 1.0,
) -> float:
    """Aggregate noise level after add-then-remove — Theorem 1's σ²_*.

    Computed from first principles (sum the survivors' added component
    variances, subtract the removed ones) rather than assumed, so tests
    can pin Theorem 1 numerically.
    """
    variances = component_variances(n_sampled, tolerance, target_variance, inflation)
    survivors = n_sampled - n_dropped
    added = survivors * sum(variances)
    removed = survivors * sum(
        variances[k] for k in removable_indices(n_dropped, tolerance)
    )
    return added - removed


@dataclass(frozen=True)
class NoiseDecomposition:
    """One round's decomposition parameters, bundled for the protocol.

    This is what a sampled client needs to know to add its noise, and
    what the server needs to know to remove the excess.
    """

    n_sampled: int
    tolerance: int
    target_variance: float
    threshold: int = 1
    collusion_tolerance: int = 0

    def __post_init__(self) -> None:
        _validate(self.n_sampled, self.tolerance)
        inflation_factor(self.threshold, self.collusion_tolerance)  # validates
        if self.target_variance < 0:
            raise ValueError("target_variance must be non-negative")

    @property
    def inflation(self) -> float:
        return inflation_factor(self.threshold, self.collusion_tolerance)

    @property
    def n_components(self) -> int:
        return self.tolerance + 1

    def variances(self) -> list[float]:
        return component_variances(
            self.n_sampled, self.tolerance, self.target_variance, self.inflation
        )

    def client_total_variance(self) -> float:
        return per_client_variance(
            self.n_sampled, self.tolerance, self.target_variance, self.inflation
        )

    def residual_variance(self, n_dropped: int) -> float:
        return residual_variance_after_removal(
            self.n_sampled,
            self.tolerance,
            n_dropped,
            self.target_variance,
            self.inflation,
        )
