"""Eq. (1) and (2) of §3.2 in closed form.

:func:`repro.xnoise.decomposition.component_variances` and
:func:`~repro.xnoise.decomposition.removable_indices` are what a round
runs; summed over the removable components they must equal these.
"""

from __future__ import annotations

from repro.xnoise.decomposition import _validate


def excess_variance(
    n_sampled: int, tolerance: int, n_dropped: int, target_variance: float
) -> float:
    """Total excess noise level the server must remove — Eq. (1):

        l_ex = (T − |D|)/(|U| − T) · σ²_*.
    """
    _validate(n_sampled, tolerance)
    if not 0 <= n_dropped <= tolerance:
        raise ValueError("n_dropped must be in [0, T]")
    return (tolerance - n_dropped) / (n_sampled - tolerance) * target_variance


def per_survivor_excess(
    n_sampled: int, tolerance: int, n_dropped: int, target_variance: float
) -> float:
    """Per-survivor removal level — Eq. (2):

        l'_ex = σ²_* · (1/(|U|−T) − 1/(|U|−|D|)).
    """
    _validate(n_sampled, tolerance)
    if not 0 <= n_dropped <= tolerance:
        raise ValueError("n_dropped must be in [0, T]")
    return target_variance * (
        1.0 / (n_sampled - tolerance) - 1.0 / (n_sampled - n_dropped)
    )
