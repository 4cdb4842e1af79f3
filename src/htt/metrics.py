"""Distances between atomic probability measures and the analytic bounds
evaluated from an environment.

The Levy distance is computed exactly for finite atom measures, in one
sorted pass over the atoms; no grid approximation is involved, so acceptance
checks may rely on small distance differences.
"""

from __future__ import annotations

import math

import numpy as np

from .sampler import Environment
from .spectra import PointMeasure

__all__ = [
    "levy_distance",
    "mgf",
    "log_mgf",
    "subgaussian_bound",
    "support_bound",
    "series_tail_estimate",
]

# Deterministic stand-in gamma_j ~ j for the unsampled tail, padded by a
# safety factor since individual arrival times fluctuate around j.
_TAIL_SAFETY = 1.1


def _one_sided_levy(m1: PointMeasure, m2: PointMeasure) -> float:
    """Smallest eps with F2(x + eps) >= F1(x) - eps at every atom x of m1.

    F2 equals C_k on [y_k, y_(k+1)), C_k the mass of m2's first k atoms
    (y_0 = -inf, C_0 = 0), so atom x_i with own mass F1(x_i) needs
    eps_i = min_k max(y_k - x_i, F1(x_i) - C_k).  The first term rises in k
    and the second falls; the minimum sits where the nondecreasing y_k + C_k
    crosses x_i + F1(x_i).  One searchsorted finds every crossing, and the
    neighbours of each are checked too because the sums round.
    """
    x, own = m1.locations, m1.cdf(m1.locations)
    y = np.concatenate(([-np.inf], m2.locations))
    mass = np.concatenate(([0.0], m2.cdf(m2.locations)))
    crossing = np.searchsorted(y + mass, x + own)
    eps = np.full(x.shape, np.inf)
    for k in (crossing - 1, crossing, crossing + 1):
        k = np.clip(k, 0, len(y) - 1)
        eps = np.minimum(eps, np.maximum(y[k] - x, own - mass[k]))
    return float(eps.max())


def levy_distance(m1: PointMeasure, m2: PointMeasure) -> float:
    """Exact Levy distance between finite atom measures: the larger of the
    two one-sided corridor widths, clamped to [0, 1] (cumulative sums may
    round above 1)."""
    d = max(_one_sided_levy(m1, m2), _one_sided_levy(m2, m1))
    return min(max(0.0, d), 1.0)


def log_mgf(m: PointMeasure, beta: float) -> float:
    """log sum_i w_i exp(beta x_i), computed in log-sum-exp form."""
    t = beta * m.locations
    hi = t.max()
    pos = m.weights > 0
    return float(hi + np.log(np.sum(m.weights[pos] * np.exp(t[pos] - hi))))


def mgf(m: PointMeasure, beta: float) -> float:
    """sum_i w_i exp(beta x_i); overflow-guarded via :func:`log_mgf`
    (returns inf rather than raising when the value exceeds float range)."""
    lv = log_mgf(m, beta)
    return math.exp(lv) if lv < 709.0 else math.inf


def series_tail_estimate(j: int, exponent: float) -> float:
    """Estimate of sum_{i >= j} i**(-exponent) for exponent > 1, using the
    integral bound with gamma_i ~ i and the module safety factor."""
    if exponent <= 1.0:
        return math.inf
    return _TAIL_SAFETY * j ** (1.0 - exponent) / (exponent - 1.0)


def subgaussian_bound(env: Environment, beta: float) -> float:
    """Quenched MGF bound 2 exp(2 beta^2 sum_j gamma_j**(-2/alpha)).

    alpha is the environment's.  The sampled prefix underestimates the full
    series, so the analytic tail estimate for the unsampled j >= J is added.
    """
    if not 0.0 < env.alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {env.alpha}")
    s = float(np.sum(env.gamma ** (-2.0 / env.alpha)))
    s += series_tail_estimate(len(env), 2.0 / env.alpha)
    exponent = 2.0 * beta * beta * s
    return 2.0 * math.exp(exponent) if exponent < 709.0 else math.inf


def support_bound(env: Environment) -> float:
    """Support radius 2 sum_j gamma_j**(-1/alpha) of the limiting measure,
    the unsampled tail j >= J added by its analytic estimate.

    Finite only for the environment's alpha < 1; for alpha >= 1 the series
    diverges (the limiting measure has unbounded support) and +inf is returned.
    """
    if not 0.0 < env.alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {env.alpha}")
    if env.alpha >= 1.0:
        return math.inf
    s = 2.0 * float(np.sum(env.gamma ** (-1.0 / env.alpha)))
    s += 2.0 * series_tail_estimate(len(env), 1.0 / env.alpha)
    return s
