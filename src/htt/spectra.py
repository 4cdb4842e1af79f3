"""Empirical spectral distributions, spectral measures at a vector, Monte
Carlo estimation of the limiting measure, and the resolvent identity.

A :class:`PointMeasure` is a finite probability measure of weighted atoms
standing for an ESD, a spectral measure or a pool of them; all distances
in :mod:`htt.metrics` act on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .limit_operator import operator_window, projection_unit_vector
from .matrices import TruncationLevels
from .sampler import AlphaParams, Environment, RngSeed, _environment_from, redraw_phases

__all__ = [
    "PointMeasure",
    "esd",
    "spectral_measure_at",
    "window_measure",
    "mc_limit_measure",
    "quenched_sub_measure",
    "resolvent_identity_residual",
]

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class PointMeasure:
    """Finite atomic probability measure: sorted locations, positive
    weights summing to 1, and an optional replica id per atom (so pooled
    Monte Carlo output retains its per-environment sub-measures)."""

    locations: np.ndarray
    weights: np.ndarray
    replica_ids: np.ndarray | None = None

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"weights sum to {self.weights.sum()!r}, not 1")

    @classmethod
    def from_atoms(cls, locations, weights, replica_ids=None):
        """Canonicalize: sort by location; merge exact duplicates unless
        replica ids must be kept atom-by-atom."""
        locations = np.asarray(locations, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if locations.ndim != 1 or locations.shape != weights.shape:
            raise ValueError("locations and weights must be 1-d of equal length")
        if locations.size == 0:
            raise ValueError("a point measure needs at least one atom")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        order = np.argsort(locations, kind="stable")
        locations = locations[order]
        weights = weights[order]
        if replica_ids is None:
            uniq, inverse = np.unique(locations, return_inverse=True)
            if uniq.size < locations.size:
                merged = np.zeros(uniq.size)
                np.add.at(merged, inverse, weights)
                locations, weights = uniq, merged
        else:
            replica_ids = np.asarray(replica_ids)[order]
        return cls(locations, weights, replica_ids=replica_ids)

    @classmethod
    def pooled(cls, parts) -> "PointMeasure":
        """Equal-weight mixture of the measures in ``parts``; each atom keeps
        the index of its part as replica id (:func:`quenched_sub_measure`
        recovers a part)."""
        locations = np.concatenate([m.locations for m in parts])
        weights = np.concatenate([m.weights / len(parts) for m in parts])
        ids = np.concatenate([np.full(len(m), i) for i, m in enumerate(parts)])
        return cls.from_atoms(locations, weights / weights.sum(), replica_ids=ids)

    def __len__(self) -> int:
        return self.locations.shape[0]

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(self.weights)

    def cdf(self, x, side: str = "right") -> np.ndarray:
        """Right-continuous CDF at x; side='left' gives the left limit."""
        idx = np.searchsorted(self.locations, x, side=side)
        return np.where(idx > 0, self._cumulative[np.maximum(idx, 1) - 1], 0.0)

    def mirrored(self) -> "PointMeasure":
        """The measure averaged with its mirror image x -> -x (replica ids
        are dropped, so coinciding atoms merge)."""
        return PointMeasure.from_atoms(
            np.concatenate([self.locations, -self.locations]),
            np.concatenate([self.weights, self.weights]) / 2.0,
        )

    def reflected(self) -> "PointMeasure":
        """Mirror image x -> -x."""
        return PointMeasure.from_atoms(
            -self.locations, self.weights, replica_ids=self.replica_ids
        )


def esd(values) -> PointMeasure:
    """Empirical spectral distribution: equal weight 1/n on each value."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty spectrum")
    return PointMeasure.from_atoms(values, np.full(values.size, 1.0 / values.size))


def spectral_measure_at(a: np.ndarray, v: np.ndarray) -> PointMeasure:
    """Spectral measure of Hermitian a at the unit vector v: atoms at the
    eigenvalues with weights |<v, phi_i>|^2.  Eigenvalues the vector has
    exactly zero overlap with carry no atom.  Rejects visibly non-Hermitian a."""
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"v must be a unit vector, got norm {nrm!r}")
    a = np.asarray(a)
    scale = np.abs(a).max() if a.size else 0.0
    asym = np.abs(a - a.conj().T).max()
    if asym > 1e-10 * max(scale, 1e-300):
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:g}")
    values, vectors = np.linalg.eigh(a)
    weights = np.abs(v.conj() @ vectors) ** 2
    keep = weights > 0.0
    return PointMeasure.from_atoms(values[keep], weights[keep] / weights[keep].sum())


def window_measure(env: Environment, levels: TruncationLevels) -> PointMeasure:
    """Spectral measure of the environment's operator window at ``levels``,
    taken at the projected basis vector.

    The vector sqrt(2) * (projection column at 0), in the window's gauge
    (see :mod:`htt.limit_operator`), is restricted to |k| <= levels.core
    and renormalized.
    """
    window = operator_window(env, levels)
    w = window.half_width
    ks = np.arange(-w, w + 1)
    v = np.where(np.abs(ks) <= levels.core, projection_unit_vector(w), 0.0)
    v = v / np.linalg.norm(v)
    return spectral_measure_at(window.matrix, v)


def _limit_measure_replica(
    params: AlphaParams,
    levels: TruncationLevels,
    inner: int,
    seed: RngSeed,
    symmetrize: bool,
) -> list[PointMeasure]:
    """The window measures of one environment under `inner` phase draws:
    the environment's own phases, then inner - 1 redraws, one between
    consecutive windows."""
    env, rng = _environment_from(seed, levels.j, params)
    measures = []
    for t in range(inner):
        if t:
            env = redraw_phases(env, rng)
        measure = window_measure(env, levels)
        measures.append(measure.mirrored() if symmetrize else measure)
    return measures


def mc_limit_measure(
    params: AlphaParams,
    levels: TruncationLevels,
    streams: range,
    inner: int,
    seed: RngSeed,
    symmetrize: bool = True,
    workers: int = 1,
) -> PointMeasure:
    """Monte Carlo estimate of the limiting measure: the expected spectral
    measure of the truncated operator window at the projected basis vector.

    Replica r draws a fresh environment on stream ``streams[r]`` of the base
    ``seed`` (a block of the caller's stream table); `inner` phase redraws
    average over the conditional (phase) randomness within each
    environment.  All (replica, redraw) pairs are pooled with equal weight.
    With ``symmetrize`` (default) each draw also contributes its mirror
    image at half weight -- the limit law is symmetric, so this halves the
    estimator variance without bias.  Atoms keep their replica id, so
    per-environment (quenched) sub-measures remain recoverable.
    """
    if not streams or inner < 1:
        raise ValueError("streams must be nonempty and inner >= 1")
    tasks = [
        (params, levels, inner, seed.with_stream(stream), symmetrize)
        for stream in streams
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_limit_measure_replica, *zip(*tasks)))
    else:
        results = [_limit_measure_replica(*t) for t in tasks]
    pooled = PointMeasure.pooled([m for draws in results for m in draws])
    return replace(pooled, replica_ids=pooled.replica_ids // inner)


def quenched_sub_measure(pooled: PointMeasure, replica: int) -> PointMeasure:
    """Extract one environment's conditional measure from a pooled estimate."""
    if pooled.replica_ids is None:
        raise ValueError("pooled measure carries no replica ids")
    mask = pooled.replica_ids == replica
    if not mask.any():
        raise ValueError(f"no atoms for replica {replica}")
    w = pooled.weights[mask]
    return PointMeasure.from_atoms(pooled.locations[mask], w / w.sum())


def resolvent_identity_residual(
    env: Environment, levels: TruncationLevels, z: complex
) -> float:
    """Residual of the resolvent identity linking the spectral measures at
    the origin basis vector and at the projected basis vector:

        2 <e0, (A - z)^-1 e0> + 1/z  =  <u, (A - z)^-1 u>,

    exact for the infinite operator with untruncated projection; evaluated
    here on the window with band width 2w (projection untruncated at window
    scale), so the residual measures window convergence and decays like 1/w.
    Both sides are gauge invariant, so the real window and the vectors e0
    and Phi u give the same residual.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("z must have nonzero imaginary part")
    w = levels.w
    window = operator_window(env, replace(levels, l=2 * w))
    e0 = window.basis_vector(0)
    u = projection_unit_vector(w)
    u = u / np.linalg.norm(u)
    values, vectors = np.linalg.eigh(window.matrix)
    res = np.stack([e0, u]) @ vectors
    s_e0, s_u = (res**2 / (values - z)).sum(axis=1)
    return abs(2.0 * s_e0 + 1.0 / z - s_u)
