"""Heavy-tailed entry sequences and the random environment behind the limit.

Entries follow a pure Pareto tail: P(|a| >= t) = t**(-alpha) for t >= 1,
with sign +1 with probability p.  The normalizer c_n = n**(1/alpha) is then
exact.  The environment consists of Poisson arrival magnitudes (cumulative
unit-exponential sums), frequencies uniform on [0, 1/2) and phases uniform
on [0, 1).

Frequencies and phases are uint64 indices n of the turns n / 2**TURN_BITS
(frequencies below 2**32, phases even and below 2**33), so a phase
u + l*zeta is the index sum mod 2**33, exact for every offset l.
Statistically the grid is invisible; it makes the shift identity on the
cosine series exact instead of merely close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "AlphaParams",
    "RngSeed",
    "EntrySequence",
    "Environment",
    "sample_entries",
    "coupled_entry_draws",
    "entries_from_uniforms",
    "normalizer",
    "sample_environment",
    "redraw_phases",
    "default_series_length",
    "RunRefused",
]

# Frequencies and phases are indices n of the turns n / 2**TURN_BITS.
TURN_BITS = 33

# Largest ranks whose relative positions coupled_entry_draws shares across
# sizes; the rest are placed independently per size.
COUPLED_TOP_RANKS = 64

# Tail tolerance and largest length of default_series_length
_SERIES_REL_TOL = 1e-4
_SERIES_CAP = 100_000


@dataclass(frozen=True)
class AlphaParams:
    """Tail index alpha in (0, 2) and right-tail weight p in [0, 1]."""

    alpha: float
    p: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class RngSeed:
    """Reproducible RNG identity: (seed, stream).

    Identical (seed, stream) pairs reproduce identical draws.  Parallel
    replicas use distinct streams; streams are statistically independent,
    so merged results do not depend on completion order.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def with_stream(self, stream: int) -> "RngSeed":
        return replace(self, stream=stream)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EntrySequence:
    """Normalizer c_n and scaled entries b = a / c_n of the raw entries a.

    c_n is inf where n**(1/alpha) exceeds the float range (small alpha);
    b is then still exact to rounding (see ``entries_from_uniforms``).
    ``top(k)`` returns the positions of the k largest |b| in descending
    magnitude; ties keep the lower index first.
    """

    c_n: float
    b: np.ndarray
    alpha: float
    p: float

    def __post_init__(self):
        _freeze(self.b)

    def __len__(self) -> int:
        return self.b.shape[0]

    def top(self, k: int) -> np.ndarray:
        """Positions of the k largest |b|: a stable argsort of -|b| cut at k."""
        return np.argsort(-np.abs(self.b), kind="stable")[:k]


@dataclass(frozen=True)
class Environment:
    """One realization of the random environment.

    gamma : strictly increasing Poisson arrival times (cumulative Exp(1) sums)
    zeta  : frequencies, uniform on [0, 1/2), as uint64 grid indices
    u     : phases, uniform on [0, 1), as uint64 grid indices (index n is
            the turn n / 2**TURN_BITS mod 1)
    """

    gamma: np.ndarray
    zeta: np.ndarray
    u: np.ndarray
    alpha: float

    def __post_init__(self):
        if self.zeta.dtype != np.uint64 or self.u.dtype != np.uint64:
            raise TypeError("zeta and u must be uint64 grid indices")
        for f in (self.gamma, self.zeta, self.u):
            _freeze(f)

    def __len__(self) -> int:
        return self.gamma.shape[0]


class RunRefused(ValueError):
    """A valid config led to a draw beyond the float range: a refusal, not a fault."""


def normalizer(n: int, alpha: float) -> float:
    """Scale c_n = inf{t : P(|a| >= t) <= 1/n} = n**(1/alpha) for the pure
    Pareto tail, or inf where that exceeds the float range.  Accepts any
    tail exponent alpha > 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    try:
        return float(n) ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def _scaled_entries(signs, v, n: int, c_n: float, alpha: float):
    """Scaled entries signs * v**(-1/alpha) / c_n of uniforms v in (0, 1] at
    size n, c_n = ``normalizer(n, alpha)``.

    That arithmetic is kept wherever it is finite, so those bits never move.
    At small alpha, v**(-1/alpha) can overflow although the scaled entry is
    in range, and c_n itself can overflow (inf); those entries (every entry,
    when c_n is inf) are taken as signs * (n v)**(-1/alpha) instead, which
    overflows only where the scaled entry does; an entry that overflows
    even so raises RunRefused.  v and signs are numpy arrays or scalars.
    """
    q = -1.0 / alpha
    with np.errstate(over="ignore", invalid="ignore"):
        b = signs * v ** q / c_n
        redo = ~np.isfinite(b) | math.isinf(c_n)
        if np.any(redo):
            b = np.where(redo, signs * (n * v) ** q, b)
    if not np.all(np.isfinite(b)):
        raise RunRefused(f"a scaled entry at size {n} and alpha = {alpha} "
                         f"exceeds the float range")
    return b


def entries_from_uniforms(v, signs, params: AlphaParams) -> EntrySequence:
    """Build an entry sequence from explicit uniforms v in (0, 1] and signs.

    |a_k| = v_k**(-1/alpha), a_k = signs_k * |a_k|, scaled by c_n as in
    ``_scaled_entries``.  Exposed so tests can drive the inverse-CDF map
    with hand-picked uniforms.
    """
    v = np.asarray(v, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if v.ndim != 1 or v.shape != signs.shape:
        raise ValueError("v and signs must be 1-d arrays of equal length")
    if v.size == 0:
        raise ValueError("need at least one entry")
    if np.any(v <= 0.0) or np.any(v > 1.0):
        raise ValueError("uniforms must lie in (0, 1]")
    c_n = normalizer(v.size, params.alpha)
    b = _scaled_entries(signs, v, v.size, c_n, params.alpha)
    return EntrySequence(c_n=c_n, b=b, alpha=params.alpha, p=params.p)


def sample_entries(n: int, params: AlphaParams, seed: RngSeed) -> EntrySequence:
    """Draw n i.i.d. signed Pareto(alpha) entries and normalize by c_n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = seed.generator()
    v = 1.0 - rng.random(n)  # (0, 1]
    signs = np.where(rng.random(n) < params.p, 1.0, -1.0)
    return entries_from_uniforms(v, signs, params)


def coupled_entry_draws(n_list, params: AlphaParams, seed: RngSeed) -> dict:
    """Entry sequences at several sizes that share their largest entries.

    Each size n is exactly n i.i.d. signed Pareto(alpha) entries.  Sizes are
    coupled through Renyi's representation of order statistics: with one
    sequence of arrival times Gamma_1 < ... < Gamma_{n_max+1} (cumulative
    Exp(1) sums), the uniforms Gamma_i / Gamma_{n+1}, i <= n, are the order
    statistics of n i.i.d. uniforms, so rank i has |a|_(i) =
    (Gamma_{n+1} / Gamma_i)**(1/alpha) at size n.  Rank i keeps one sign at
    every size.  Each of the COUPLED_TOP_RANKS largest ranks also keeps a
    relative position zeta_i: it sits at floor(zeta_i * n) unless a larger
    rank already holds that cell, in which case it is redrawn uniformly
    among the free cells.  The remaining ranks fill the free cells in a
    uniform random order.  Redraws and the order of the remaining ranks
    come from a stream of their own per size, keyed (seed, stream, n).

    Returns {n: EntrySequence}.  The draw at size n depends on (seed,
    stream, n, max(n_list)).
    """
    gamma, signs, _, layout = _coupled_layout(n_list, params.p, seed)
    draws = {}
    for n, positions in layout.items():
        v = np.empty(n)
        s = np.empty(n)
        v[positions] = gamma[:n] / gamma[n]
        s[positions] = signs[:n]
        draws[n] = entries_from_uniforms(v, s, params)
    return draws


def _coupled_layout(n_list, p: float, seed: RngSeed):
    """Shared draws behind coupled_entry_draws: arrival times gamma
    (n_max + 1), signs by rank (n_max), relative positions zeta of the top
    ranks, and per size n the positions from _place_ranks."""
    sizes = sorted({int(n) for n in n_list})
    if not sizes or sizes[0] < 1:
        raise ValueError(f"sizes must be >= 1, got {list(n_list)}")
    n_max = sizes[-1]
    rng = seed.generator()
    gamma = np.cumsum(rng.standard_exponential(n_max + 1))
    signs = np.where(rng.random(n_max) < p, 1.0, -1.0)
    zeta = rng.random(min(COUPLED_TOP_RANKS, n_max))
    layout = {}
    for n in sizes:
        size_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed.seed, spawn_key=(seed.stream, n))
        )
        layout[n] = _place_ranks(zeta, n, size_rng)
    return gamma, signs, zeta, layout


def _place_ranks(zeta, n: int, rng: np.random.Generator):
    """Positions of ranks 0..n-1 (0 = largest) at size n.

    Top rank i proposes cell floor(zeta_i * n); a taken cell is replaced by
    a uniform free one, so each top rank lands uniformly among the cells
    still free, and it was redrawn exactly when positions[i] differs from
    floor(zeta_i * n).  The other ranks take the remaining cells in uniform
    random order.
    """
    top = min(len(zeta), n)
    cells = (zeta[:top] * n).astype(np.int64)  # zeta < 1, so every cell < n
    positions = np.empty(n, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    for i, cell in enumerate(cells):
        if taken[cell]:
            free = np.flatnonzero(~taken)
            cell = free[rng.integers(free.size)]
        positions[i] = cell
        taken[cell] = True
    positions[top:] = rng.permutation(np.flatnonzero(~taken))
    return positions


def _grid_uniform(rng: np.random.Generator, size: int, shift: int) -> np.ndarray:
    """Uniform grid indices of [0, 1/2) shifted left by ``shift`` bits."""
    n = rng.integers(0, 1 << (TURN_BITS - 1), size=size, dtype=np.uint64)
    return n << np.uint64(shift)


def sample_environment(j: int, params: AlphaParams, seed: RngSeed) -> Environment:
    """Draw one environment of series length j."""
    if j < 1:
        raise ValueError(f"series length must be >= 1, got {j}")
    return _environment_from(seed, j, params)[0]


def _environment_from(
    seed: RngSeed, j: int, params: AlphaParams
) -> tuple[Environment, np.random.Generator]:
    """An environment drawn from the start of ``seed``'s stream, and the
    generator after it.  Raises RunRefused where the largest series weight
    Gamma_1**(-1/alpha) exceeds the float range: that exact value has no
    finite stand-in.  The check follows the draw, so no stream moves."""
    rng = seed.generator()
    gamma = np.cumsum(rng.standard_exponential(j))
    zeta = _grid_uniform(rng, j, 0)  # [0, 1/2)
    u = _grid_uniform(rng, j, 1)  # [0, 1), even indices
    # j sign uniforms that nothing reads, drawn to keep redraw_phases on its
    # recorded stream positions; the draw goes with ROADMAP item 1's re-record
    rng.random(j)
    with np.errstate(over="ignore"):
        overflow = np.isinf(gamma[0] ** (-1.0 / params.alpha))
    if overflow:
        raise RunRefused(
            f"series weight Gamma_1**(-1/alpha) exceeds the float range at "
            f"alpha = {params.alpha}, stream {seed.stream}: Gamma_1 = {gamma[0]:.3g}"
        )
    return Environment(gamma=gamma, zeta=zeta, u=u, alpha=params.alpha), rng


def redraw_phases(env: Environment, rng: np.random.Generator) -> Environment:
    """Fresh phases u for a fixed (gamma, zeta): one conditional redraw."""
    return replace(env, u=_grid_uniform(rng, len(env), 1))


def default_series_length(alpha: float) -> int:
    """Series length J making the dropped tail negligible.

    For alpha < 1 the tail 2*sum_{j>=J} j**(-1/alpha) (arrival times grow like
    j) is required to fall below _SERIES_REL_TOL times the retained partial
    sum; the result is capped at _SERIES_CAP since the bound degenerates as
    alpha -> 1.  For alpha >= 1 the series is only conditionally convergent,
    so a fixed length of 10_000 is used and callers should report it.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if alpha >= 1.0:
        return 10_000
    q = 1.0 / alpha
    j = 64
    while j < _SERIES_CAP:
        partial = 1.0 + np.sum(np.arange(1, j, dtype=float) ** (-q))
        tail = j ** (1.0 - q) / (q - 1.0)
        if tail < _SERIES_REL_TOL * partial:
            return j
        j *= 2
    return _SERIES_CAP
