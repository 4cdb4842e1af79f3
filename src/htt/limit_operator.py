"""Finite windows of the limiting objects on l2(Z): the half-frequency
projection kernel, the random cosine-series diagonal, and their sandwich.

The projection kernel is the Fourier-side indicator of [0, 1/2]:

    entry(k, l) = 1/2            if k == l,
                  0              if k != l and k - l even,
                  -i/(pi (k-l))  if k - l odd.

Windows are built in the gauge of the diagonal unitary Phi = diag(i**k).
Conjugating by Phi turns the kernel into the real symmetric

    i**(k-l) entry(k, l) = 1/2                      if k == l,
                           0                        if k != l and k - l even,
                           (-1)**((d-1)/2)/(pi d)    if d = k - l is odd,

and Phi commutes with the random diagonal, so every operator window
Phi (P D P) Phi* is exactly real symmetric: window entry (k, l) equals
i**(k-l) times the operator's matrix element.  The projected vector is
carried as Phi u, which is real as well.  Phi is unitary and diagonal, so
the spectral measures at Phi u and at every basis vector e_k are those of
the complex operator at u and e_k.  :func:`projection_entry` keeps the
complex definition, the oracle the gauge is tested against.

Band truncation here is a straight band on Z (no circular wrap), unlike the
matrix-side truncation in :mod:`htt.matrices` which wraps on [2N].  Keeping
the two in separate modules avoids mixing the conventions.

Windows are exact compressions: the inner summation index of the triple
product is padded by the band width on both sides, so every retained band
entry sees its full band and the window entries coincide with the infinite
operator's matrix elements throughout the window.  A window has bandwidth
2l, and :func:`window_from_diagonal` builds it band by band from one
Toeplitz block of the kernel, mirroring upper blocks so that it is exactly
symmetric.

The random diagonal is a cosine series in the phases u_j + k zeta_j.  The
environment carries u and zeta as uint64 indices of the turns n / 2**33
(:data:`htt.sampler.TURN_BITS`), so every phase is the integer index
u_j + k zeta_j mod 2**33, exact at every offset k.  :func:`series_values`
reads every factor exp(2 pi i n / 2**33) from three 2**11-entry tables,
built on first use: no transcendental is evaluated per series term, and
each factor is within about 2e-16 (quarter turns exact).  Its values agree
with the compensated sum of :func:`series_value` to 1e-14 * 2 sum |c_j|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .matrices import TruncationLevels
from .sampler import TURN_BITS, Environment

__all__ = [
    "CosineSeries",
    "OperatorWindow",
    "projection_entry",
    "projection_unit_vector",
    "series_coefficients",
    "series_value",
    "series_values",
    "shift_environment",
    "window_from_diagonal",
    "operator_window",
]


# Rows of a cosine series evaluated per step of series_values; bounds its
# working memory for every series length.
_SERIES_CHUNK = 4096

# Least row-block height of window_from_diagonal: below it the per-block
# overhead outweighs the flops saved.
_WINDOW_BLOCK_FLOOR = 32


def projection_entry(k: int, l: int) -> complex:
    """Kernel entry of the half-frequency projection at (k, l) (complex,
    outside the gauge)."""
    d = k - l
    if d == 0:
        return 0.5 + 0.0j
    if d % 2 == 0:
        return 0.0 + 0.0j
    return -1j / (math.pi * d)


def _projection_block(rows: np.ndarray, cols: np.ndarray, band: int | None) -> np.ndarray:
    """Gauge kernel i**(k-l) entry(k, l) on rows x cols, band-zeroed beyond
    |k-l| > band: real, and 1/(pi |d|) signed by (-1)**((|d|-1)/2) at odd d."""
    d = rows[:, None] - cols[None, :]
    lo = int(d.min())
    offsets = np.abs(np.arange(lo, int(d.max()) + 1))
    kernel = np.where(offsets % 4 == 1, 1.0, -1.0) / (np.pi * np.maximum(offsets, 1))
    kernel[offsets % 2 == 0] = 0.0
    kernel[offsets == 0] = 0.5
    if band is not None:
        kernel[offsets > band] = 0.0
    return kernel[d - lo]


def projection_unit_vector(w: int) -> np.ndarray:
    """sqrt(2) times the gauge kernel column at 0, restricted to |k| <= w:
    the projected basis vector u in the gauge, Phi u (real).

    The squared norm tends to 1 as w grows (it is >= 0.999 from w = 512 on);
    normalize before using it as a spectral-measure vector.
    """
    if w < 1:
        raise ValueError(f"half-width must be >= 1, got {w}")
    ks = np.arange(-w, w + 1)
    return np.sqrt(2.0) * _projection_block(ks, np.array([0]), None)[:, 0]


@dataclass(frozen=True)
class CosineSeries:
    """Random cosine series 2*sum_j g_j**(-1/alpha) cos(2 pi (u_j + k zeta_j)).

    terms caps the series length; clip replaces g_j by max(g_j, clip**-alpha)
    so every coefficient is at most clip; top_k keeps only j < top_k.  With
    both set, values are bounded by 2 * clip * top_k.
    """

    env: Environment
    terms: int | None = None
    clip: float | None = None
    top_k: int | None = None

    def _coeff_count(self) -> int:
        n = len(self.env)
        if self.terms is not None:
            n = min(n, self.terms)
        if self.top_k is not None:
            n = min(n, self.top_k)
        return n


def series_coefficients(series: CosineSeries) -> np.ndarray:
    """Coefficients g_j**(-1/alpha) (clipped if requested), j < effective length."""
    n = series._coeff_count()
    g = series.env.gamma[:n]
    if series.clip is not None:
        g = np.maximum(g, series.clip ** (-series.env.alpha))
    return g ** (-1.0 / series.env.alpha)


def series_value(series: CosineSeries, k: int) -> float:
    """Series value at integer offset k, summed in ascending j with
    compensated summation."""
    n = series._coeff_count()
    coeff = series_coefficients(series)
    index = (series.env.u[:n] + _grid_index(k) * series.env.zeta[:n]) & _TURN_MASK
    phase = index * 2.0**-TURN_BITS
    return 2.0 * math.fsum(coeff * np.cos(2.0 * np.pi * phase))


# i**q for q mod 4: exact quarter turns
_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])

# A phase index n mod 2**TURN_BITS splits into three _TABLE_BITS-bit
# digits, each read from its own table.
_TURN_MASK = np.uint64((1 << TURN_BITS) - 1)
_TABLE_BITS = 11
_DIGIT_MASK = (1 << _TABLE_BITS) - 1
# Rows of a running product between fresh table factors: the product's
# error grows with the rows since the last one.
_RESTART_ROWS = 32


def _turn(x: np.ndarray) -> np.ndarray:
    """exp(2 pi i x) for x on the dyadic grid.

    x is split exactly into q/4 + r with |r| <= 1/8: the angle 2 pi r is at
    most pi/4, so it rounds by less than 1e-16, and the quarter turn i**q
    is exact.
    """
    quarter = np.rint(4.0 * x)
    return np.exp(2j * np.pi * (x - 0.25 * quarter)) * _QUARTER_TURNS[
        quarter.astype(np.int64) % 4
    ]


@functools.cache
def _turn_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """HI, MID - 1 and LO - 1: the turns exp(2 pi i n / 2**33) of the high,
    middle and low 11-bit digit of n, n = 2**22 h, 2**11 m and l.

    HI comes from the quarter-turn split of :func:`_turn` (within 1.1e-16,
    quarter turns exact).  The middle and low turns are within 3e-3 of 1,
    so they are kept as their offsets from 1, which ``expm1`` gives to
    about 1e-19.  Built on first use.
    """
    digits = np.arange(1 << _TABLE_BITS, dtype=float)
    hi = _turn(np.ldexp(digits, -_TABLE_BITS))
    mid, lo = (
        np.expm1(2j * np.pi * np.ldexp(digits, shift - TURN_BITS))
        for shift in (_TABLE_BITS, 0)
    )
    return hi, mid, lo


def _grid_index(k: int) -> np.uint64:
    """Offset k as a uint64 multiplier of grid indices (k mod 2**33)."""
    return np.uint64(k % (1 << TURN_BITS))


def _turn_of(n: np.ndarray) -> np.ndarray:
    """exp(2 pi i n / 2**33) for uint64 indices n (taken mod 2**33), read
    from the tables as HI (1 + small), small = MID LO - 1 to about 1e-19:
    two roundings near 1e-16, and exact at quarter turns."""
    hi, mid, lo = _turn_tables()
    # int64 indices gather without a cast; an arithmetic shift of the
    # signed view keeps every digit below bit 33
    n = n.view(np.int64)
    m = mid[(n >> _TABLE_BITS) & _DIGIT_MASK]
    l = lo[n & _DIGIT_MASK]
    small = m + l
    small += m * l
    out = hi[(n >> 2 * _TABLE_BITS) & _DIGIT_MASK]
    out += out * small
    return out


def _running_powers(
    first: np.ndarray | float, n_step: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fill the rows out[q] = first * exp(2 pi i q n_step / 2**33) by running
    complex products with the step read from the tables.  The product picks
    up the step's error once per row, so every _RESTART_ROWS rows it
    restarts from a fresh table factor for q n_step."""
    step = _turn_of(n_step)
    out[0] = first
    for q in range(1, out.shape[0]):
        if q % _RESTART_ROWS:
            np.multiply(out[q - 1], step, out=out[q])
        else:
            np.multiply(first, _turn_of(np.uint64(q) * n_step), out=out[q])
    return out


def series_values(series: CosineSeries, ks: np.ndarray) -> np.ndarray:
    """Vectorized series values at integer offsets ks, by per-row phase
    rotation.

    With B = ceil(sqrt(span of ks)) and Q = ceil(span / B), write
    k = k_min + q B + r.  Each row j of the series takes three factors:
    the start e_j = exp 2 pi i (u_j + k_min zeta_j), the block step
    s_j = exp 2 pi i B zeta_j and the unit step t_j = exp 2 pi i zeta_j.
    Running products give the left columns c_j e_j s_j**q (q < Q) and the
    right columns t_j**r (r < B), and

        value(k) = 2 Re sum_j (c_j e_j s_j**q) t_j**r,

    one real matrix product per _SERIES_CHUNK rows (the right columns are
    carried conjugated, so the float views of the two complex arrays
    multiply to the real part directly).

    Phases are integers: the three factors have the grid indices
    u_j + k_min zeta_j, B zeta_j and -zeta_j, taken mod 2**33 by uint64
    wraparound: exact for every offset.
    Each factor is read from three 2**11-entry tables
    (:func:`_turn_tables`), within about 2e-16 and exact at quarter turns,
    with no transcendental call per row.  A running product picks up its
    step's error once per row, so it restarts from a fresh table factor
    every _RESTART_ROWS rows.  The error against the compensated sum of
    :func:`series_value` therefore grows like min(sqrt(span), 32) * eps *
    sum |c_j| and stays within 1e-14 * 2 sum |c_j| (the worst of 5000 draws
    at span 3073 was 5.8e-15); the values are not bit-identical to it.
    The offsets enter only through k - k_min and the start index mod
    2**33, so the dyadic shift identity of :func:`shift_environment` holds
    bit for bit, and offsets ks and ks + 2**33 give the same values.
    """
    ks = np.asarray(ks, dtype=np.int64)
    n = series._coeff_count()
    coeff = series_coefficients(series)
    k_min = int(ks.min())
    span = int(ks.max()) - k_min + 1
    block = math.isqrt(span - 1) + 1
    count = -(-span // block)
    start_mult = _grid_index(k_min)
    table = np.zeros((count, block))
    # one pair of working arrays for all chunks; the last chunk uses a part
    left_rows = np.empty((count, min(n, _SERIES_CHUNK)), dtype=complex)
    right_rows = np.empty((block, min(n, _SERIES_CHUNK)), dtype=complex)
    for lo in range(0, n, _SERIES_CHUNK):
        rows = slice(lo, min(lo + _SERIES_CHUNK, n))
        size = rows.stop - lo
        zeta = series.env.zeta[rows]
        start = coeff[rows] * _turn_of(series.env.u[rows] + start_mult * zeta)
        left = _running_powers(start, np.uint64(block) * zeta, left_rows[:, :size])
        right = _running_powers(1.0, -zeta, right_rows[:, :size])
        # Re(a * conj(b)) = Re a Re b + Im a Im b: a dot product of float views
        table += left.view(float) @ right.view(float).T
    offset = ks - k_min
    return 2.0 * table[offset // block, offset % block]


def shift_environment(env: Environment, l: int) -> Environment:
    """Coordinatewise rotation of the phases: u_j -> frac(u_j + l*zeta_j).

    The phases are grid indices, so the rotation is the integer sum
    u_j + l zeta_j mod 2**33, exact for every int l: evaluating the shifted
    series at k gives the original series at k + l bit for bit.
    """
    return replace(env, u=(env.u + _grid_index(l) * env.zeta) & _TURN_MASK)


@dataclass(frozen=True)
class OperatorWindow:
    """Dense window of the compressed operator, indexed by
    k in {-half_width, ..., half_width}, in the gauge Phi = diag(i**k):
    matrix[k, l] = i**(k-l) A(k, l), a real symmetric float64 array."""

    half_width: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.half_width + 1

    def basis_vector(self, k: int = 0) -> np.ndarray:
        """Standard basis vector e_k within the window."""
        if abs(k) > self.half_width:
            raise ValueError(f"|k| must be <= {self.half_width}")
        e = np.zeros(self.dim)
        e[self.half_width + k] = 1.0
        return e


def window_from_diagonal(diag: np.ndarray, w: int, l: int) -> OperatorWindow:
    """Gauge window of the sandwich (band projection, given diagonal, band
    projection) for diagonal values aligned to indices {-w-l, ..., w+l}.

    The inner summation index runs over the padded range, so every retained
    band entry of the projection sees its full band and the window equals
    the compression of the infinite operator.  Band widths up to l = 2w are
    accepted; l = 2w leaves the projection untruncated at window scale.

    The window has bandwidth 2l and is built band by band: rows are taken
    in blocks of max(2l, _WINDOW_BLOCK_FLOOR).  The kernel is Toeplitz, so
    every row block of it is the same matrix K, built once.  A block of r
    rows starting at i0 reaches the c columns up to 2l to its right and the
    c + 2l diagonal values from i0, and its upper part is
    K[:r, :c+2l] diag(d[i0:i0+c+2l]) K[:c, :c+2l]^T.  Each block's upper
    triangle is mirrored, so the window is exactly symmetric.  At l = 2w one
    block covers the window.
    """
    if l > 2 * w:
        raise ValueError(f"band width {l} exceeds the window reach {2 * w}")
    diag = np.asarray(diag, dtype=float)
    dim = 2 * w + 1
    if diag.shape != (dim + 2 * l,):
        raise ValueError(f"diagonal must have length {dim + 2 * l}, got {diag.size}")
    height = max(2 * l, _WINDOW_BLOCK_FLOOR)
    reach = min(height + 2 * l, dim)
    kernel = _projection_block(np.arange(reach), np.arange(-l, reach + l), l)
    below = np.tri(min(height, dim), k=-1, dtype=bool)
    matrix = np.zeros((dim, dim))
    for i0 in range(0, dim, height):
        r = min(height, dim - i0)
        c = min(r + 2 * l, dim - i0)
        inner = c + 2 * l
        upper = matrix[i0 : i0 + r, i0 : i0 + c]
        np.matmul(kernel[:r, :inner] * diag[i0 : i0 + inner], kernel[:c, :inner].T, out=upper)
        square, mask = upper[:, :r], below[:r, :r]
        square[mask] = square.T[mask]
        matrix[i0 + r : i0 + c, i0 : i0 + r] = upper[:, r:].T
    return OperatorWindow(half_width=w, matrix=matrix)


def operator_window(env: Environment, levels: TruncationLevels) -> OperatorWindow:
    """Window of the band-truncated sandwich (projection, random diagonal,
    projection) at truncation levels (m, k, l) and half-width w."""
    w, l = levels.w, levels.l
    ms = np.arange(-w - l, w + l + 1)
    series = CosineSeries(env, terms=levels.j, clip=levels.m, top_k=levels.k)
    return window_from_diagonal(series_values(series, ms), w, l)
