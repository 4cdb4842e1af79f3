"""Finite random matrices: Toeplitz, circulant embedding, the DFT-side
projection, and the spectra of the truncation-ladder stages.

Matrices are plain numpy arrays (real symmetric or complex Hermitian);
diagonal spectra are 1-d float arrays of length 2N.  Conventions:

* The symmetric circulant embedding of an N-entry sequence is 2N x 2N with
  symbol (b_0, ..., b_{N-1}, w, b_{N-1}, ..., b_1); the wrap entry w defaults
  to 0 and never affects the principal N x N block.
* ``circulant_eigs`` returns d_k = b_0 + 2*sum_{j=1}^{N-1} b_j cos(pi j k / N)
  + (-1)**k w.
  A ladder stage's diagonal is the cosine spectrum of its coefficients c,
  d_k = 2*sum_{j=0}^{N-1} c_j cos(pi j k / N), k in [2N]: the j = 0 term
  doubled as well, which shifts every eigenvalue by c_0.  An FFT is used
  internally; the cosine formula is the contract.
* The projection matrix P = F* Q F (F the 2N-point unitary DFT, Q the
  indicator of the first N coordinates) has closed-form entries depending
  only on k - l: 1/2 on the diagonal, 0 at even nonzero differences, and
  (1/N) / (1 - exp(-i pi (k-l) / N)) at odd differences.

P and its circular band truncations P_l are circulant, so the DFT
diagonalizes them: ``projection_symbol`` gives their eigenvalues q_l.  A
ladder stage P_l diag(d) P_l with d the cosine spectrum of c is therefore
unitarily similar to diag(q_l) C diag(q_l), C the real symmetric circulant
with eigenvalues d, and without truncation its spectrum is that of the N x N
Toeplitz corner of C plus N zeros.  ``stage_eigvals`` uses these real forms;
``projection_matrix`` and ``sandwich`` build the dense complex objects they
replace, for the corner-identity check of ``htt esd``.

Every symmetric Toeplitz matrix is centrosymmetric (JTJ = T, J the
reversal), and every banded stage commutes with the reflection
k -> (N + 1 - k) mod 2N, which fixes q_l and the circulant C.  In the basis
of symmetric and antisymmetric combinations of mirrored coordinates
(Cantoni & Butler, Linear Algebra Appl. 13, 1976) each splits into an even
and an odd real block of about half the size; ``toeplitz_eigvalsh`` and
``stage_eigvals`` solve the two blocks, and ``build_toeplitz``, a strided
view of T, remains the dense oracle.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .sampler import EntrySequence

__all__ = [
    "TruncationLevels",
    "build_toeplitz",
    "toeplitz_eigvalsh",
    "build_circulant",
    "circulant_symbol",
    "circulant_eigs",
    "projection_matrix",
    "projection_symbol",
    "clip_entries",
    "topk_coefficients",
    "stage_eigvals",
    "sandwich",
]


@dataclass(frozen=True)
class TruncationLevels:
    """Truncation levels: magnitude cap m, top-k terms, band width l,
    window half-width w, series length j.

    Coupled mode ties k = round(l**(1/9)) and m = l**(1/9) (m stays real
    before rounding), the scaling under which the matrix and operator
    truncation errors vanish together.  ``core`` is the radius that the
    projected vector keeps inside the window.
    """

    m: float
    k: int
    l: int
    w: int
    j: int

    def __post_init__(self):
        if self.m <= 0 or self.k < 1 or self.l < 1 or self.w < 1 or self.j < 1:
            raise ValueError(f"all truncation levels must be positive: {self}")

    @property
    def core(self) -> int:
        """w - l, so the band's reach stays inside the window; the whole
        window when the band is at least as wide."""
        return self.w - self.l if self.w > self.l else self.w

    @classmethod
    def coupled(cls, l: int, w: int | None = None, j: int = 10_000) -> "TruncationLevels":
        m = float(l) ** (1.0 / 9.0)
        return cls(m=m, k=max(1, round(m)), l=l, w=8 * l if w is None else w, j=j)


# Rows of a ladder stage block weighted per step by q q^T.  tracemalloc
# peak of a banded stage at N = 511 and 512, in blocks: 1 and 8 rows 1.082,
# 16 rows 1.114, 32 rows 1.145, against a working-memory budget of 1.1.
_WEIGHT_ROWS = 8


def _hankel(vals: np.ndarray, cols: int) -> np.ndarray:
    """Strided view H(i, j) = vals[i + j] with ``cols`` columns."""
    return np.lib.stride_tricks.sliding_window_view(vals, cols)


def _toeplitz_view(c: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """Strided view of the Toeplitz matrix with first column c and first row
    r (r[0] ignored); r = conj(c) by default, so Hermitian when c[0] is real.

    T(i, j) = vals[len(c) - 1 - i + j] for vals = (c reversed, r[1:]): the
    Hankel view of vals with its rows reversed.
    """
    c = np.asarray(c)
    r = c.conj() if r is None else np.asarray(r)
    return _hankel(np.concatenate([c[::-1], r[1:]]), r.shape[0])[::-1]


def _toeplitz(c: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """``_toeplitz_view(c, r)`` copied into its own array; equal element for
    element to ``scipy.linalg.toeplitz(c, r)``."""
    return _toeplitz_view(c, r).copy()


def _circulant(c: np.ndarray) -> np.ndarray:
    """Circulant matrix C(i, j) = c[(i - j) mod n]; equal element for element
    to ``scipy.linalg.circulant(c)``."""
    c = np.asarray(c)
    return _toeplitz(c, np.concatenate([c[:1], c[:0:-1]]))


def build_toeplitz(entries: EntrySequence) -> np.ndarray:
    """N x N symmetric Toeplitz matrix T(k, l) = b_|k-l|, as the read-only
    strided view ``_toeplitz_view(entries.b)``: no N x N array is made."""
    return _toeplitz_view(entries.b)


def _split_eigvalsh(
    toep: np.ndarray,
    hank: np.ndarray,
    scale: Callable[[np.ndarray], None] | None = None,
    inner: slice = slice(None),
) -> np.ndarray:
    """Sorted union of the spectra of the even block toep + hank and of the
    odd block toep - hank restricted to ``inner``, each rescaled in place
    by ``scale`` when given.

    Both blocks are built in turn in one m x m array, so a solve holds one
    block (besides the copy ``eigvalsh`` makes of it) while toep and hank
    stay strided views.
    """
    block = np.empty(toep.shape)
    values = []
    for combine, keep in ((np.add, slice(None)), (np.subtract, inner)):
        combine(toep, hank, out=block)
        if scale is not None:
            scale(block)
        part = block[keep, keep]
        if part.size:
            values.append(np.linalg.eigvalsh(part))
    return np.sort(np.concatenate(values))


def toeplitz_eigvalsh(b) -> np.ndarray:
    """Sorted eigenvalues of the symmetric Toeplitz matrix T(k, l) = b_|k-l|,
    from two blocks of about half the size, without building T.

    With m = ceil(n/2), A = toeplitz(b[:m]) and the Hankel
    H(i, j) = b[n-1-i-j], the even block is A + H and the odd block A - H.
    For odd n the middle coordinate is its own mirror image: it is the last
    index of both, its row and column of A + H are scaled by 1/sqrt(2)
    (giving sqrt(2) b_(m-1-i) off the diagonal and b_0 on it), and it is
    dropped from A - H, where it vanishes.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if n == 1:
        return b.copy()
    m = (n + 1) // 2
    toep = _toeplitz_view(b[:m])
    hank = _hankel(b[::-1][: 2 * m - 1], m)
    if n % 2 == 0:
        return _split_eigvalsh(toep, hank)

    def halve_middle(block: np.ndarray) -> None:
        block[-1, :] *= np.sqrt(0.5)
        block[:, -1] *= np.sqrt(0.5)

    return _split_eigvalsh(toep, hank, halve_middle, slice(None, -1))


def circulant_symbol(entries: EntrySequence, wrap_entry: float = 0.0) -> np.ndarray:
    b = entries.b
    return np.concatenate([b, [wrap_entry], b[:0:-1]])


def build_circulant(entries: EntrySequence, wrap_entry: float = 0.0) -> np.ndarray:
    """2N x 2N symmetric circulant G(k, l) = b_min(|k-l|, 2N-|k-l|).

    The principal N x N block equals ``build_toeplitz(entries)`` for any
    wrap entry.  ``wrap_entry`` fills the unconstrained b_N slot; pass an
    independent copy of b_0 for the interlacing experiment variant.
    """
    return _circulant(circulant_symbol(entries, wrap_entry))


def circulant_eigs(entries: EntrySequence, wrap_entry: float = 0.0) -> np.ndarray:
    """Eigenvalues d_k = b_0 + 2*sum_{j=1}^{N-1} b_j cos(pi j k / N)
    + (-1)**k b_N, k in [2N], b_N = ``wrap_entry``.

    These are the eigenvalues of ``build_circulant(entries, wrap_entry)``
    in DFT order, not sorted.
    """
    return np.fft.fft(circulant_symbol(entries, wrap_entry)).real.copy()


def _cosine_symbol(c: np.ndarray) -> np.ndarray:
    """Symbol (2 c_0, c_1, ..., c_{N-1}, 0, c_{N-1}, ..., c_1) of the real
    symmetric circulant whose eigenvalues are the cosine spectrum
    2*sum_j c_j cos(pi j k / N) of c."""
    return np.concatenate([[2.0 * c[0]], c[1:], [0.0], c[:0:-1]])


def _projection_column(n: int) -> np.ndarray:
    """First column of P: 1/2 at offset 0, 0 at even offsets, and
    (1/N)/(1 - exp(-i pi d/N)) at odd offsets d."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = np.arange(2 * n)
    col = np.zeros(2 * n, dtype=complex)
    col[0] = 0.5
    odd = d % 2 == 1
    col[odd] = (1.0 / n) / (1.0 - np.exp(-1j * np.pi * d[odd] / n))
    return col


def projection_matrix(n: int) -> np.ndarray:
    """2N x 2N Hermitian idempotent P = F* Q F in closed form.

    Diagonal 1/2; zero at even nonzero |k-l|; (1/N)/(1 - exp(-i pi (k-l)/N))
    at odd |k-l|.  Entries depend only on k - l, so the matrix is Hermitian
    Toeplitz.
    """
    return _toeplitz(_projection_column(n))


def projection_symbol(n: int, l: int) -> np.ndarray:
    """Eigenvalues of P_l, the circular band truncation of
    ``projection_matrix(n)`` to the offsets d <= l and d >= 2N - l, in DFT
    order.

    The truncation is circulant, so its eigenvalues are the FFT of its first
    column: P's column with the circular offsets l < d < 2N - l zeroed.
    They are real because the column is Hermitian.  A band l >= n keeps the
    whole column, with a warning.
    """
    if l < 0:
        raise ValueError(f"band width must be >= 0, got {l}")
    col = _projection_column(n)
    if l >= n:
        warnings.warn(f"band width {l} >= {n} covers the whole matrix", stacklevel=2)
    else:
        col[l + 1 : 2 * n - l] = 0.0
    return np.fft.fft(col).real


def clip_entries(b: np.ndarray, m: float) -> np.ndarray:
    """Magnitude clip sgn(b) * min(|b|, m); values at exactly |b| = m kept."""
    if m <= 0:
        raise ValueError(f"clip level must be positive, got {m}")
    b = np.asarray(b, dtype=float)
    return np.sign(b) * np.minimum(np.abs(b), m)


def topk_coefficients(entries: EntrySequence, m: float, k: int) -> np.ndarray:
    """Coefficients of the top-k stage: the clipped entries at the k
    largest-magnitude positions sigma(0..k-1), zero elsewhere, so that
    their cosine spectrum is

        d_t = 2 * sum_{j<k} clip(b_(j), m) * cos(pi * t * sigma(j) / N).
    """
    n = len(entries)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    top = entries.top(k)
    c = np.zeros(n)
    c[top] = clip_entries(entries.b[top], m)
    return c


def stage_eigvals(c: np.ndarray, band: np.ndarray | None = None) -> np.ndarray:
    """Spectrum of P_l diag(d) P_l, 2N values, d the cosine spectrum of a
    real coefficient vector c of length N.

    ``band`` is the projection symbol q_l (``projection_symbol(N, l)``), or
    None for the untruncated P.  Untruncated, the spectrum is that of the
    N x N Toeplitz corner of C, the real symmetric circulant of
    ``_cosine_symbol(c)``, followed by N exact zeros (the corner embedding).
    With q_l the stage is unitarily similar to M = diag(q_l) C diag(q_l),
    which commutes with the reflection k -> (N + 1 - k) mod 2N.  On the
    coordinates k_0 + t, k_0 = N//2 + 1, M(k_0 + t, mirror of k_0 + u) is
    q_t q_u s_((t + u + 1 - N % 2) mod 2N), s the symbol, so the even and
    odd blocks are q q^T * (toeplitz(s) +- that Hankel), each N x N for
    even N.  For odd N the ends t = 0 and t = N are the two fixed points:
    they join the even block with weight 1/sqrt(2) and drop out of the odd
    one, giving blocks of N + 1 and N - 1.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    symbol = _cosine_symbol(c)
    if band is None:
        return np.concatenate([toeplitz_eigvalsh(symbol[:n]), np.zeros(n)])
    parity = n % 2
    size = n + parity
    t = np.arange(size)
    q = band[(n // 2 + 1 + t) % (2 * n)]
    if parity:
        q[[0, -1]] *= np.sqrt(0.5)
    # (t + u + 1 - parity) mod 2N wraps only at t = u = N for odd N
    hank = _hankel(np.concatenate([symbol, symbol[:1]])[1 - parity :], size)[:size]

    def weigh(block: np.ndarray) -> None:
        # _WEIGHT_ROWS rows at a time, so the q q^T weights never fill a block
        # of their own; each entry gets x * (q_i * q_j) whatever the row count,
        # so spectra do not depend on it
        for i in range(0, size, _WEIGHT_ROWS):
            block[i : i + _WEIGHT_ROWS] *= np.multiply.outer(q[i : i + _WEIGHT_ROWS], q)

    inner = slice(1, -1) if parity else slice(None)
    return _split_eigvalsh(_toeplitz_view(symbol[:size]), hank, weigh, inner)


def sandwich(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Hermitian triple product P diag(d) P for Hermitian P and real d."""
    d = np.asarray(d, dtype=float)
    if p.shape[0] != p.shape[1] or p.shape[0] != d.shape[0]:
        raise ValueError(f"dimension mismatch: {p.shape} vs {d.shape}")
    return (p * d) @ p.conj().T
