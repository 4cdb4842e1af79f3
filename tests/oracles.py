"""Dense and direct constructions that only the tests use, as oracles for
the library's structured computations."""

import warnings

import numpy as np

from htt.spectra import PointMeasure


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix F(k, l) = exp(2*pi*i*k*l/n) / sqrt(n)."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def band_truncate(p: np.ndarray, l: int) -> np.ndarray:
    """Circular band truncation: keep entries with |k-l| <= l or >= 2N - l.

    The wrap branch mirrors the circulant geometry of the underlying index
    set [2N].  If l covers the whole band the input is returned unchanged
    (copy) with a warning.
    """
    dim = p.shape[0]
    n = dim // 2
    if l < 0:
        raise ValueError(f"band width must be >= 0, got {l}")
    if l >= n:
        warnings.warn(f"band width {l} >= {n} covers the whole matrix", stacklevel=2)
        return p.copy()
    idx = np.arange(dim)
    dist = np.abs(idx[:, None] - idx[None, :])
    keep = (dist <= l) | (dist >= dim - l)
    return np.where(keep, p, 0.0)


def cosine_spectrum(b: np.ndarray) -> np.ndarray:
    """d_k = 2*sum_{j=0}^{N-1} b_j cos(pi j k / N) for k in [2N], as the FFT
    of the symbol (2 b_0, b_1, ..., b_{N-1}, 0, b_{N-1}, ..., b_1).

    Doubles the j = 0 term relative to ``circulant_eigs``, i.e. adds b_0 to
    every eigenvalue.  Accepts any real coefficient vector (e.g. clipped
    entries).
    """
    b = np.asarray(b, dtype=float)
    symbol = np.concatenate([[2.0 * b[0]], b[1:], [0.0], b[:0:-1]])
    return np.fft.fft(symbol).real.copy()


def ks_distance(m1: PointMeasure, m2: PointMeasure) -> float:
    """Kolmogorov-Smirnov distance sup_t |F1(t) - F2(t)|, evaluating both
    one-sided limits at every breakpoint.  Always >= the Levy distance."""
    pts = np.union1d(m1.locations, m2.locations)
    right = np.abs(m1.cdf(pts) - m2.cdf(pts)).max()
    left = np.abs(m1.cdf(pts, side="left") - m2.cdf(pts, side="left")).max()
    return float(max(right, left))
