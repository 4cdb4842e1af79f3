"""The circulant embedding and the exact spectral identity.

An n x n symmetric Toeplitz matrix embeds as the principal block of a
2n x 2n symmetric circulant.  Conjugating the zero-padded embedding
[[T, 0], [0, 0]] by the DFT turns it into P D P, where D holds the
circulant eigenvalues (explicit cosine sums) and P = F*QF is a projection
with closed-form entries.  The two matrices share their full spectrum,
eigenvalue by eigenvalue -- an identity this script checks numerically
and then uses to plot the ESD of a larger Toeplitz draw.
"""

from pathlib import Path

import numpy as np

from htt import (
    AlphaParams,
    RngSeed,
    build_circulant,
    build_toeplitz,
    circulant_eigs,
    esd,
    projection_matrix,
    sample_entries,
    sandwich,
    toeplitz_eigvalsh,
)
from htt.plots import emit_plots
from htt.serialize import histogram, save_histogram_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

params = AlphaParams(alpha=0.5, p=0.5)

# --- the identity at a small size, printed entry by entry -----------------
n = 8
entries = sample_entries(n, params, RngSeed(1))
t = build_toeplitz(entries)
g = build_circulant(entries)
print(f"Toeplitz {n}x{n} embeds in circulant {2*n}x{2*n}:",
      np.array_equal(g[:n, :n], t))

d = circulant_eigs(entries)
print("circulant eigenvalue formula vs dense solver:",
      np.allclose(np.sort(d), np.sort(np.linalg.eigvalsh(g)), atol=1e-12))

h = sandwich(projection_matrix(n), d)
padded = np.zeros((2 * n, 2 * n))
padded[:n, :n] = t
lhs = np.sort(np.linalg.eigvalsh(padded))
rhs = np.sort(np.linalg.eigvalsh(h))
print(f"max spectral deviation [[T,0],[0,0]] vs P D P: {np.abs(lhs - rhs).max():.2e}")

# --- the ESD of a larger draw ---------------------------------------------
n = 1024
entries = sample_entries(n, params, RngSeed(2))
m = esd(toeplitz_eigvalsh(entries.b))  # two half-size solves
edges, masses = histogram(m, bins=80)
csv = OUT / "esd_n1024.csv"
save_histogram_csv(csv, edges, masses)
svg = emit_plots([csv], out_path=OUT / "esd_n1024.svg",
                 title=f"ESD of a heavy-tailed Toeplitz draw, n={n}, alpha=0.5")[0]
print(f"wrote {csv} and {svg}")
