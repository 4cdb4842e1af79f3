"""Properties of the limiting measure, checked per environment.

Four statements, each probed on sampled environments:

  * interlacing -- Toeplitz eigenvalues sit between the circulant
    embedding's eigenvalues (exact, per draw);
  * symmetry -- the limiting measure is symmetric around 0;
  * subgaussian MGF -- the quenched MGF is bounded by
    2 exp(2 b^2 sum gamma_j^(-2/alpha));
  * support -- for tail index < 1 the spectrum stays inside
    +-2 sum gamma_j^(-1/alpha); for tail index >= 1 the coefficient
    series diverges and the top eigenvalue grows with the series length.
"""

import math

import numpy as np

from htt import (
    AlphaParams,
    RngSeed,
    TruncationLevels,
    build_circulant,
    build_toeplitz,
    operator_window,
    sample_entries,
    sample_environment,
)
from htt.metrics import mgf, subgaussian_bound, support_bound
from htt.sampler import default_series_length
from htt.spectra import window_measure

# interlacing with an independent wrap entry
params = AlphaParams(alpha=0.5, p=0.5)
worst = -math.inf
rng = RngSeed(21).generator()
for r in range(20):
    entries = sample_entries(64, params, RngSeed(21, r))
    wrap = float(np.sign(rng.random() - 0.5) * (1 - rng.random()) ** -2 / entries.c_n)
    g = np.linalg.eigvalsh(build_circulant(entries, wrap_entry=wrap))
    t = np.linalg.eigvalsh(build_toeplitz(entries))
    worst = max(worst, np.max(g[:64] - t), np.max(t - g[64:]))
print(f"interlacing: worst signed violation over 20 draws = {worst:.2e} (<= 0 means satisfied)")

# quenched MGF bound and support radius, alpha = 0.5
j = default_series_length(0.5)
levels = TruncationLevels(m=math.inf, k=j, l=32, w=256, j=j)
hits = 0
for r in range(10):
    env = sample_environment(j, params, RngSeed(22, r))
    m = window_measure(env, levels)
    sym = m.mirrored()
    ok = all(mgf(sym, b) <= subgaussian_bound(env, b) for b in (0.5, 1.0))
    inside = np.abs(m.locations).max() <= support_bound(env)
    hits += ok and inside
print(f"MGF bound and support radius satisfied in {hits}/10 environments (alpha = 0.5)")

# support growth for alpha = 1.5: the series diverges, the spectrum spreads
params = AlphaParams(alpha=1.5, p=0.5)
env = sample_environment(4096, params, RngSeed(23))
for terms in (64, 512, 4096):
    lv = TruncationLevels(m=math.inf, k=terms, l=32, w=128, j=4096)
    top = np.abs(np.linalg.eigvalsh(operator_window(env, lv).matrix)).max()
    print(f"alpha = 1.5, series length {terms:5d}: top |eigenvalue| = {top:.3f}")
