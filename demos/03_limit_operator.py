"""Finite windows of the limiting random operator.

The large-size limit of the projected spectra is governed by an operator
on l2(Z): the half-frequency projection (kernel 1/2 on the diagonal,
-i/(pi(k-l)) at odd offsets) sandwiching a random diagonal built from a
Poisson-weighted cosine series.  This script samples one environment,
inspects the series, demonstrates the exact phase-shift identity, and
computes a window of the operator together with its spectral measure at
the projected basis vector and the resolvent identity residual.
"""

import numpy as np

from htt import (
    AlphaParams,
    CosineSeries,
    RngSeed,
    TruncationLevels,
    projection_entry,
    sample_environment,
    series_value,
    shift_environment,
)
from htt.metrics import support_bound
from htt.sampler import default_series_length
from htt.spectra import resolvent_identity_residual, window_measure

params = AlphaParams(alpha=0.5, p=0.5)
j = default_series_length(params.alpha)
env = sample_environment(j, params, RngSeed(11))
print(f"environment: {j} series terms, first arrivals {env.gamma[:4].round(3)}")

# the projection kernel
print("kernel entries: diag", projection_entry(0, 0),
      " odd", projection_entry(1, 0), " even", projection_entry(2, 0))

# the random diagonal and the exact shift identity
series = CosineSeries(env)
vals = [series_value(series, k) for k in range(-2, 3)]
print("series values at offsets -2..2:", np.round(vals, 4))
shifted = shift_environment(env, 5)
print("shift identity (exact):",
      series_value(CosineSeries(shifted), -3) == series_value(series, 2))

# a window of the truncated operator and its spectral measure
levels = TruncationLevels.coupled(64, w=256, j=j)
measure = window_measure(env, levels)
radius = support_bound(env)
print(f"window dim {2 * levels.w + 1}, top |eigenvalue| "
      f"{np.abs(measure.locations).max():.4f} vs support radius {radius:.4f}")

res = resolvent_identity_residual(env, TruncationLevels(m=1.0, k=4, l=1, w=256, j=j), 1j)
print(f"resolvent identity residual at z=i, window 256: {res:.2e}")
