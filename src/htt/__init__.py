"""Heavy-tailed Toeplitz spectra: finite matrices, the limiting random
operator, and Monte Carlo verification of its spectral properties."""

from .sampler import (
    AlphaParams,
    EntrySequence,
    Environment,
    RngSeed,
    default_series_length,
    normalizer,
    sample_entries,
    sample_environment,
)
from .matrices import (
    TruncationLevels,
    band_truncate,
    build_circulant,
    build_toeplitz,
    circulant_eigs,
    clip_entries,
    cosine_spectrum,
    dft_matrix,
    projection_matrix,
    projection_symbol,
    sandwich,
    stage_eigvals,
    toeplitz_eigvalsh,
    topk_coefficients,
)
from .limit_operator import (
    CosineSeries,
    OperatorWindow,
    operator_window,
    projection_entry,
    projection_unit_vector,
    projection_window,
    series_value,
    series_values,
    shift_environment,
)
from .spectra import (
    EigenSystem,
    PointMeasure,
    eig_hermitian,
    esd,
    mc_limit_measure,
    resolvent_identity_residual,
    spectral_measure_at,
    stieltjes,
)
from .metrics import (
    ks_distance,
    levy_distance,
    log_mgf,
    mgf,
    subgaussian_bound,
    support_bound,
)

__version__ = "0.1.0"
