"""Heavy-tailed Toeplitz spectra: finite matrices, the limiting random
operator, and Monte Carlo verification of its spectral properties.

The package re-exports each ``__all__`` of the core modules; experiments,
serialization and plots stay in their own modules.
"""

from .sampler import *
from .matrices import *
from .limit_operator import *
from .spectra import *
from .metrics import *

__version__ = "0.1.0"
