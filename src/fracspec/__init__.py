"""Spectral toolkit for sectorial convolution operators a*D^gamma + A* on
the real line: direct elliptic and parabolic solvers, symbol condition
checks, resolvent sweeps, and an anisotropic two-variable extension with a
discretized boundary operator in the second variable.

Each public name is declared once, in the ``__all__`` of its module; the
package re-exports those six lists.
"""

from . import bvp, core, elliptic, fractional, parabolic, symbols
from .bvp import *
from .core import *
from .elliptic import *
from .fractional import *
from .parabolic import *
from .symbols import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *fractional.__all__,
    *symbols.__all__,
    *elliptic.__all__,
    *parabolic.__all__,
    *bvp.__all__,
    "__version__",
]
