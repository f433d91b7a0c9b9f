"""Exact enumeration of Kac-Moody Weyl groups by word length.

Builds generalized Cartan matrices for the classical, affine-A, and
over-extended HA families, counts their Weyl groups by walking a parabolic
quotient W^J depth-first, each element named by a canonical nonnegative
root-lattice vector, and analyzes the resulting growth series: closed-form
Poincare polynomials for finite and affine types, and polynomial-quotient
fits for the hyperbolic ones.

The modules ``algebra`` (Cartan matrices), ``series`` (exact polynomials
and series) and ``coxeter`` (roots, degrees and the subgroup a count
factors out) are pure Python.  Only ``weyl``, the walk, imports numpy, so
it is loaded on first use of its names (PEP 562): importing the others
alone leaves numpy unloaded.
"""

import importlib

from . import algebra, series
from .algebra import *
from .series import *

__version__ = "0.1.0"

# weyl.__all__, which a test pins this list to.
_WEYL_NAMES = ("CheckpointMismatchError", "GrowthSeries", "LevelCheckpoint", "LevelTooLargeError",
               "gamma_reflect", "enumerate_levels", "level_sets", "weyl_orbit_oracle", "gcm_digest")

__all__ = [*algebra.__all__, *series.__all__, *_WEYL_NAMES]


def __getattr__(name: str):
    # importlib, not ``from . import weyl``: that looks the name up on this
    # module first, which calls this function again without end.
    if name == "weyl" or name in _WEYL_NAMES:
        weyl = importlib.import_module(f"{__name__}.weyl")
        return weyl if name == "weyl" else getattr(weyl, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
