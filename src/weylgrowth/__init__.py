"""Exact enumeration of Kac-Moody Weyl groups by word length.

Builds generalized Cartan matrices for the classical, affine-A, and
over-extended HA families, counts their Weyl groups by walking a parabolic
quotient W^J depth-first, each element named by a canonical nonnegative
root-lattice vector, and analyzes the resulting growth series: closed-form
Poincare polynomials for finite and affine types, and polynomial-quotient
fits for the hyperbolic ones.
"""

from . import algebra, series, weyl
from .algebra import *
from .series import *
from .weyl import *

__version__ = "0.1.0"

__all__ = [*algebra.__all__, *series.__all__, *weyl.__all__]
