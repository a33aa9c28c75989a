"""fracstab: stability of 2D linear multi-order fractional systems.

Decides asymptotic stability and instability of

    cD^{q1} x = a11*x + a12*y
    cD^{q2} y = a21*x + a22*y,       q1, q2 in (0, 1]  (Caputo),

by exact region tests and the critical-curve margin a22 - phi(a11), with
independent numerical corroboration: argument-principle root counting inside
explicit modulus bounds, companion-matrix reduction for rational orders, and
trajectory simulation with algebraic decay-slope estimation.

The package exports each module's __all__, in the order below.
"""

# aliased first: the star import rebinds the name classify to the function
from . import chareq as _chareq, classify as _classify, curve as _curve
from . import errors as _errors, roots as _roots, simulate as _simulate
from .chareq import *
from .curve import *
from .classify import *
from .roots import *
from .simulate import *
from .errors import *

__version__ = "0.1.0"

__all__ = ["__version__", *_chareq.__all__, *_curve.__all__, *_classify.__all__]
__all__ += [*_roots.__all__, *_simulate.__all__, *_errors.__all__]
