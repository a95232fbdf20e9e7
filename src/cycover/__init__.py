"""cycover: exact verification toolkit for cyclic covers of hypersurfaces.

The package makes the checkable core of a multiplicity/regularity argument
for degree-mK cyclic covers executable: exact polynomial and truncated power
series arithmetic, chart localization at points on or off the branch divisor,
Groebner-backed regularity certificates, arc-based multiplicity checks for
hypertangent divisors, and exact telescoping degree bounds.
"""

__version__ = "0.1.0"

from .poly import (  # noqa: F401
    PolyRing,
    Polynomial,
    PrimeField,
    QQ,
    Rationals,
    homogeneous_components,
    poly_eval,
    poly_mul,
    random_homogeneous,
    ring_over,
    translate_origin,
)
