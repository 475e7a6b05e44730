"""Hyperelliptic sigma functions and exact Toda lattice solutions.

The package computes, for a curve y^2 = f(x) with f monic of odd degree:

* certified half-period matrices of the first and second kind,
* theta series with characteristics, the sigma function, Kleinian wp and
  zeta, and the Abel map,
* the classical addition identities as two-sided residual evaluators,
* sigma-function solutions of the Toda lattice with Flaschka variables,
  Lax matrix, and spectral-curve data,
* division polynomials, torsion search, and spatially periodic solutions,
* Poncelet polygons realized through torsion on the reduced cubic.
"""

from .curves import (
    CurvePoint,
    HyperellipticCurve,
    INFINITY,
    baker_f2,
    f12,
    make_curve,
    phi,
    random_curve_points,
    y_jet,
)
from .periods import (
    PeriodData,
    build_cycles,
    compute_periods,
    legendre_residual,
)
from .sigma import (
    AbelPoint,
    Characteristics,
    SigmaContext,
    abel_map,
    lattice_distance,
    natural_index_set,
    normalize_gamma0,
    reduce_mod_lattice,
    riemann_characteristics,
    sigma,
    sigma_context,
    sigma_deriv,
    sigma_natural,
    wp,
    wp_matrix,
    zeta,
)
from .theta import theta_char

__version__ = "0.1.0"
