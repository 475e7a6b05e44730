"""Exception hierarchy for sigmatoda.

Every failure mode that callers are expected to handle gets its own class so
that numerical trouble (quadrature, truncation, root finding) is
distinguishable from contract violations (bad input shapes, degenerate data).
``worst_of`` is the running max of the checks, which keeps a NaN.
"""


def worst_of(*values):
    """The largest value, or NaN if one is NaN; max(0.0, nan) is 0.0."""
    worst = values[0]
    for v in values:
        if v > worst or v != v:
            worst = v
    return worst


class SigmaTodaError(Exception):
    """Base class for all package errors."""


class BadArity(SigmaTodaError):
    """Coefficient list length does not match the declared genus."""


class DegenerateCurve(SigmaTodaError):
    """The defining polynomial has (numerically) repeated roots."""


class RootFindFailure(SigmaTodaError):
    """Simultaneous root iteration did not converge within the budget."""


class BranchPointSingularity(SigmaTodaError):
    """Evaluation at or too close to a zero of y."""


class QuadratureNonConvergence(SigmaTodaError):
    """Successive quadrature refinements disagree above tolerance."""


class LegendreCertificateFailure(SigmaTodaError):
    """Period matrices fail the symplectic (Legendre) certificate."""


class TruncationInsufficient(SigmaTodaError):
    """Theta-series tail estimate exceeds the requested tolerance."""


class CharacteristicsNotFound(SigmaTodaError):
    """No half-integer characteristic vanishes on the required stratum."""


class NormalizationUnstable(SigmaTodaError):
    """The leading-term normalization of sigma could not be fixed."""


class ThetaDivisorPole(SigmaTodaError):
    """sigma(u) is numerically zero; a logarithmic derivative has a pole."""


class NonFiniteValue(SigmaTodaError):
    """A sigma record or a quotient of them overflowed to inf or NaN."""


class VanishingGap(SigmaTodaError):
    """A lattice potential equals its constant; log(v - c) has a pole."""


class PathThroughBranchPoint(SigmaTodaError):
    """An integration path could not be routed around a branch point."""


class NotALatticeVector(SigmaTodaError):
    """Vector does not decompose integrally over the period lattice."""


class IndeterminateLimit(SigmaTodaError):
    """A confluent determinant ratio is 0/0 beyond the encoded limit."""


class ConfluentInput(SigmaTodaError):
    """Points coincide where the formula requires them distinct."""


class DegreeMismatch(SigmaTodaError):
    """alpha_n keeps an odd y power or a remainder mod f, or misses its degree formula."""


class NotTorsion(SigmaTodaError):
    """Candidate point fails the lattice-reduction torsion certificate."""


class DegenerateConicPair(SigmaTodaError):
    """Conic pair data does not define a smooth elliptic reduction."""
