"""Exception types shared across the package.

Each class corresponds to one well-defined failure mode of the numerical
pipeline; nothing here carries state beyond the message.
"""


class KerrOscError(Exception):
    """Base class for all package-specific errors."""


# --- state construction -------------------------------------------------

class CutoffTooSmall(KerrOscError):
    """Fock-space truncation leaves more probability outside than allowed."""


class IndexOutOfRange(KerrOscError):
    """Requested basis index does not exist in the truncated space."""


class ZeroNorm(KerrOscError):
    """A superposition cancelled (numerically) to the zero vector."""


class DimensionMismatch(KerrOscError):
    """Operands live in truncated spaces of different dimension."""


# --- evolution ----------------------------------------------------------

class DriftTooLarge(KerrOscError):
    """Hermiticity or trace drift exceeds the repair budget."""


class CutoffExceeded(KerrOscError):
    """Evolved state accumulated too much population near the truncation edge."""


class StepSizeUnderflow(KerrOscError):
    """Adaptive integrator step fell below the representable minimum."""


class PositivityLost(KerrOscError):
    """Evolved matrix failed the density-matrix check (eigenvalue floor)."""


class PumpNotZero(KerrOscError):
    """The exact unpumped map was asked to evolve a pumped oscillator."""


class IntegrationFailure(KerrOscError):
    """A scenario-level wrapper for any evolution failure."""


# --- measures -----------------------------------------------------------

class NegativeDiagonal(KerrOscError):
    """Photon-number distribution has a negative entry beyond tolerance."""


class EigSolverFailure(KerrOscError):
    """The Hermitian eigensolver did not converge."""


class SupportMismatch(KerrOscError):
    """Relative entropy undefined: rho has weight outside sigma's support."""


# --- quasidistributions -------------------------------------------------

class SParamOutOfRange(KerrOscError):
    """Ordering parameter s outside the supported range [-1, 1)."""


class InvalidOrder(KerrOscError):
    """Invalid degree/order combination for an associated Laguerre polynomial."""


class NonpositiveKs(KerrOscError):
    """Gaussian closed form diverges: K_s <= 0 (nonclassical at this s)."""


class NegativeHusimi(KerrOscError):
    """A Husimi grid value lies below zero by more than round-off."""


class ImaginaryResidue(KerrOscError):
    """A quasidistribution grid kept an imaginary part beyond round-off."""


# --- special functions / exact steady state ------------------------------

class PoleAtNonpositiveInteger(KerrOscError):
    """Gamma (or a series parameter) evaluated at a nonpositive integer."""


class GammaOverflow(KerrOscError):
    """|Gamma(z)| lies beyond the double-precision range."""


class NonconvergenceWithinMaxTerms(KerrOscError):
    """Hypergeometric series failed to converge within the term cap."""


class KerrZero(KerrOscError):
    """Operation requires a nonzero Kerr coefficient."""


class LossZero(KerrOscError):
    """Operation requires loss > 0: without loss there is no stationary state."""


# --- linearized analysis --------------------------------------------------

class UnstableLinearization(KerrOscError):
    """|gamma| <= |delta|: the linearized noise equations have no steady point."""


class UnphysicalMoments(KerrOscError):
    """(B + 1/2)^2 - |C|^2 < 1/4: moments violate the uncertainty bound."""


class ZeroSeparation(KerrOscError):
    """Two superposition components coincide; no decoherence time defined."""


# --- scenario running ------------------------------------------------------

class ConfigInvalid(KerrOscError):
    """Scenario configuration failed validation."""


class IoError(KerrOscError):
    """Reading or writing a scenario artifact failed."""


class VacuumLimitWarning(UserWarning):
    """A ratio-type measure hit its vacuum limit and returned the limit value."""
