"""Exception types shared across the package."""


class BwflowError(Exception):
    """Base class for all package errors."""


class RoleViolation(BwflowError):
    """Matrix does not satisfy the structural role it was given."""


class NotPSD(BwflowError):
    """Hermitian matrix has an eigenvalue below the allowed tolerance."""


class KernelOverlap(BwflowError):
    """A negative power of Omega is requested on a subspace it kills."""


class NotReal(BwflowError):
    """A real-matrix criterion was applied to a genuinely complex spec."""


class BlowupDetected(BwflowError):
    """||B_t|| crossed the blow-up guard; carries the partial trajectory."""

    def __init__(self, message, trajectory=None, event=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.event = event


class StepSizeUnderflow(BwflowError):
    """Adaptive step fell below stepping.H_MIN without the blow-up signature."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class NotConverged(BwflowError):
    """A limit was requested from a trajectory that has not settled."""


class InsufficientData(BwflowError):
    """Not enough usable samples for a fit."""


class PathGap(BwflowError):
    """Time-indexed access outside the stored coverage window."""


class MapInvalid(BwflowError):
    """Pair (u, v) violates the symplectic relations beyond tolerance."""


class LogBranch(BwflowError):
    """Matrix logarithm branch is ambiguous (eigenvalue at -1)."""


class NotOnManifold(BwflowError):
    """Block parameters miss the equal-product manifold."""


class NotInRegime(BwflowError):
    """Block parameters outside the strict-product regime."""


class PastBlowup(BwflowError):
    """Closed-form blow-up solution evaluated at or past its horizon."""


class OutOfRange(BwflowError, ValueError):
    """Family parameter outside its admissible interval."""


class OutputError(BwflowError):
    """An output file or directory cannot be written."""


class SizeLimit(BwflowError):
    """Requested truncated Fock space is larger than the configured cap."""


class ParseError(BwflowError):
    """Spec file could not be parsed; carries the offending field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
