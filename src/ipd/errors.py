"""Exception types shared across the package."""


class IpdError(Exception):
    """Base class for all package-specific errors."""


class IrreducibleDenominator(IpdError):
    """A denominator does not split into linear factors over the Gaussian rationals."""


class LatticeTooSmall(IpdError):
    """Cokernel dimensions kept changing after enlarging the lattice bounds twice."""


class InconsistentRank(IpdError):
    """Per-point block dimensions do not sum to the stated rank."""


class NotIrregular(IpdError):
    """Stokes data requested at a point with pole order <= 1."""


class BasisNotFound(IpdError):
    """Candidate cycle generation produced fewer independent cycles than required."""


class SingularApproach(IpdError):
    """A cycle piece passes closer to a singular point than the safety distance."""


class DomainError(IpdError):
    """Reference oracle evaluated outside its supported domain."""


class InputError(IpdError):
    """Malformed connection or cycle input."""
