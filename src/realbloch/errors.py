"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto distinct exit codes.
"""


class RealblochError(Exception):
    """Base class for all package-specific errors."""


class InvalidDiscretizationError(RealblochError, ValueError):
    """Lattice sizes incompatible with the requested involution."""


class DomainError(RealblochError, ValueError):
    """Input outside an operation's domain (bad loop, non-unitary gauge, ...)."""


class ModelError(RealblochError):
    """A model evaluator violated its contract (e.g. non-Hermitian output)."""


class GapClosureError(RealblochError):
    """Selected band group touches its complement at some site."""

    def __init__(self, site: int, gap: float):
        self.site = site
        self.gap = gap
        super().__init__(
            f"band selection not isolated at site {site} (gap {gap:.3e})"
        )


class SymmetryInconsistencyError(RealblochError):
    """Symmetry data inconsistent with the supplied family or frame."""


class KramersObstructionError(SymmetryInconsistencyError):
    """Odd parity with odd rank over a fixed point: no sewing matrix exists."""


class SymmetryViolationError(RealblochError):
    """Verified symmetry residual above tolerance."""


class UnsupportedParityError(RealblochError):
    """Classification requested for odd (parity -1) time reversal."""


class UnsupportedBaseError(RealblochError):
    """Base lattice outside the supported classification table."""


class DiscretizationError(RealblochError):
    """Singular frame overlap on a link; the lattice is too coarse."""


class BranchCutError(RealblochError):
    """Unitary logarithm hit the principal-branch cut; refine the lattice."""


class IndeterminateHolonomyError(RealblochError):
    """Fixed-loop holonomy too far from +/-1 to round; refine the lattice."""


class TruncationError(RealblochError):
    """Basis truncation too small for the requested level."""


class ConfigError(RealblochError, ValueError):
    """Malformed or inconsistent run configuration."""
