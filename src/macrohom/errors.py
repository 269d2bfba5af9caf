"""Exception hierarchy shared by all macrohom modules.

The CLI maps these onto exit codes: ValidationError -> 2,
NumericalError -> 3, OSError -> 4.
"""


class MacrohomError(Exception):
    """Base class for all macrohom errors."""


class ValidationError(MacrohomError):
    """Bad parameters, malformed config, or violated preconditions."""


class GridResolutionError(ValidationError):
    """Spectral grid too coarse to resolve the requested delays."""


class TruncationError(ValidationError):
    """Fock-space truncation inadequate for the requested gain."""


class NumericalError(MacrohomError):
    """Bracketing or convergence failure in a numerical routine."""


class BracketingError(NumericalError):
    """A root or crossing could not be bracketed."""


class FitError(NumericalError):
    """Nonlinear fit failed to converge."""
