"""Exception hierarchy shared by all macrohom modules: MacrohomError and
its two subclasses, ValidationError and NumericalError.

The CLI maps these onto exit codes: ValidationError -> 2,
NumericalError -> 3, OSError -> 4.
"""


class MacrohomError(Exception):
    """Base class for all macrohom errors."""


class ValidationError(MacrohomError):
    """Bad parameters, malformed config, or violated preconditions, such as
    a spectral grid or Fock truncation too coarse for the request."""


class NumericalError(MacrohomError):
    """Non-finite result, unbracketed crossing or failed fit."""
