"""Exception types shared across the package.

Everything derives from ValueError except BudgetError, which signals a
declared resource budget would be exceeded and derives from RuntimeError.
"""


class DimensionError(ValueError):
    """Array shape or length incompatible with the grid."""


class SymmetryError(ValueError):
    """Hermitian symmetry violated, or complex samples given for a real
    field."""


class ResolutionError(ValueError):
    """Grid band or spacing too coarse for the requested object."""


class DomainError(ValueError):
    """Scalar argument outside the admissible range."""


class DegenerateWindowError(ValueError):
    """Modulation window wider than the representable band."""


class ConfigError(ValueError):
    """Malformed configuration key, value, or file."""


class BudgetError(RuntimeError):
    """Declared resource budget (modes, memory, wall clock) exceeded."""
