"""Exception types shared across the package.

The CLI maps these onto distinct exit codes: configuration problems exit
with 2, domain errors (a computation requested outside its region of
validity) with 3, and I/O failures with 4.
"""

__all__ = ["ConfigError", "DomainError", "FeasibilityError"]


class ConfigError(ValueError):
    """A configuration file or CLI argument is malformed."""


class DomainError(ValueError):
    """An operation was requested outside its mathematical domain."""


class FeasibilityError(DomainError):
    """No distribution in the requested family has the requested moments."""
