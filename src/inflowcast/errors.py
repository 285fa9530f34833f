"""Exception types shared across the package."""


class InflowcastError(Exception):
    """Base class for all package errors."""


class InputError(InflowcastError):
    """Invalid or inconsistent input data / configuration (CLI exit code 2)."""


class NumericalError(InflowcastError):
    """A numerical procedure failed to produce a usable result (CLI exit code 3)."""


class CurveDomainError(InputError):
    """A lookup fell outside the tabulated domain of a plant curve."""


class LeakageError(InputError):
    """A model was about to be applied to data from its own training fold."""
