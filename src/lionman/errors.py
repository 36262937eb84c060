"""Exception types shared across the package."""

from contextlib import contextmanager


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(GeometryError, ValueError):
    """Malformed or out-of-range input."""


class SpaceMismatchError(InvalidInputError):
    """A point, segment, or domain does not belong to the given space."""


class InvalidPointError(InvalidInputError):
    """A point violates the membership constraints of its space."""


class DegenerateInputError(InvalidInputError):
    """An operation received coincident points where distinct ones are required."""


class PromotionPreconditionError(InvalidInputError):
    """The locality scale is too small relative to the slimness constant."""


class InvalidAlphaError(InvalidInputError):
    """The geometric growth rate makes the extraction series diverge."""


class UnsupportedSpaceError(InvalidInputError):
    """The operation requires a space family that was not supplied."""


class InsufficientCurveError(GeometryError):
    """A curve was evaluated beyond its samples and has no extension rule."""


class InsufficientDataError(GeometryError):
    """Not enough samples to reach the requested scale."""


class ThresholdNotMetError(GeometryError):
    """No index satisfies the turning-angle threshold through the record end.

    Carries ``best_tail``, the largest angle lower bound achieved over any
    terminal segment of the record.
    """

    def __init__(self, message, best_tail=None):
        super().__init__(message)
        self.best_tail = best_tail


class StrategyFaultError(GeometryError):
    """An evader strategy proposed a point outside the playing domain.

    Carries ``step``, the move index at which the fault occurred.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(InvalidInputError):
    """A configuration file is malformed; the message names the bad field."""


@contextmanager
def _bad_input(prefix, error=InvalidInputError):
    """Report a wrong shape or value in outside JSON as ``error``.

    A KeyError, TypeError or ValueError raised inside the block becomes
    ``error``, its message led by ``prefix`` (which names the flag or file);
    the package's own errors pass through unchanged.
    """
    try:
        yield
    except GeometryError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"{prefix} ({type(exc).__name__}: {exc})") from None
