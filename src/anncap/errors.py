"""Exception hierarchy shared across the package, and the reading of one
group's result of a batched quadrature: its value or the error it ended in."""


class AnncapError(Exception):
    """Base class for all package errors."""


class InputError(AnncapError):
    """Invalid user input (bad parameter ranges, degenerate data)."""


class DomainError(AnncapError):
    """Mathematically ill-posed request (e.g. non-integrable singularity)."""


class QuadratureError(AnncapError):
    """Quadrature missed its tolerance; the message gives the error it reached."""


class ApplicabilityError(AnncapError):
    """A theorem's hypothesis is violated; names the failed hypothesis."""

    def __init__(self, hypothesis):
        super().__init__(f"hypothesis violated: {hypothesis}")


class InfeasibleError(AnncapError):
    """Discrete condenser with disconnected or overlapping boundary sets."""


class ConvergenceError(AnncapError):
    """A network solve failed: Newton's iteration cap, a failed linear
    solve, or a non-finite energy."""


def unwrap(outcome):
    """A group's (value, error), or the AnncapError the group ended in raised."""
    if isinstance(outcome, AnncapError):
        raise outcome
    return outcome
