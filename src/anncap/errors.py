"""Exception hierarchy shared across the package, and the outcome of one
item of a family computation: its value or the error it raised."""


class AnncapError(Exception):
    """Base class for all package errors."""


class InputError(AnncapError):
    """Invalid user input (bad parameter ranges, degenerate data)."""


class DomainError(AnncapError):
    """Mathematically ill-posed request (e.g. non-integrable singularity)."""


class QuadratureError(AnncapError):
    """Quadrature missed its tolerance; ``achieved_error`` is the error it reached."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


class ApplicabilityError(AnncapError):
    """A theorem's hypothesis is violated; names the failed hypothesis."""

    def __init__(self, hypothesis, message=None):
        super().__init__(message or f"hypothesis violated: {hypothesis}")
        self.hypothesis = hypothesis


class InfeasibleError(AnncapError):
    """Discrete condenser with disconnected or overlapping boundary sets."""


class ConvergenceError(AnncapError):
    """Iterative solver hit its iteration cap.

    ``best_energy`` is the energy of the last (feasible) iterate and is an
    upper bound for the true minimum.
    """

    def __init__(self, message, best_energy=None):
        super().__init__(message)
        self.best_energy = best_energy


def attempt(fn, *args):
    """fn(*args), or the AnncapError it raised: one item's outcome in a
    family computation, kept so that it is raised in the item's turn."""
    try:
        return fn(*args)
    except AnncapError as exc:
        return exc


def unwrap(outcome):
    """An outcome's value, or the AnncapError it holds raised."""
    if isinstance(outcome, AnncapError):
        raise outcome
    return outcome
