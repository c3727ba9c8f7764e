"""Radial / one-dimensional weight functions.

A weight is one of a closed catalog of analytic families plus tabulated
data.  Every weight evaluates an array of radii rho > 0 to strictly positive
values and knows where its singularities sit, so that quadrature can be
split there.  The Buckley weights also list their power poles (p, beta),
w ~ |rho - p|^beta, with the regular part w(p + d) |d|^(-beta) in closed
form in the offset d, finite where p + d rounds to p or d underflows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "Constant",
    "PowerAlpha",
    "BuckleyEta",
    "SummedBuckley",
    "HalfLineKind",
    "HalfLineCatalog",
    "Tabulated",
    "Weight",
]


@dataclass(frozen=True)
class Constant:
    """w(rho) = 1."""

    def evaluate(self, rho):
        return np.ones_like(np.asarray(rho, dtype=float))

    def singularities(self):
        return ()


@dataclass(frozen=True)
class PowerAlpha:
    """w(rho) = rho^alpha.  Integrability against rho^{n-1} requires alpha > -n,
    which is checked where the ambient dimension is known (SpaceSpec)."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise InputError("PowerAlpha needs a finite exponent")

    def evaluate(self, rho):
        return np.asarray(rho, dtype=float) ** self.alpha

    def singularities(self):
        return (0.0,) if self.alpha < 0 else ()


@dataclass(frozen=True)
class SummedBuckley:
    """w(rho) = sum_j a_j * max{1, |q_j rho - 1|^(eta-1)}.

    A finite truncation of the countable sum; eta is shared across terms.
    Singular at rho = 1/q_j for every retained term.
    """

    eta: float
    terms: tuple[tuple[float, float], ...]  # (q_j, a_j)

    def __post_init__(self):
        if not (0.0 < self.eta < 1.0):
            raise InputError(f"{type(self).__name__} needs eta in (0,1), got {self.eta}")
        if len(self.terms) == 0:
            raise InputError("SummedBuckley needs at least one (q_j, a_j) term")
        for q, a in self.terms:
            if not (q > 0 and a > 0):
                raise InputError(f"SummedBuckley terms need q_j, a_j > 0, got ({q}, {a})")
        object.__setattr__(self, "terms", tuple((float(q), float(a)) for q, a in self.terms))

    def evaluate(self, rho):
        """Each term in place, summed in order.  With two or more terms, one
        at |q rho - 1| >= 1 all over rho is exactly a: rounding is monotone,
        so rho's least and largest values settle it."""
        rho = np.asarray(rho, dtype=float)
        lo, hi = (float(rho.min()), float(rho.max())) if rho.size and len(self.terms) > 1 else (
            math.nan, math.nan)
        total = 0.0
        with np.errstate(divide="ignore"):
            for q, a in self.terms:
                if q * lo - 1.0 >= 1.0 or q * hi - 1.0 <= -1.0:
                    total += a
                    continue
                x = rho - 1.0 if q == 1.0 else rho * q
                if q != 1.0:
                    x -= 1.0
                out = x if rho.ndim else None  # a 0-d rho gives numpy scalars, and their power
                x = np.abs(x, out=out)
                x **= self.eta - 1.0
                x = np.maximum(x, 1.0, out=out)
                if a != 1.0:
                    x *= a
                x += total
                total = x
        if not isinstance(total, np.ndarray):  # every term is constant, or rho is 0-d
            total = np.full(rho.shape, total)[()]
        return total

    def singularities(self):
        # each term blows up at 1/q_j and has a branch kink at 2/q_j
        pts = {1.0 / q for q, _ in self.terms} | {2.0 / q for q, _ in self.terms}
        return tuple(sorted(pts))

    @property
    def poles(self):
        return tuple((p, self.eta - 1.0) for p in sorted({1.0 / q for q, _ in self.terms}))

    def regular(self, p, d):
        """w(p + d) |d|^(1 - eta): a term singular at p is a max{|d|^(1 - eta),
        q^(eta - 1)}, any other its value times |d|^(1 - eta)."""
        scale = np.abs(d) ** (1.0 - self.eta)
        return sum(a * np.maximum(scale, q ** (self.eta - 1.0)) if 1.0 / q == p
                   else a * scale * np.maximum(1.0, np.abs(q * (p + d) - 1.0) ** (self.eta - 1.0))
                   for q, a in self.terms)


@dataclass(frozen=True)
class BuckleyEta(SummedBuckley):
    """w(rho) = max{1, |rho - 1|^(eta-1)} with eta in (0, 1): the one term
    q = a = 1 of SummedBuckley, whose arithmetic is then exact term for term.

    Blows up like an integrable power at rho = 1.
    """

    terms: tuple[tuple[float, float], ...] = field(default=((1.0, 1.0),), init=False, repr=False)


class HalfLineKind(enum.Enum):
    MIN_ONE_OVER_X = "min-one-over-x"
    EXP_DECAY = "exp-decay"
    EXP_INV_OVER_X_SQ = "exp-inv-over-x-sq"


@dataclass(frozen=True)
class HalfLineCatalog:
    """The catalog of special half-line weights.

    MIN_ONE_OVER_X:    w(x) = min{1, 1/x}                (nonincreasing)
    EXP_DECAY:         w(x) = exp(-x)                    (nonincreasing)
    EXP_INV_OVER_X_SQ: w(x) = exp(-1/x)/x^2 for x <= 1/2,
                       4 exp(-2) for x >= 1/2            (nondecreasing)
    """

    kind: HalfLineKind  # a member, or its value

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", HalfLineKind(self.kind))
        except ValueError:
            raise InputError(f"unknown half-line kind {self.kind!r}") from None

    def evaluate(self, rho):
        rho = np.asarray(rho, dtype=float)
        if self.kind is HalfLineKind.MIN_ONE_OVER_X:
            with np.errstate(divide="ignore", over="ignore"):  # 1/rho is inf at 0 and subnormals
                return np.minimum(1.0, np.where(rho > 0, 1.0 / rho, np.inf))
        if self.kind is HalfLineKind.EXP_DECAY:
            return np.exp(-rho)
        x = np.where(rho > 0, rho, np.inf)
        with np.errstate(over="ignore"):  # -1/x is -inf below x ~ 5.6e-309
            num = np.exp(-1.0 / x)
        # 0 where exp(-1/x) underflows: never 0/0 where x ** 2 underflows as well
        small = np.divide(num, x**2, out=np.zeros_like(num), where=num != 0)
        return np.where(rho <= 0.5, small, 4.0 * math.exp(-2.0))

    def singularities(self):
        # Kink locations, not blow-ups; still worth splitting quadrature at.
        if self.kind is HalfLineKind.MIN_ONE_OVER_X:
            return (1.0,)
        if self.kind is HalfLineKind.EXP_INV_OVER_X_SQ:
            return (0.5,)
        return ()


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear weight through (grid, values) with clamped ends."""

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        grid = tuple(float(g) for g in self.grid)
        values = tuple(float(v) for v in self.values)
        if len(grid) < 2 or len(grid) != len(values):
            raise InputError("Tabulated weight needs >= 2 grid points and matching values")
        if not all(math.isfinite(x) for x in grid + values):
            raise InputError("Tabulated grid points and values must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InputError("Tabulated grid must be strictly increasing")
        if any(v <= 0 for v in values):
            raise InputError("Tabulated values must be strictly positive")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def evaluate(self, rho):
        return np.interp(np.asarray(rho, dtype=float), self.grid, self.values)

    def singularities(self):
        return self.grid


Weight = Constant | PowerAlpha | BuckleyEta | SummedBuckley | HalfLineCatalog | Tabulated

