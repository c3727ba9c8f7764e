"""Geometries, declared analytic traits, and annuli.

A SpaceSpec bundles a geometry (radial R^n, half-line, snake, bow-tie), a
weight and a TraitSet of *declared* analytic properties (Poincare
exponents, doubling, reverse-doubling, corkscrew) at the center.
The geometry fixes the center: the bow-tie's tip (-1, 0, ..., 0), and the
origin for every other geometry.
Traits are metadata transcribed from known statements about each space;
they are never computed here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .errors import InputError
from .weights import Constant, PowerAlpha, Weight

__all__ = [
    "RadialRn",
    "HalfLine",
    "Snake",
    "BowTie",
    "TraitSet",
    "SpaceSpec",
    "AnnulusSpec",
    "surface_area",
]


def surface_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n (2 for n=1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class RadialRn:
    """R^n with a radial weight about the origin; exact 1-D reduction."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise InputError(f"RadialRn needs an integer n >= 1, got {self.n!r}")
        try:
            surface_area(self.n)
        except OverflowError:
            raise InputError(f"the unit sphere area of R^{self.n} overflows a float") from None


@dataclass(frozen=True)
class HalfLine:
    """[0, infinity) with a 1-D weight; balls are intervals [0, R)."""


@dataclass(frozen=True)
class Snake:
    """Tessera's snake: segments along the axes plus half-circles of radius
    2^k alternating between the half-planes, carrying arclength measure and
    the Euclidean metric of R^2.  Represented radii go up to 2^k_max."""

    k_max: int = 10

    def __post_init__(self):
        # 2^1023 is the largest power of two a float holds
        if not (isinstance(self.k_max, numbers.Integral) and 1 <= self.k_max <= 1023):
            raise InputError(f"Snake needs an integer 1 <= k_max <= 1023, got {self.k_max!r}")

    @property
    def max_radius(self) -> float:
        return 2.0**self.k_max


@dataclass(frozen=True)
class BowTie:
    """The cone {x : x_2^2 + ... + x_n^2 <= x_1^2/4, -1 <= x_1 <= 2} in R^n
    with measure |x|^alpha dx.  In every dimension its ball and annulus
    measures are one integral over x1 of closed-form hypergeometric
    slice masses, by the tanh-sinh rule."""

    n: int
    alpha: float

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 2):
            raise InputError(f"BowTie needs an integer n >= 2, got {self.n!r}")
        if not (self.alpha > -self.n):
            raise InputError(f"BowTie needs alpha > -n = {-self.n}, got {self.alpha}")
        try:
            surface_area(self.n - 1)  # the slice masses' sphere factor
        except OverflowError:
            raise InputError(f"the unit sphere area of R^{self.n - 1} overflows a float") from None


Geometry = RadialRn | HalfLine | Snake | BowTie


@dataclass(frozen=True)
class TraitSet:
    """Declared analytic traits of a space at its center.

    pi_exponents: exponents q >= 1 at which a q-Poincare inequality is
        declared to hold (and by Holder monotonicity for every larger q).
    pi_open_infimum: when set, a q-Poincare inequality additionally holds
        for every q strictly above this value (the bow-tie's open range).
    pi_global / globally_doubling: whether the declaration is global
        rather than only at the center.
    reverse_doubling: whether mu(B_2r) >= gamma mu(B_r) for some gamma > 1.
    corkscrew: whether the thin-annulus corkscrew condition holds.
    ad_eta: declared annular-decay exponent at the center, None if no AD
        property holds.
    """

    pi_exponents: frozenset = frozenset()
    pi_open_infimum: float | None = None
    pi_global: bool = False
    doubling: bool = False
    globally_doubling: bool = False
    reverse_doubling: bool = False
    corkscrew: bool = False
    ad_eta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pi_exponents", frozenset(float(q) for q in self.pi_exponents))
        for q in self.pi_exponents:
            if q < 1:
                raise InputError(f"Poincare exponents must satisfy q >= 1, got {q}")
        if self.ad_eta is not None and not (0 < self.ad_eta <= 1):
            raise InputError("declared ad_eta must lie in (0, 1]")

    def supports_pi(self, q: float) -> bool:
        """Whether a q-Poincare inequality is declared (Holder-monotone)."""
        if any(q >= q0 for q0 in self.pi_exponents):
            return True
        return self.pi_open_infimum is not None and q > self.pi_open_infimum


@dataclass(frozen=True)
class SpaceSpec:
    geometry: Geometry
    weight: Weight = field(default_factory=Constant)
    traits: TraitSet = field(default_factory=TraitSet)
    name: str = ""

    def __post_init__(self):
        geom = self.geometry
        if isinstance(geom, BowTie):
            if not isinstance(self.weight, PowerAlpha) or self.weight.alpha != geom.alpha:
                object.__setattr__(self, "weight", PowerAlpha(geom.alpha))
        if isinstance(geom, (RadialRn, HalfLine)) and isinstance(self.weight, PowerAlpha):
            n = geom.n if isinstance(geom, RadialRn) else 1  # integrable at 0 iff alpha > -n
            if not (self.weight.alpha > -n):
                raise InputError(
                    f"PowerAlpha weight needs alpha > -n = {-n}, got {self.weight.alpha}"
                )

    @property
    def diameter(self) -> float:
        """Diameter of the space (inf for the unbounded geometries)."""
        if isinstance(self.geometry, BowTie):
            # between the tip (-1,0,...) and the far rim corners (2, y), |y| = 1
            return math.sqrt(10.0)
        return math.inf


@dataclass(frozen=True)
class AnnulusSpec:
    r: float
    R: float

    def __post_init__(self):
        if not (0.0 < self.r < self.R < math.inf):
            raise InputError(f"annulus needs 0 < r < R < inf, got r={self.r}, R={self.R}")

    @property
    def delta(self) -> float:
        return self.R - self.r

    @property
    def is_thin(self) -> bool:
        return self.R / 2.0 <= self.r
