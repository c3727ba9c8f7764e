"""Closed-form and 1-D-reduced variational p-capacities cap_p(B_r, B_R).

For radial weights the minimizing profile is radial and the capacity
reduces to a 1-D integral; the normalization constants are fixed by the
Euler-Lagrange reduction and validated against the discrete network
oracle, since comparability statements leave them free.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AnncapError, DomainError, InputError, QuadratureError, attempt, unwrap
from .measure import _radial_integral, _radial_reduction
from .spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, surface_area
from .weights import Constant

__all__ = [
    "CapacityMethod",
    "CapacityResult",
    "cap_rn_unweighted",
    "cap_radial_weighted",
    "cap_radial_p1",
    "cap_snake",
    "cap_bowtie_pinch",
    "cap_auto",
    "cap_values",
]

INF_CUT_GRID = 4097  # points of each grid of the p = 1 inf-cut search


class CapacityMethod(enum.Enum):
    CLOSED_FORM = "closed-form"
    RADIAL_INTEGRAL = "radial-integral"
    INF_CUT = "inf-cut"
    PATH_FORMULA = "path-formula"


@dataclass(frozen=True)
class CapacityResult:
    value: float  # nonnegative, math.inf allowed as blowup sentinel
    method: CapacityMethod
    quadrature_error: float = 0.0

    def __post_init__(self):
        if self.value < 0:
            raise InputError("capacity cannot be negative")


def cap_rn_unweighted(n: int, p: float, ann: AnnulusSpec) -> CapacityResult:
    """Classical annulus capacity in unweighted R^n, exact normalization."""
    if not (p >= 1):
        raise DomainError(f"capacity needs p >= 1, got {p}")
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise DomainError(f"need an integer n >= 1, got {n!r}")
    omega = surface_area(n)
    r, R = ann.r, ann.R
    # the difference of logs only where R / r overflows, so every other L keeps its bits
    L = math.log(R / r) if R / r < math.inf else math.log(R) - math.log(r)
    if p == 1:
        value = omega * r ** (n - 1)
    elif p == n:
        value = omega * L ** (1 - n)
    else:
        # algebraically omega |(n-p)/(p-1)|^(p-1) |R^a - r^a|^(1-p); written
        # as ((R^a - r^a)/a)^(1-p) via expm1 so that p -> n is cancellation-free
        a = (p - n) / (p - 1.0)
        try:
            value = omega * (r**a * L * math.expm1(a * L) / (a * L)) ** (1.0 - p)
        except ArithmeticError:  # a power overflows, or r^a underflows to 0
            value = math.nan
    if not 0 < value < math.inf:  # the capacity is positive: a 0 is an underflow
        raise DomainError(f"capacity of (r={r}, R={R}) at p = {p} leaves the float range")
    return CapacityResult(value=value, method=CapacityMethod.CLOSED_FORM)


def cap_radial_weighted(space: SpaceSpec, p: float, ann: AnnulusSpec) -> CapacityResult:
    """cap_p via the radial integral (int_r^R (w rho^m)^{1/(1-p)})^{1-p}.

    The integrand w^(1/(1-p)) rho^(m/(1-p)) goes to 0 at a pole of w.  A
    density of 0 or past the float range is a QuadratureError.
    """
    return unwrap(_radial_caps(space, p, [ann])[0])


def _radial_caps(space: SpaceSpec, p: float, annuli) -> list:
    """cap_radial_weighted of each annulus, or the error it raises, from one
    _radial_integral call over the family."""
    if not (p > 1):
        return [DomainError(f"radial integral formula needs p > 1, got {p}") for _ in annuli]
    w, m, const = _radial_reduction(space)
    results = _radial_integral(w, m, [(a.r, a.R) for a in annuli], 1.0 / (1.0 - p))
    caps = []
    for ann, res in zip(annuli, results):
        if isinstance(res, AnncapError) and not isinstance(res, QuadratureError):
            res = QuadratureError(f"radial integrand (w rho^{m})^(1/(1-p)) on [{ann.r}, {ann.R}] "
                                  "leaves the float range")
        elif not isinstance(res, AnncapError):
            val, err = res
            try:
                value = const * val ** (1.0 - p)
                qerr = const * abs(1.0 - p) * val ** (-p) * err
            except ArithmeticError:  # the integral under- or the capacity overflows
                value = 0.0
            # a positive integral has a positive capacity: a 0 is an underflow
            res = CapacityResult(value, CapacityMethod.RADIAL_INTEGRAL, qerr) if value else (
                DomainError(f"capacity of (r={ann.r}, R={ann.R}) at p = {p} leaves the float range"))
        caps.append(res)
    return caps


def cap_radial_p1(space: SpaceSpec, ann: AnnulusSpec) -> CapacityResult:
    """p = 1 capacity as the cheapest weighted sphere cut:
    inf over t in [r, R] of const * t^{n-1} w(t).

    The cut cost is evaluated on a uniform grid plus the weight's
    singularities inside (r, R), and the bracket around the least cost is
    re-gridded until at most one float lies inside it.  Every cut costs
    more than 0 in exact arithmetic, so a least cost of 0 (an underflow) or
    past the float range is a DomainError."""
    w, m, const = _radial_reduction(space)
    inside = [s for s in w.singularities() if ann.r < s < ann.R]
    ts = np.unique(np.r_[np.linspace(ann.r, ann.R, INF_CUT_GRID), inside])
    best = math.inf
    while True:
        with np.errstate(over="ignore"):
            costs = const * ts**m * w.evaluate(ts)
        # an infinite cost at a pole is a legal cut; a NaN one would win argmin
        if np.isnan(costs).any():
            raise DomainError(f"p = 1 cut cost is NaN on [{ann.r}, {ann.R}]")
        i = int(np.argmin(costs))
        best = min(best, float(costs[i]))
        lo, hi = ts[max(0, i - 1)], ts[min(len(ts) - 1, i + 1)]
        if np.nextafter(np.nextafter(lo, hi), hi) >= hi:
            break
        ts = np.linspace(lo, hi, INF_CUT_GRID)
    if not 0.0 < best < math.inf:
        raise DomainError(f"capacity of (r={ann.r}, R={ann.R}) at p = 1 leaves the float range")
    return CapacityResult(value=best, method=CapacityMethod.INF_CUT)


def cap_snake(p: float, k: int, delta: float, geom: Snake = Snake()) -> CapacityResult:
    """Capacity of the snake annulus (2^k - delta, 2^k + delta).

    Its trace is a single path of length L = 2 delta + pi 2^k, so the
    capacity is L^{1-p} for p > 1 and 1 for p = 1.
    """
    if not (p >= 1):
        raise DomainError(f"capacity needs p >= 1, got {p}")
    if k < 0 or k >= geom.k_max:
        raise DomainError(f"snake jump index k must lie in [0, {geom.k_max - 1}], got {k}")
    if not (0 < delta < 2.0 ** (k - 1)):
        raise DomainError(f"need delta in (0, 2^(k-1)) = (0, {2.0 ** (k - 1)}), got {delta}")
    L = 2.0 * delta + math.pi * 2.0**k
    value = 1.0 if p == 1 else L ** (1.0 - p)
    return CapacityResult(value=value, method=CapacityMethod.PATH_FORMULA)


def _lobe_aperture(n: int) -> float:
    """Solid angle of one lobe of the bow-tie cone in R^n:
    surface_area(n-1) int_0^a sin^(n-2) t dt, with half-angle a = atan(1/2)."""
    if n == 2:
        return 2.0 * math.atan(0.5)
    # the integral is 1/2 B((n-1)/2, 1/2) I_{sin^2 a}((n-1)/2, 1/2), sin^2 a = 1/5;
    # a forward recurrence in n would multiply its rounding error about 5x per step
    from scipy import special
    k = 0.5 * (n - 1)
    aperture = surface_area(n - 1) * 0.5 * special.beta(k, 0.5) * special.betainc(k, 0.5, 0.2)
    if not aperture > 0:
        raise DomainError(f"the solid angle of the bow-tie cone in R^{n} underflows a float")
    return float(aperture)


def cap_bowtie_pinch(space: SpaceSpec, p: float, delta: float) -> CapacityResult:
    """cap_p(B_{1-delta}, B_1) at the bow-tie tip, by sector reduction
    across the pinch at the origin (comparability constant only).

    The angular factor is the solid angle of one cone lobe: the planar
    aperture 2 atan(1/2) for n = 2, and for n >= 3 the area of the cap of
    half-angle atan(1/2) on the unit sphere of R^n.

    Degenerates to 0 exactly when the sector integral diverges, i.e. when
    p <= n + alpha (for p > 1).
    """
    geom = space.geometry
    if not isinstance(geom, BowTie):
        raise DomainError("cap_bowtie_pinch needs a BowTie space")
    if not (0 < delta < 0.5):
        raise DomainError(f"need delta in (0, 1/2), got {delta}")
    n, alpha = geom.n, geom.alpha
    m = n - 1 + alpha
    if p == 1:
        value = 0.0 if m > 0 else _lobe_aperture(n) * (2.0 * delta) ** m
        return CapacityResult(value=value, method=CapacityMethod.INF_CUT)
    if not (p >= 1):
        raise DomainError(f"capacity needs p >= 1, got {p}")
    e = m / (1.0 - p)
    if e <= -1.0:  # divergent sector integral <=> p <= n + alpha
        return CapacityResult(0.0, CapacityMethod.RADIAL_INTEGRAL)
    try:
        integral = (2.0 * delta) ** (1.0 + e) / (1.0 + e)
        value = _lobe_aperture(n) * integral ** (1.0 - p)
    except ArithmeticError:  # the sector integral under- or the capacity overflows
        value = 0.0
    if value == 0.0:  # p > n + alpha here, so a 0 is an underflow, not the capacity
        raise DomainError(f"bow-tie capacity at delta = {delta}, p = {p} leaves the float "
                          "range")
    return CapacityResult(value=value, method=CapacityMethod.RADIAL_INTEGRAL)


def cap_auto(space: SpaceSpec, p: float, ann: AnnulusSpec) -> CapacityResult:
    """Dispatch to the best available engine for the space."""
    return unwrap(_cap_family(space, p, [ann])[0])


def cap_values(space: SpaceSpec, p: float, annuli) -> list:
    """cap_auto(space, p, ann).value for each annulus of a family, in order,
    or the AnncapError computing it raised: the capacities verify_envelope
    and blowup_probe read."""
    return [res if isinstance(res, AnncapError) else res.value
            for res in _cap_family(space, p, annuli)]


def _cap_family(space: SpaceSpec, p: float, annuli) -> list:
    """cap_auto of each annulus, or the error it raises.  A family's radial
    integrals are one quadrature call; every other engine is a closed form
    or the p = 1 inf-cut, one annulus at a time."""
    geom = space.geometry
    if (isinstance(geom, (RadialRn, HalfLine)) and p != 1
            and not (isinstance(geom, RadialRn) and isinstance(space.weight, Constant))):
        return _radial_caps(space, p, annuli)
    return [attempt(_cap_one, space, p, ann) for ann in annuli]


def _cap_one(space: SpaceSpec, p: float, ann: AnnulusSpec) -> CapacityResult:
    geom = space.geometry
    if isinstance(geom, (RadialRn, HalfLine)):  # unweighted R^n, or p = 1
        return cap_radial_p1(space, ann) if p == 1 else cap_rn_unweighted(geom.n, p, ann)
    if isinstance(geom, Snake):
        mid = 0.5 * (ann.r + ann.R)
        k = round(math.log2(mid))
        delta = ann.R - 2.0**k
        if abs((2.0**k - ann.r) - delta) > 1e-9 * ann.R:
            raise DomainError("snake capacity engine needs a symmetric annulus about a jump 2^k")
        return cap_snake(p, k, delta, geom)
    if isinstance(geom, BowTie):
        if abs(ann.R - 1.0) > 1e-12:
            raise DomainError("bow-tie capacity engine covers annuli (1-delta, 1) at the tip")
        return cap_bowtie_pinch(space, p, 1.0 - ann.r)
    raise DomainError(f"no capacity engine for geometry {type(geom).__name__}")
