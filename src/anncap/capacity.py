"""Closed-form and 1-D-reduced variational p-capacities cap_p(B_r, B_R).

For radial weights the minimizing profile is radial and the capacity
reduces to a 1-D integral; the normalization constants are fixed by the
Euler-Lagrange reduction and validated against the discrete network
oracle, since comparability statements leave them free.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import DomainError, InputError
from .measure import DEFAULT_TOL, _quad, _radial_reduction, mu_ball_detailed
from .spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, surface_area

__all__ = [
    "CapacityMethod",
    "CapacityResult",
    "cap_rn_unweighted",
    "cap_radial_weighted",
    "cap_radial_p1",
    "cap_snake",
    "cap_bowtie_pinch",
    "nice_case_estimate",
    "cap_auto",
]


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
    if p < 1:
        raise DomainError(f"capacity needs p >= 1, got {p}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    omega = surface_area(n)
    r, R = ann.r, ann.R
    if p == 1:
        value = omega * r ** (n - 1)
    elif p == n:
        value = omega * math.log(R / r) ** (1 - n)
    else:
        # algebraically omega |(n-p)/(p-1)|^(p-1) |R^a - r^a|^(1-p); written
        # as ((R^a - r^a)/a)^(1-p) via expm1 so that p -> n is cancellation-free
        a = (p - n) / (p - 1.0)
        L = math.log(R / r)
        value = omega * (r**a * L * math.expm1(a * L) / (a * L)) ** (1.0 - p)
    return CapacityResult(value=value, method=CapacityMethod.CLOSED_FORM)


def cap_radial_weighted(space: SpaceSpec, p: float, ann: AnnulusSpec,
                        tol: float = DEFAULT_TOL) -> CapacityResult:
    """cap_p via the radial integral (int_r^R (w rho^{n-1})^{1/(1-p)})^{1-p}.

    A divergent integral means the capacity degenerates to 0.
    """
    if not (p > 1):
        raise DomainError(f"radial integral formula needs p > 1, got {p}")
    w, m, const = _radial_reduction(space)
    expo = 1.0 / (1.0 - p)

    def integrand(rho):
        return (float(w.evaluate(rho)) * rho**m) ** expo

    try:
        val, err = _quad(integrand, ann.r, ann.R, points=w.singularities(), tol=tol)
    except DomainError:
        return CapacityResult(0.0, CapacityMethod.RADIAL_INTEGRAL)
    if not math.isfinite(val) or val <= 0:
        return CapacityResult(0.0, CapacityMethod.RADIAL_INTEGRAL)
    value = const * val ** (1.0 - p)
    qerr = const * abs(1.0 - p) * val ** (-p) * err
    return CapacityResult(value=value, method=CapacityMethod.RADIAL_INTEGRAL,
                          quadrature_error=qerr)


def cap_radial_p1(space: SpaceSpec, ann: AnnulusSpec, grid: int = 4097) -> CapacityResult:
    """p = 1 capacity as the cheapest weighted sphere cut:
    inf over t in [r, R] of const * t^{n-1} w(t)."""
    w, m, const = _radial_reduction(space)

    def cut_cost(t):
        return const * t**m * float(w.evaluate(t))

    ts = np.linspace(ann.r, ann.R, grid)
    # refine near catalog singularities, where the integrand varies fastest
    for s in w.singularities():
        if ann.r < s < ann.R:
            h = (ann.R - ann.r) / grid
            ts = np.concatenate([ts, np.linspace(max(ann.r, s - 8 * h), min(ann.R, s + 8 * h), 257)])
    ts = np.unique(ts)
    costs = np.array([cut_cost(t) for t in ts])
    i = int(np.argmin(costs))
    lo = ts[max(0, i - 1)]
    hi = ts[min(len(ts) - 1, i + 1)]
    if hi > lo:
        res = optimize.minimize_scalar(cut_cost, bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-12})
        best = min(costs[i], float(res.fun))
    else:
        best = costs[i]
    return CapacityResult(value=float(best), method=CapacityMethod.INF_CUT)


def cap_snake(p: float, k: int, delta: float, geom: Snake = Snake()) -> CapacityResult:
    """Capacity of the snake annulus (2^k - delta, 2^k + delta).

    Its trace is a single path of length L = 2 delta + pi 2^k, so the
    capacity is L^{1-p} for p > 1 and 1 for p = 1.
    """
    if p < 1:
        raise DomainError(f"capacity needs p >= 1, got {p}")
    if k < 0 or k >= geom.k_max:
        raise DomainError(f"snake jump index k must lie in [0, {geom.k_max - 1}], got {k}")
    if not (0 < delta < 2.0 ** (k - 1)):
        raise DomainError(f"need delta in (0, 2^(k-1)) = (0, {2.0 ** (k - 1)}), got {delta}")
    L = 2.0 * delta + math.pi * 2.0**k
    value = 1.0 if p == 1 else L ** (1.0 - p)
    return CapacityResult(value=value, method=CapacityMethod.PATH_FORMULA)


def cap_bowtie_pinch(space: SpaceSpec, p: float, delta: float) -> CapacityResult:
    """cap_p(B_{1-delta}, B_1) at the bow-tie tip, by sector reduction
    across the pinch at the origin (comparability constant only).

    Degenerates to 0 exactly when the sector integral diverges, i.e. when
    p <= n + alpha (for p > 1).
    """
    geom = space.geometry
    if not isinstance(geom, BowTie):
        raise DomainError("cap_bowtie_pinch needs a BowTie space")
    if not (0 < delta < 0.5):
        raise DomainError(f"need delta in (0, 1/2), got {delta}")
    n, alpha = geom.n, geom.alpha
    aperture = 2.0 * math.atan(0.5)  # one lobe of the planar cone
    m = n - 1 + alpha
    if p == 1:
        value = 0.0 if m > 0 else aperture * (2.0 * delta) ** m
        return CapacityResult(value=value, method=CapacityMethod.INF_CUT)
    if p < 1:
        raise DomainError(f"capacity needs p >= 1, got {p}")
    e = m / (1.0 - p)
    if e <= -1.0:  # divergent sector integral <=> p <= n + alpha
        return CapacityResult(0.0, CapacityMethod.RADIAL_INTEGRAL)
    integral = (2.0 * delta) ** (1.0 + e) / (1.0 + e)
    return CapacityResult(value=aperture * integral ** (1.0 - p),
                          method=CapacityMethod.RADIAL_INTEGRAL)


def nice_case_estimate(space: SpaceSpec, p: float, ann: AnnulusSpec,
                       tol: float = DEFAULT_TOL) -> float:
    """(1 - r/R)^{1-p} mu(B_R) / R^p, with constant 1; thin annuli only."""
    if not ann.is_thin:
        raise DomainError(f"thin annulus (R/2 <= r) required, got r={ann.r}, R={ann.R}")
    mu, _ = mu_ball_detailed(space, ann.R, tol)
    return (1.0 - ann.r / ann.R) ** (1.0 - p) * mu / ann.R**p


def cap_auto(space: SpaceSpec, p: float, ann: AnnulusSpec,
             tol: float = DEFAULT_TOL) -> CapacityResult:
    """Dispatch to the best available engine for the space."""
    geom = space.geometry
    if isinstance(geom, (RadialRn, HalfLine)):
        if p == 1:
            return cap_radial_p1(space, ann)
        from .weights import Constant

        if isinstance(geom, RadialRn) and isinstance(space.weight, Constant) \
                and space.weight.c == 1.0:
            return cap_rn_unweighted(geom.n, p, ann)
        return cap_radial_weighted(space, p, ann, tol)
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
