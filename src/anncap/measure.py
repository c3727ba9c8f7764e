"""Ball volumes mu(B_r), annulus measures and ball-volume profiles.

Radial and half-line geometries reduce to 1-D quadrature with singularity
hints supplied by the weight catalog; ``volume_profile`` sums vectorized
Gauss-Legendre panel masses there, the rule the radial network builder
uses, and falls back to adaptive quadrature panel by panel.  The snake has
an exact closed form.  The bow-tie is integrated by nested adaptive
quadrature for n = 2 and by scrambled quasi-Monte Carlo for n >= 3.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate
from scipy.stats import qmc

from .errors import DomainError, QuadratureError
from .spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, surface_area

__all__ = ["mu_ball", "mu_annulus", "mu_ball_detailed", "mu_annulus_detailed", "volume_profile",
           "DEFAULT_TOL"]

DEFAULT_TOL = 1e-10

# quasi-Monte Carlo defaults for the n >= 3 bow-tie
QMC_SAMPLES = 1 << 20
QMC_SEED = 20230517


def _quad(fn, a, b, points=(), tol=DEFAULT_TOL):
    """Adaptive quadrature over [a, b] split at interior singularity hints."""
    if b <= a:
        return 0.0, 0.0
    pts = sorted(p for p in points if a < p < b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            fn, a, b, points=pts or None, limit=400, epsabs=tol, epsrel=tol
        )
    if not math.isfinite(val):
        raise DomainError("non-integrable singularity detected in quadrature")
    if err > 50.0 * max(tol, tol * abs(val)):
        raise QuadratureError(
            f"quadrature reached error {err:.3e} > requested {tol:.3e}", achieved_error=err
        )
    return val, err


def _radial_reduction(space):
    """(w, m, const): mu has density const * w(rho) * rho^m in the radius rho."""
    geom = space.geometry
    if isinstance(geom, RadialRn):
        return space.weight, geom.n - 1, surface_area(geom.n)
    if isinstance(geom, HalfLine):
        return space.weight, 0, 1.0
    raise DomainError(f"radial reduction needs RadialRn or HalfLine, got {type(geom).__name__}")


def _radial_measure(space, r, R, tol):
    """mu(r <= rho < R) and its error estimate by adaptive quadrature."""
    w, m, const = _radial_reduction(space)
    val, err = _quad(lambda rho: float(w.evaluate(rho)) * rho**m, r, R,
                     points=w.singularities(), tol=tol)
    return const * val, const * err


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _cell_masses(fn, edges_lo, edges_hi):
    """Gauss-Legendre mass of fn over each cell [lo_i, hi_i], vectorized."""
    mid = 0.5 * (edges_lo + edges_hi)
    half = 0.5 * (edges_hi - edges_lo)
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = fn(pts)
    return half * (vals * _GL_WEIGHTS[None, :]).sum(axis=1)


def _snake_ball(geom: Snake, R):
    if R > geom.max_radius:
        raise DomainError(
            f"snake represents radii up to 2^{geom.k_max} = {geom.max_radius}, got R = {R}"
        )
    # segments cover each radius exactly once; half-circle of radius 2^k
    # (arclength pi 2^k) enters the ball as soon as 2^k < R
    total = R
    k = 0
    while k < geom.k_max and 2.0**k < R:
        total += math.pi * 2.0**k
        k += 1
    return total


# ---------------------------------------------------------------------------
# bow-tie (n = 2): nested adaptive quadrature about the tip x0 = (-1, 0)

def _bowtie_half_width(x1):
    return abs(x1) / 2.0


def _ball_limit(x1, R):
    d2 = R * R - (x1 + 1.0) ** 2
    return math.sqrt(d2) if d2 > 0 else 0.0


def _bowtie_x1_breakpoints(rads):
    """x1 values where the inner integration limits switch branches."""
    pts = [0.0]
    for rad in rads:
        pts.append(-1.0 + rad)
        # |x1|/2 = sqrt(rad^2 - (x1+1)^2)  =>  (5/4)x1^2 + 2x1 + 1 - rad^2 = 0
        disc = 4.0 - 5.0 * (1.0 - rad * rad)
        if disc >= 0:
            pts.append((-2.0 + math.sqrt(disc)) / 2.5)
            pts.append((-2.0 - math.sqrt(disc)) / 2.5)
    return pts


def _bowtie_annulus_2d(alpha, r, R, tol):
    """Integral of |x|^alpha over the cone cut to r <= |x - x0| < R."""

    inner_tol = max(tol * 1e-2, 1e-14)

    def slice_mass(x1):
        hi = min(_bowtie_half_width(x1), _ball_limit(x1, R))
        lo = _ball_limit(x1, r) if abs(x1 + 1.0) < r else 0.0
        if hi <= lo or hi <= 0.0:
            return 0.0
        ax = abs(x1)

        def inner(t):
            return (x1 * x1 + t * t) ** (alpha / 2.0)

        pts = [ax] if lo < ax < hi else []
        val, _ = _quad(inner, lo, hi, points=pts, tol=inner_tol)
        return 2.0 * val  # symmetric in x2

    b = min(2.0, -1.0 + R)
    pts = _bowtie_x1_breakpoints([r, R] if r > 0 else [R])
    val, err = _quad(slice_mass, -1.0, b, points=pts, tol=tol)
    return val, err + inner_tol * (b + 1.0)


def _bowtie_qmc(geom: BowTie, r, R, seed=QMC_SEED, samples=QMC_SAMPLES):
    """Scrambled-Sobol estimate of the annulus measure for n >= 3."""
    n, alpha = geom.n, geom.alpha
    x1_hi = min(2.0, -1.0 + R)
    lo = np.array([-1.0] + [-1.0] * (n - 1))
    hi = np.array([x1_hi] + [1.0] * (n - 1))
    volume = float(np.prod(hi - lo))
    sob = qmc.Sobol(d=n, scramble=True, seed=seed)
    m = max(4, int(math.ceil(math.log2(samples))))
    pts = qmc.scale(sob.random_base2(m=m), lo, hi)
    x1 = pts[:, 0]
    rest2 = np.sum(pts[:, 1:] ** 2, axis=1)
    norm2 = x1 * x1 + rest2
    dist2 = (x1 + 1.0) ** 2 + rest2
    mask = (rest2 <= 0.25 * x1 * x1) & (dist2 < R * R) & (dist2 >= r * r)
    with np.errstate(divide="ignore"):
        vals = np.where(mask, norm2 ** (alpha / 2.0), 0.0)
    vals = np.nan_to_num(vals, posinf=0.0)  # measure-zero singular point
    blocks = vals.reshape(16, -1).mean(axis=1) * volume
    est = float(blocks.mean())
    stderr = float(blocks.std(ddof=1) / math.sqrt(len(blocks)))
    return est, stderr


def _bowtie_annulus(space, r, R, tol):
    geom = space.geometry
    if R > space.diameter + 1e-12:
        R = space.diameter  # ball saturates; integrate over the whole cone
    if geom.n == 2:
        return _bowtie_annulus_2d(geom.alpha, r, R, tol)
    return _bowtie_qmc(geom, r, R)


# ---------------------------------------------------------------------------

def mu_ball_detailed(space: SpaceSpec, R: float, tol: float = DEFAULT_TOL):
    """mu(B(x0, R)) together with an error estimate."""
    if not (R > 0):
        raise DomainError(f"ball radius must be positive, got {R}")
    geom = space.geometry
    if isinstance(geom, (RadialRn, HalfLine)):
        return _radial_measure(space, 0.0, R, tol)
    if isinstance(geom, Snake):
        return _snake_ball(geom, R), 0.0
    if isinstance(geom, BowTie):
        return _bowtie_annulus(space, 0.0, R, tol)
    raise DomainError(f"unknown geometry {geom!r}")


def mu_ball(space: SpaceSpec, R: float, tol: float = DEFAULT_TOL) -> float:
    return mu_ball_detailed(space, R, tol)[0]


def mu_annulus_detailed(space: SpaceSpec, ann: AnnulusSpec, tol: float = DEFAULT_TOL):
    """mu(B_R \\ B_r) by a single quadrature over (r, R) where the geometry
    allows, avoiding cancellation."""
    geom = space.geometry
    if isinstance(geom, (RadialRn, HalfLine)):
        return _radial_measure(space, ann.r, ann.R, tol)
    if isinstance(geom, Snake):
        return _snake_ball(geom, ann.R) - _snake_ball(geom, ann.r), 0.0
    if isinstance(geom, BowTie):
        return _bowtie_annulus(space, ann.r, ann.R, tol)
    raise DomainError(f"unknown geometry {geom!r}")


def mu_annulus(space: SpaceSpec, ann: AnnulusSpec, tol: float = DEFAULT_TOL) -> float:
    return mu_annulus_detailed(space, ann, tol)[0]


def volume_profile(space: SpaceSpec, rho) -> np.ndarray:
    """mu(B_rho) at each of the increasing radii rho.

    On radial and half-line spaces the profile is cumulative: mu_ball at
    rho[0] plus the masses of the panels between consecutive radii.  A
    panel's mass is GL8 on its two halves, its error estimate the
    difference from GL8 on the whole panel.  A panel goes to adaptive
    quadrature when it contains or touches a weight singularity, its mass
    is not finite, or its estimate exceeds 1e-2 * DEFAULT_TOL * max(1,
    |mass|).  Other geometries take mu_ball at each radius.
    """
    rho = np.asarray(rho, dtype=float)
    if not isinstance(space.geometry, (RadialRn, HalfLine)):
        return np.array([mu_ball(space, x) for x in rho])
    w, m, const = _radial_reduction(space)

    def density(x):
        return w.evaluate(x) * x**m

    lo, hi = rho[:-1], rho[1:]
    mid = 0.5 * (lo + hi)
    whole = _cell_masses(density, lo, hi)
    panel = _cell_masses(density, lo, mid) + _cell_masses(density, mid, hi)
    sing = np.asarray(w.singularities(), dtype=float)
    redo = ((sing >= lo[:, None]) & (sing <= hi[:, None])).any(axis=1) | ~np.isfinite(panel)
    with np.errstate(invalid="ignore"):
        redo |= np.abs(whole - panel) > 1e-2 * DEFAULT_TOL * np.maximum(1.0, np.abs(panel))
    inc = const * panel
    for i in np.flatnonzero(redo):
        inc[i] = _radial_measure(space, lo[i], hi[i], DEFAULT_TOL)[0]
    f0 = mu_ball(space, rho[0])
    return np.concatenate(([f0], f0 + np.cumsum(inc)))
