"""Ball volumes mu(B_r), annulus measures and ball-volume profiles.

Every integral goes to one vectorized tanh-sinh rule, batched over a
family: one call integrates groups of panels, one group per integral, each
level's nodes of every group still refining in one array call.  A group
sums only its own panels, stops at its own level, and ends in its own
value or error; a single integral is a family of one, with the same bits.
Radial and half-line geometries reduce to 1-D integrals in the radius,
integrated in a power of the distance to a power pole near it, a family of
balls and annuli in one call; ``volume_profiles`` sums Gauss-Legendre panel
masses there, as the radial network builder does, over several grids at
once.  The snake has an exact closed form, computed over a family's radii
as arrays.  The bow-tie, in every dimension n >= 2, is one integral over
x1 of closed-form hypergeometric slice masses, in closed form on the panels
at the pinch, a family of balls and annuli in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AnncapError, DomainError, QuadratureError, attempt, unwrap
from .spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, surface_area
from .weights import Constant, PowerAlpha

__all__ = ["mu_ball", "mu_annulus", "mu_ball_detailed", "mu_annulus_detailed", "mu_family",
           "volume_profiles", "FamilyMeasures"]

DEFAULT_TOL = 1e-10
_EPS = np.finfo(float).eps


def _radial_reduction(space):
    """(w, m, const): mu has density const * w(rho) * rho^m in the radius rho.
    A PowerAlpha weight is folded into m, with w = 1: one power, rho^(m +
    alpha), stays in the float range wherever its value does."""
    geom, w = space.geometry, space.weight
    if not isinstance(geom, (RadialRn, HalfLine)):
        raise DomainError(f"radial reduction needs RadialRn or HalfLine, got {type(geom).__name__}")
    m, const = (geom.n - 1, surface_area(geom.n)) if isinstance(geom, RadialRn) else (0, 1.0)
    if isinstance(w, PowerAlpha):
        return Constant(), m + w.alpha, const
    return w, m, const


PANEL_RATIO = 1e8  # no panel of a radial integral spans a larger ratio of radii


def _radial_integral(w, m, intervals, k=1.0):
    """int_r^R (w rho^m)^k drho and its error estimate over each interval
    (r, R) of a family, by one call of the tanh-sinh rule with one group of
    panels per interval.  Each result is (value, error), or the DomainError
    or QuadratureError that ends its group.

    Panels end at r, R, the weight's singularities, half and twice each
    weight pole, and geometric cuts that keep their ratios of radii at most
    PANEL_RATIO.  The density's poles p, |rho - p|^beta with beta in (-1, 0),
    are the weight's, or else rho^m's at 0 when m < 0.  A panel within a
    factor 2 of a weight pole, or any panel about rho^m's, is integrated in
    u = |rho - p|^e, e = min(1 + beta k, 1), about its nearest pole, in two
    halves if its ends have different nearest poles.  The offsets from p and
    the panel's width in u are exact to rounding, however close to p and
    however thin.  For e < 1 the integrand, the weight's regular part^k
    rho^(m k) / e, is bounded; for e = 1 it is (w rho^m)^k, which tends to 0
    at p.  Elsewhere it is w^k rho^(m k), where rho^m cannot underflow.
    """
    if not intervals:
        return []
    weight_poles = dict(getattr(w, "poles", ()))
    poles = weight_poles or ({0.0: m} if m < 0 else {})  # a folded PowerAlpha leaves w = 1
    fixed = {*w.singularities(), *(c * p for p in weight_poles for c in (0.5, 2.0))}
    plans = []  # each interval's panel edges
    for r, R in intervals:
        cuts = set(fixed)
        if r > 0:
            span = math.log(R) - math.log(r)
            n = math.ceil(span / math.log(PANEL_RATIO))
            cuts.update(math.exp(math.log(r) + span * i / n) for i in range(1, n))
        plans.append([r, *sorted(s for s in cuts if r < s < R), R])
    if not poles:
        lo, hi = [], []
        for edges in plans:
            lo += edges[:-1]
            hi += edges[1:]
        return _tanh_sinh(lambda rho: w.evaluate(rho) ** k * rho ** (m * k), np.array(lo),
                          np.array(hi), [len(edges) - 1 for edges in plans])
    panels, groups = [], []  # (anchor, direction, beta, u0, width): u = u0 + v, v in [0, width]
    for edges in plans:
        count = len(panels)
        for a, b in zip(edges, edges[1:]):
            pa, pb = (min(poles, key=lambda p: abs(x - p)) for x in (a, b))
            mid = 0.5 * (a + b)
            for x, y, p in [(a, b, pa)] if pa == pb else [(a, mid, pa), (mid, b, pb)]:
                if p > 0.0 and not 0.5 * p <= x < y <= 2.0 * p:  # away from the weight's poles
                    panels.append((x, 1.0, 0.0, 0.0, y - x))  # rho = x + v
                    continue
                e = min(1.0 + poles[p] * k, 1.0)
                near = min(abs(x - p), abs(y - p))
                width = (near**e * math.expm1(e * math.log1p((y - x) / near)) if near
                         else (y - x) ** e)
                panels.append((p, 1.0 if x >= p else -1.0, poles[p], near**e, width))
        groups.append(len(panels) - count)
    anchor, sign, beta, u0, width = np.array(panels).T[:, :, None]
    e = np.minimum(1.0 + beta * k, 1.0)
    kept = np.where(e < 1.0, 0.0, beta)  # the pole's power that u leaves in the integrand
    poles_here = [p for p in weight_poles if p in anchor]
    power = m * k if m >= 0 else 0.0

    def integrand(v, anchor, sign, u0, e, kept, *at_poles):
        d = sign * (u0 + v) ** (1.0 / e)
        rho = anchor + d
        val = w.evaluate(rho)
        for p, at_p in zip(poles_here, at_poles):
            val[at_p] = w.regular(p, d[at_p])
        return (val * np.abs(d) ** kept) ** k * rho**power / e

    return _tanh_sinh(integrand, np.zeros(len(panels)), width[:, 0], groups,
                      (anchor, sign, u0, e, kept, *(anchor[:, 0] == p for p in poles_here)))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _cell_masses(fn, edges_lo, edges_hi):
    """Gauss-Legendre mass of fn over each cell [lo_i, hi_i], vectorized.

    Row j holds every cell's j-th node, so each array operation runs over
    the cells. The 8 weighted values of a cell are added pairwise, the order
    of numpy's sum over a contiguous axis of 8."""
    mid = 0.5 * (edges_lo + edges_hi)
    half = 0.5 * (edges_hi - edges_lo)
    pts = np.multiply.outer(_GL_NODES, half)
    pts += mid
    v = fn(pts) * _GL_WEIGHTS[:, None]
    return half * (((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7])))


def _snake_family(geom: Snake, intervals):
    """mu(B_R) - mu(B_r) of the snake for each (r, R), exact, with error 0,
    or the DomainError of a radius past 2^k_max (R's first).

    Segments cover each radius exactly once, and the half-circle of radius
    2^k (arclength pi 2^k) enters the ball as soon as 2^k < R, so mu(B_R)
    is R plus those arclengths, added in order of k, over every radius of
    the family at once."""
    radii = np.array([R for _, R in intervals] + [r for r, _ in intervals], dtype=float)
    balls = radii.copy()
    top, k = np.fmax.reduce(radii, initial=0.0), 0  # fmax passes over a NaN radius
    while k < geom.k_max and 2.0**k < top:
        np.add(balls, math.pi * 2.0**k, out=balls, where=2.0**k < radii)
        k += 1
    balls = balls.tolist()
    done = []
    for (r, R), ball_R, ball_r in zip(intervals, balls, balls[len(intervals):]):
        past = next((x for x in (R, r) if x > geom.max_radius), None)
        done.append((ball_R - ball_r, 0.0) if past is None else DomainError(
            f"snake represents radii up to 2^{geom.k_max} = {geom.max_radius}, got R = {past}"))
    return done


# ---------------------------------------------------------------------------
# tanh-sinh quadrature (Takahasi & Mori 1974)
#
# On a panel [a, b] of length L the node at t is a + frac(t) L for t < 0 and
# b - frac(t) L for t > 0, with frac(t) = 1/(1 + e^(pi sinh|t|)), and its
# weight is h L dx/dt.  Level 0 has every t in [-T_MAX, T_MAX] at step
# h = 1/4, and level k adds the odd multiples of 2^-k h.  At |t| = T_MAX = 6
# the offset is about 1e-275 of the panel, near the float floor.  The tables
# hold frac negated for the nodes taken from b, so that every node is its
# end plus its signed offset, b + (-frac L) being b - frac L exactly.

_TS_T_MAX = 6.0
_TS_H0 = 0.25
_TS_LEVELS = 7  # down to step 1/256


def _ts_level(k):
    """(frac, weight column, from_b) of level k's new nodes, per unit panel
    length: each t > 0 gives a node from each end, t = 0 the midpoint once."""
    h = _TS_H0 * 2.0**-k
    t = np.arange(0.0, _TS_T_MAX + 0.5 * h, h) if k == 0 else np.arange(h, _TS_T_MAX, 2.0 * h)
    e = np.exp(-math.pi * np.sinh(t))
    frac = e / (1.0 + e)
    weight = h * math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    skip = 1 if k == 0 else 0
    from_b = np.arange(2 * len(t) - skip) >= len(t)
    return np.r_[frac, frac[skip:]], np.r_[weight, weight[skip:]][:, None], from_b


def _ts_first_table():
    """Levels 0 and 1, weighted by the columns level 1, level 0, level 0 at |t| = T_MAX."""
    (f0, w0, b0), (f1, w1, b1) = _ts_level(0), _ts_level(1)
    tail = np.where(f0[:, None] == f0.min(), w0, 0.0)
    z0, z1 = np.zeros_like(w0), np.zeros_like(w1)
    return np.r_[f0, f1], np.block([[z0, w0, tail], [w1, z1, z1]]), np.r_[b0, b1]


# the rule never stops before level 1, so levels 0 and 1 share a table
_TS_TABLES = tuple((np.where(from_b, -frac, frac), weights, from_b) for frac, weights, from_b
                   in (_ts_first_table(), *map(_ts_level, range(2, _TS_LEVELS))))


def _tanh_sinh(f, lo, hi, groups, columns=()):
    """Integral I of f >= 0 over each group of the panels [lo_i, hi_i] and
    its error estimate, by the tanh-sinh rule on each panel.

    groups holds the panel counts of the integrals, whose panels follow one
    another in lo and hi.  f maps a (panels, nodes) array of nodes, and the
    rows of the per-panel arrays columns for those panels, to their values:
    each level's new nodes of every group still refining in one call.
    Nodes approach a panel end by their offset from it; one whose offset
    underflows to 0 counts as 0.  A group sums its own panels and nodes
    alone, and stops at the first level after level 0 whose error estimate,
    the change from the previous level floored at the terms at |t| = T_MAX
    (the truncated tail) and at N eps I over its N nodes (the sum's
    rounding), is at most DEFAULT_TOL I.  Each group's result is (I, error),
    or a DomainError for a non-finite sample, or a QuadratureError when the
    last level misses the gate; it stops no other group.
    """
    results = [None] * len(groups)
    live, start = [], 0  # [group, its rows among the live panels, I, tail, nodes, error]
    for g, size in enumerate(groups):
        live.append([g, slice(start, start + size), 0.0, 0.0, 0, 0.0])
        start += size
    a, b, length, cols = lo[:, None], hi[:, None], hi - lo, columns
    with np.errstate(all="ignore"):  # a non-finite sample fails the check below
        for k, (frac, weights, from_b) in enumerate(_TS_TABLES):
            off = frac * length[:, None]
            vals = np.where(off != 0.0, f(np.where(from_b, b, a) + off, *cols), 0.0)
            refining = []
            for group in live:
                g, rows, total, tail, nodes, err = group
                nodes += np.count_nonzero(off[rows])
                sums = length[rows] @ (vals[rows] @ weights)
                if k == 0:
                    total, tail = sums[1], abs(sums[2])
                prev, total = total, 0.5 * total + sums[0]
                if not math.isfinite(total):
                    results[g] = DomainError("non-finite integrand sample in quadrature")
                    continue
                err = max(abs(total - prev), tail, nodes * _EPS * abs(total))
                if err <= DEFAULT_TOL * abs(total):
                    results[g] = float(total), float(err)
                    continue
                group[2:] = total, tail, nodes, err
                refining.append(group)
            if len(refining) < len(live):
                live, start, rows = refining, 0, []
                for group in live:
                    g = group[0]
                    rows.append(np.arange(sum(groups[:g]), sum(groups[:g + 1])))
                    group[1] = slice(start, start + groups[g])
                    start += groups[g]
                if not live:
                    break
                rows = np.concatenate(rows)
                a, b, length = lo[rows, None], hi[rows, None], (hi - lo)[rows]
                cols = [c[rows] for c in columns]
    for g, _, total, _, _, err in live:
        results[g] = QuadratureError(
            f"tanh-sinh quadrature reached error {err:.3e} > requested {DEFAULT_TOL:.3e} "
            f"relative to {total:.3e}", achieved_error=err)
    return results


# ---------------------------------------------------------------------------
# bow-tie: one quadrature over x1 about the tip x0 = (-1, 0, ..., 0)

def _ball_sides(R):
    """R - 1 and R + 1, each as a float and its exact rounding error."""
    m, p = R - 1.0, R + 1.0
    return m, math.fsum((R, -1.0, -m)), p, math.fsum((R, 1.0, -p))


def _ball_limit(x1, m, m_err, p, p_err):
    """The slice radius sqrt(R^2 - (x1 + 1)^2) of the ball B(x0, R), 0
    outside it, from R's sides (m, m_err, p, p_err) = _ball_sides(R).

    It is sqrt((R - 1 - x1)(R + 1 + x1)) with R - 1 and R + 1 each carried
    as a float plus its exact rounding error, so that both factors keep
    their relative accuracy wherever x1 is: near the tip x1 = -1 of a small
    ball, and near the ball's far end R - 1, which may be the pinch.
    """
    return np.sqrt(np.maximum(((m - x1) + m_err) * ((p + x1) + p_err), 0.0))


def _bowtie_x1_breakpoints(rads):
    """x1 values where the slice limits switch branches."""
    pts = [0.0]
    for rad in rads:
        pts.append(-1.0 + rad)
        # |x1|/2 = sqrt(rad^2 - (x1+1)^2)  =>  (5/4)x1^2 + 2x1 + 1 - rad^2 = 0
        disc = 4.0 - 5.0 * (1.0 - rad * rad)
        if disc >= 0:
            pts.append((-2.0 + math.sqrt(disc)) / 2.5)
            pts.append((-2.0 - math.sqrt(disc)) / 2.5)
    return pts


def _bowtie_family(space, intervals):
    """Integral of |x|^alpha over the cone cut to r <= |x - x0| < R for each
    (r, R) of a family, by one call of the tanh-sinh rule with one group of
    panels per interval: each is (value, error), or the error that ends it.

    Cone and balls are symmetric about the x1 axis, so the slice at x1 is
    the shell lo <= s <= hi of s = |(x2, ..., xn)|, and Euler's integral
    (DLMF 15.6.1) gives its mass omega_{n-2} |x1|^(alpha + n - 1)
    [F(hi/|x1|) - F(lo/|x1|)] with F(q) = q^(n-1)/(n-1)
    2F1(-alpha/2, (n-1)/2; (n+1)/2; -q^2).  On the cone q <= 1/2, so F stays
    bounded.  The x1 where the slice limits switch branches cut the range
    into panels.  On a panel that ends at the pinch x1 = 0 both limits are
    0 or |x1|/2, so the bracket is constant and the panel's mass is closed
    form, however close alpha + n comes to 0.  The other panels go to the
    tanh-sinh rule, each carrying its interval's R and r as the columns of
    their _ball_sides.
    """
    n, alpha = space.geometry.n, space.geometry.alpha
    power = alpha + n
    a, b, c = -alpha / 2.0, (n - 1) / 2.0, (n + 1) / 2.0
    const = surface_area(n - 1) / (n - 1)
    from scipy.special import hyp2f1

    def scaled(q):
        return q ** (n - 1) * hyp2f1(a, b, c, -q * q)

    def bracket(x1, *sides):  # R's four sides, then r's
        ax = np.abs(x1)
        hi = np.minimum(0.5 * ax, _ball_limit(x1, *sides[:4]))
        lo = np.minimum(_ball_limit(x1, *sides[4:]), hi)
        return const * (scaled(hi / ax) - scaled(lo / ax))

    def shell_mass(x1, *sides):
        return np.abs(x1) ** (power - 1) * bracket(x1, *sides)

    panels, pinches, groups, spans = [], [], [], []  # a pinch panel as (far end, sides)
    saturated = [(r, space.diameter if R > space.diameter + 1e-12 else R) for r, R in intervals]
    for r, R in saturated:  # a ball past the diameter integrates over the whole cone
        top = min(2.0, -1.0 + R)
        pts = [x for x in _bowtie_x1_breakpoints([r, R] if r > 0 else [R]) if -1.0 < x < top]
        ends = np.unique([-1.0, *pts, top])
        sides = (*_ball_sides(R), *_ball_sides(r))
        count, first = len(panels), len(pinches)
        for lo, hi in zip(ends[:-1], ends[1:]):
            if lo == 0.0 or hi == 0.0:
                pinches.append((lo + hi, *sides))
            else:
                panels.append((lo, hi, *sides))
        groups.append(len(panels) - count)
        spans.append(slice(first, len(pinches)))
    lo, hi, *columns = np.array(panels).reshape(-1, 10).T[:, :, None]
    far, *sides = np.array(pinches).reshape(-1, 9).T
    with np.errstate(over="ignore"):
        terms = bracket(0.5 * far, *sides) * np.abs(far) ** power
        pinch_masses = [terms[span].sum() / power for span in spans]
    done = []
    for (r, R), pinch_mass, res in zip(saturated, pinch_masses,
                                       _tanh_sinh(shell_mass, lo[:, 0], hi[:, 0], groups, columns)):
        if isinstance(res, DomainError) or not math.isfinite(pinch_mass):
            # a power of |x1| past the float range
            res = DomainError(f"bow-tie measure of (r={r}, R={R}) at n = {n}, alpha = {alpha} "
                              "leaves the float range")
        elif not isinstance(res, AnncapError):
            # the closed form's rounding: a few ulps from each factor
            res = res[0] + pinch_mass, res[1] + 16.0 * _EPS * pinch_mass
        done.append(res)
    return done


# ---------------------------------------------------------------------------

def _measure_family(space: SpaceSpec, intervals):
    """mu(r <= |x - x0| < R) and its error estimate for each (r, R) of a
    family, r = 0 for the ball B_R, in order: each is (value, error) or the
    AnncapError that computing it raised.  On radial and half-line spaces
    each is a single integral over (r, R), avoiding cancellation, and the
    family's integrals are one _radial_integral call."""
    geom = space.geometry
    valid = [(r, R) for r, R in intervals if 0 < R < math.inf]
    if isinstance(geom, (RadialRn, HalfLine)):
        w, m, const = _radial_reduction(space)
        done = [res if isinstance(res, AnncapError) else (const * res[0], const * res[1])
                for res in _radial_integral(w, m, valid)]
    elif isinstance(geom, Snake):
        done = _snake_family(geom, valid)
    elif isinstance(geom, BowTie):
        done = _bowtie_family(space, valid)
    else:
        done = [DomainError(f"unknown geometry {geom!r}") for _ in valid]
    done = iter(done)
    return [next(done) if 0 < R < math.inf else
            DomainError(f"ball radius must be positive and finite, got {R}") for _, R in intervals]


def mu_family(space: SpaceSpec, intervals) -> list:
    """mu(r <= |x - x0| < R) of each (r, R), r = 0 for the ball B_R, in
    order, from one _measure_family call; the first error in order is
    raised."""
    return [unwrap(res)[0] for res in _measure_family(space, intervals)]


def mu_ball_detailed(space: SpaceSpec, R: float):
    """mu(B(x0, R)) together with an error estimate."""
    return unwrap(_measure_family(space, [(0.0, R)])[0])


def mu_ball(space: SpaceSpec, R: float) -> float:
    return mu_ball_detailed(space, R)[0]


def mu_annulus_detailed(space: SpaceSpec, ann: AnnulusSpec):
    """mu(B_R \\ B_r) together with an error estimate."""
    return unwrap(_measure_family(space, [(ann.r, ann.R)])[0])


def mu_annulus(space: SpaceSpec, ann: AnnulusSpec) -> float:
    return mu_annulus_detailed(space, ann)[0]


class FamilyMeasures:
    """mu(r <= |x - x0| < R) of one space, r = 0 for the ball B_R, for the
    length of one computation over a family.  fill computes every interval
    the table lacks in one _measure_family call, each distinct one once; a
    read of an interval not yet filled computes it alone.  A read returns
    the value mu_ball or mu_annulus returns, or raises the error it raises.

    A table lives as long as the computation that made it (one
    verify_envelope call, say) and is not kept beyond it, so repeated
    queries still do their own work.
    """

    def __init__(self, space: SpaceSpec):
        self.space = space
        self._results = {}

    def fill(self, intervals):
        new = [iv for iv in dict.fromkeys(intervals) if iv not in self._results]
        if new:
            self._results.update(zip(new, _measure_family(self.space, new)))

    def __call__(self, r, R):
        if (r, R) not in self._results:
            self.fill([(r, R)])
        return unwrap(self._results[r, R])[0]

    def ball(self, rho):
        return self(0.0, rho)

    def annulus(self, ann: AnnulusSpec):
        return self(ann.r, ann.R)


def volume_profiles(space: SpaceSpec, grids) -> list:
    """mu(B_rho) at each of the increasing radii rho of each grid, in order.

    On radial and half-line spaces each profile is cumulative: mu_ball at
    rho[0] plus the masses of the panels between consecutive radii.  A
    panel's mass is GL8 on its two halves, its error estimate the
    difference from GL8 on the whole panel.  A panel goes to the tanh-sinh
    rule when its upper radius exceeds twice its lower one, it contains or
    touches a weight singularity, its mass is not finite, or its estimate
    exceeds 1e-2 * DEFAULT_TOL times the profile at its upper end.  The
    balls at the grids' first radii are one FamilyMeasures fill, and the
    panels every grid redoes are one _radial_integral call; the first error
    is raised in the order of a grid-by-grid computation.  Other geometries
    take mu_ball at every distinct radius of the grids in one FamilyMeasures
    fill.
    """
    grids = [np.asarray(rho, dtype=float) for rho in grids]
    balls = FamilyMeasures(space)
    if not isinstance(space.geometry, (RadialRn, HalfLine)):
        balls.fill([(0.0, x) for rho in grids for x in rho])
        return [np.array([balls.ball(x) for x in rho]) for rho in grids]
    w, m, const = _radial_reduction(space)

    def density(x):
        return w.evaluate(x) * x**m

    balls.fill([(0.0, rho[0]) for rho in grids])
    sing = np.asarray(w.singularities(), dtype=float)
    profiles, redone, failure = [], [], None
    for rho in grids:
        lo, hi = rho[:-1], rho[1:]
        mid = 0.5 * (lo + hi)
        with np.errstate(all="ignore"):  # a mass past the float range is redone below
            whole = const * _cell_masses(density, lo, hi)
            inc = const * (_cell_masses(density, lo, mid) + _cell_masses(density, mid, hi))
        # The two-halves gate vouches only for mass that GL8 samples: on a
        # wider panel every node can lie past the mass (e^-rho on [0.5,
        # 24613.5] reads 0 both ways).  Within a ratio of 2 the nodes nearest
        # an end lie within 1% of its radius, and the catalog's steepest
        # densities, e^-rho and e^(-1/rho) / rho^2, change by more than the
        # gate's 1e-12 over that 1% only where their mass underflows.
        redo = ((hi > 2.0 * lo) | ((sing >= lo[:, None]) & (sing <= hi[:, None])).any(axis=1)
                | ~np.isfinite(inc))
        f0 = attempt(balls.ball, rho[0])
        if isinstance(f0, AnncapError):  # raised once the grids before it are done
            failure = f0
            break
        # a panel redone below adds 0 here, so that the gate of the ones past it only tightens
        with np.errstate(over="ignore", invalid="ignore"):  # a profile past the floats is refused
            below = f0 + np.cumsum(np.where(redo, 0.0, inc))
            redo |= np.abs(whole - inc) > 1e-2 * DEFAULT_TOL * below
        profiles.append((f0, inc))
        redone.append(np.flatnonzero(redo))
    panels = [(a, b) for rows, rho in zip(redone, grids) for a, b in zip(rho[rows], rho[rows + 1])]
    results = iter(_radial_integral(w, m, panels))
    done = []
    for (f0, inc), rows, rho in zip(profiles, redone, grids):
        for i in rows:
            inc[i] = const * unwrap(next(results))[0]
        with np.errstate(over="ignore"):
            done.append(np.concatenate(([f0], f0 + np.cumsum(inc))))
        if not math.isfinite(done[-1][-1]):
            raise DomainError(f"mu(B_rho) leaves the float range on [{rho[0]}, {rho[-1]}]")
    if failure is not None:
        raise failure
    return done
