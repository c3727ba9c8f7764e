"""Annular-decay exponents and the numeric 1-AD characterization.

The eta-AD property at the center says
mu(B_R \\ B_r) <= C (1 - r/R)^eta mu(B_R) for all 0 < r < R; eta-hat is
estimated by log-log regression over annulus families.  The 1-AD property
is equivalently a local Lipschitz bound rho f'(rho) <~ f(rho) on the
ball-volume function f, which we probe by central differences under grid
refinement, with jump detection that separates genuine atoms of the radial
measure from steep integrable singularities.  f is ``volume_profiles`` of
every grid at once: cumulative panel masses on radial and half-line spaces
(see measure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .measure import _fill_measures, volume_profiles
from .spaces import AnnulusSpec, SpaceSpec, _finite

__all__ = [
    "AdFitReport",
    "OneAdReport",
    "ad_ratio",
    "fit_annulus_decay",
    "estimate_ad_exponent",
    "ad_ratio_trend",
    "check_one_ad",
    "doubling_ratios",
]

# operational thresholds; the underlying comparability constants are
# qualitative, so verdicts rest on trends rather than magnitudes
SUP_TREND_UNBOUNDED = 0.1    # log2(sup) growth per grid refinement
JUMP_QUOTIENT_FACTOR = 32.0  # scale-aware outlier threshold
JUMP_MASS_SLOPE = -0.05      # log2(local increment) per refinement
TAIL_DECAY_SLOPE = -0.04     # log ratio per log rho at the far end
HEAD_BLOWUP_SLOPE = -0.5     # log ratio per log rho at the near end
HEAD_BLOWUP_LEVEL = 8.0      # ratio magnitude that counts as blowing up
ONE_AD_GRID = 64             # intervals of the coarsest 1-AD grid
ONE_AD_LEVELS = 4            # grids, each halving the step of the one before


@dataclass(frozen=True)
class AdFitReport:
    eta_hat: float
    constant_hat: float
    residual: float
    sample_count: int
    range: tuple[float, float]


@dataclass(frozen=True)
class OneAdReport:
    sup_ratio: float
    inf_ratio: float
    jump_detected: bool
    lipschitz_bound: float
    sup_trend_slope: float
    tail_slope: float
    head_slope: float
    condition_b: bool
    condition_d: bool


def ad_ratio(space: SpaceSpec, ann: AnnulusSpec, eta: float) -> float:
    """mu(B_R \\ B_r) / ((1 - r/R)^eta mu(B_R)); the eta-AD property holds
    on a family iff this is uniformly bounded over it."""
    return _ad_ratios(space, {}, [ann], eta)[0]


def _ad_ratios(space: SpaceSpec, measures: dict, annuli, eta: float) -> list:
    """ad_ratio of each annulus: eta is checked, then the annuli and
    mu(B_R), once per distinct R, are one fill of the table measures."""
    if not (eta > 0):
        raise InputError(f"need eta > 0, got {eta}")
    _fill_measures(space, measures, [iv for ann in annuli for iv in ((ann.r, ann.R), (0.0, ann.R))])
    return [measures[ann.r, ann.R] / ((1.0 - ann.r / ann.R) ** eta * measures[0.0, ann.R])
            for ann in annuli]


def _loglog_fit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise InputError(f"degenerate fit: need two points, got {len(x)}")
    if np.ptp(x) < 1e-12:
        raise InputError("degenerate fit: zero variance in abscissa")
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.abs(y - (slope * x + intercept)).max())
    return float(slope), float(intercept), resid


def _theil_sen_slope(x, y) -> float:
    """Median of the pairwise slopes over pairs with distinct x (Theil 1950,
    Sen 1968), with the bits of scipy.stats.theilslopes's slope; a median
    needs no sort of the slopes, which theilslopes makes for its interval."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x[:, None] - x
    rising = dx > 0
    if not rising.any():
        raise InputError("degenerate Theil-Sen fit: all abscissae are equal")
    slopes = (y[:, None] - y)[rising] / dx[rising]
    return float(np.median(slopes))


def _decay_radii(R, r_values):
    """A fixed-R family's radii, sorted, once each annulus is checked thin."""
    r_values = sorted(float(r) for r in r_values)
    if len(r_values) < 8:
        raise InputError(f"need >= 8 annuli per family, got {len(r_values)}")
    for r in r_values:
        if not (R / 2.0 <= r < R):
            raise InputError(f"annulus (r={r}, R={R}) is not thin")
    return r_values


def fit_annulus_decay(space: SpaceSpec, R: float, r_values,
                      measures: dict | None = None) -> AdFitReport:
    """Least-squares fit of log(mu(ann)/mu(B_R)) against log(1 - r/R)
    for a fixed-R family; the slope estimates the decay exponent.  mu(B_R)
    and the annuli are one fill of the table measures, a dict from (r, R)
    to the measure (a new one per call by default)."""
    r_values = _decay_radii(R, r_values)
    measures = _fill_measures(space, {} if measures is None else measures,
                              [(0.0, R), *((r, R) for r in r_values)])
    muR = measures[0.0, R]
    xs, ys = [], []
    for r in r_values:
        mass = measures[r, R]
        if not mass > 0:
            raise DomainError(f"annulus (r={r}, R={R}) has measure {mass}; "
                              "its decay ratio has no logarithm")
        xs.append(math.log(1.0 - r / R))
        ys.append(math.log(mass / muR))
    slope, intercept, resid = _loglog_fit(xs, ys)
    return AdFitReport(eta_hat=slope, constant_hat=math.exp(intercept), residual=resid,
                       sample_count=len(r_values), range=(min(r_values), R))


def estimate_ad_exponent(space: SpaceSpec, families,
                         measures: dict | None = None) -> AdFitReport:
    """Estimate the decay exponent of the space over a sequence of fixed-R
    families, each a pair (R, rs).

    The AD property quantifies over all annuli, so the space exponent is
    the worst (smallest) fitted slope across the declared families.  Every
    family is checked before any measure is computed, and the first invalid
    one raises its InputError; their measures are then one fill of the
    table measures (a new one per call by default).
    """
    families = [(R, _decay_radii(R, rs)) for R, rs in families]
    if not families:
        raise InputError("need at least one (R, rs) family")
    intervals = [iv for R, rs in families for iv in ((0.0, R), *((r, R) for r in rs))]
    measures = _fill_measures(space, {} if measures is None else measures, intervals)
    reports = [fit_annulus_decay(space, R, rs, measures) for R, rs in families]
    worst = min(reports, key=lambda rep: rep.eta_hat)
    return AdFitReport(
        eta_hat=worst.eta_hat,
        constant_hat=worst.constant_hat,
        residual=max(rep.residual for rep in reports),
        sample_count=sum(rep.sample_count for rep in reports),
        range=(min(rep.range[0] for rep in reports), max(rep.range[1] for rep in reports)),
    )


def ad_ratio_trend(space: SpaceSpec, annuli, eta: float,
                   measures: dict | None = None):
    """Fitted slope of log ad_ratio against log(1 - r/R) over a family,
    plus the fitted ratios in annulus order.  A negative slope means
    divergence as the annuli thin out; |slope| <= 0.05 and a bounded window
    mean the eta-AD inequality holds along the family.  The ratios come
    from one fill of the table measures (a new one per call by default)."""
    annuli = list(annuli)
    ratios = _ad_ratios(space, {} if measures is None else measures, annuli, eta)
    xs = [math.log(1.0 - ann.r / ann.R) for ann in annuli]
    slope, _, _ = _loglog_fit(xs, np.log(ratios))
    return slope, ratios


# ---------------------------------------------------------------------------
# 1-AD characterization via the ball-volume function

def check_one_ad(space: SpaceSpec, rho_range: tuple[float, float]) -> OneAdReport:
    """Probe rho f'(rho) / f(rho) by central differences on geometric grids
    at several refinements.

    A jump of f shows up as an outlier difference quotient whose local
    increment f(rho+h) - f(rho-h) does not shrink under refinement; an
    integrable power singularity produces outliers too, but its increment
    decays like h^eta and is therefore classified as steep, not atomic.
    A range too narrow for distinct grid radii is an InputError; a ball
    volume of 0, or a grid whose median ratio is 0, a DomainError.
    """
    lo, hi = rho_range
    if not (0 < lo < hi and _finite(hi)):
        raise InputError(f"need 0 < lo < hi < inf, got {rho_range}")
    grids = [np.geomspace(lo, hi, ONE_AD_GRID * 2**level + 1) for level in range(ONE_AD_LEVELS)]
    if not (np.diff(grids[-1]) > 0).all():
        raise InputError(f"range {rho_range} is too narrow for {len(grids[-1])} distinct radii")
    sups, jump_masses = [], []
    for level, (rho, f) in enumerate(zip(grids, volume_profiles(space, grids))):
        quot = (f[2:] - f[:-2]) / (rho[2:] - rho[:-2])
        mid_rho, mid_f = rho[1:-1], f[1:-1]
        if not (mid_f > 0).all():
            raise DomainError(f"mu(B_rho) underflows to 0 on {rho_range}; no ratio rho f'/f")
        ratio = mid_rho * quot / mid_f
        scale = np.median(ratio)
        if scale == 0:
            raise DomainError(f"mu(B_rho) is constant in floats on half the level-{level} grid "
                              f"of {rho_range} or more; the ratio rho f'/f has no scale")
        sups.append(float(ratio.max()))
        cands = np.flatnonzero(ratio > JUMP_QUOTIENT_FACTOR * scale)
        if len(cands):
            jump_masses.append(float((f[2:] - f[:-2])[cands].max()))
        else:
            jump_masses.append(None)
    levels_idx = np.arange(ONE_AD_LEVELS)
    sup_slope, _, _ = _loglog_fit(levels_idx, np.log2(sups))
    jump = False
    if all(m is not None and m > 0 for m in jump_masses):
        mass_slope, _, _ = _loglog_fit(levels_idx, np.log2(jump_masses))
        jump = mass_slope > JUMP_MASS_SLOPE
    # mid_rho, quot and ratio are the finest level's from here on.  Theil-Sen
    # on the top quarter of the range: robust to the isolated spikes a
    # singularity or jump leaves in the difference quotients
    upper = slice(3 * len(mid_rho) // 4, None)
    tail_slope = _theil_sen_slope(np.log(mid_rho[upper]),
                                  np.log(np.maximum(ratio[upper], 1e-300)))
    # a large ratio rising toward the near end of the range means the a.e.
    # bound M blows up as rho -> 0, which refinement alone cannot detect
    lower = slice(None, len(mid_rho) // 4)
    head_slope = _theil_sen_slope(np.log(mid_rho[lower]),
                                  np.log(np.maximum(ratio[lower], 1e-300)))
    head_blowup = head_slope <= HEAD_BLOWUP_SLOPE and float(ratio[lower].max()) >= HEAD_BLOWUP_LEVEL
    condition_b = (not jump) and sup_slope < SUP_TREND_UNBOUNDED and not head_blowup
    # condition_d reports only the lower comparability rho f' >~ f; the full
    # two-sided statement is condition_b and condition_d
    condition_d = tail_slope > TAIL_DECAY_SLOPE and float(ratio.min()) > 0
    return OneAdReport(
        sup_ratio=math.inf if jump else float(ratio.max()),
        inf_ratio=float(ratio.min()),
        jump_detected=jump,
        lipschitz_bound=float(quot.max()),
        sup_trend_slope=sup_slope,
        tail_slope=tail_slope,
        head_slope=head_slope,
        condition_b=condition_b,
        condition_d=condition_d,
    )


def doubling_ratios(space: SpaceSpec, radii) -> np.ndarray:
    """mu(B_2r) / mu(B_r) at each radius r of a family, in order, from one
    _measure_family call over every ball B_r and B_2r, so each distinct radius
    is computed once.  Doubling at the center bounds these ratios above,
    reverse doubling bounds them above 1 from below.  An empty family is an
    InputError."""
    radii = list(radii)
    if not radii:
        raise InputError("need at least one radius")
    balls = _fill_measures(space, {}, [(0.0, rho) for r in radii for rho in (2.0 * r, r)])
    return np.array([balls[0.0, 2.0 * r] / balls[0.0, r] for r in radii])
