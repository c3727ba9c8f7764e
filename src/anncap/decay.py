"""Annular-decay exponents and the numeric 1-AD characterization.

The eta-AD property at the center says
mu(B_R \\ B_r) <= C (1 - r/R)^eta mu(B_R) for all 0 < r < R; eta-hat is
estimated by log-log regression over annulus families.  The 1-AD property
is equivalently a local Lipschitz bound rho f'(rho) <~ f(rho) on the
ball-volume function f, which we probe by central differences under grid
refinement, with jump detection that separates genuine atoms of the radial
measure from steep integrable singularities.  f is ``volume_profile``:
cumulative panel masses on radial and half-line spaces (see measure).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import InputError
from .measure import mu_annulus, mu_ball, volume_profile
from .spaces import AnnulusSpec, SpaceSpec

__all__ = [
    "AdFitReport",
    "OneAdReport",
    "ReverseDoublingReport",
    "ad_ratio",
    "fit_annulus_decay",
    "estimate_ad_exponent",
    "ad_ratio_trend",
    "check_one_ad",
    "check_reverse_doubling",
    "check_doubling",
]

# operational thresholds; the underlying comparability constants are
# qualitative, so verdicts rest on trends rather than magnitudes
SUP_TREND_UNBOUNDED = 0.1    # log2(sup) growth per grid refinement
JUMP_QUOTIENT_FACTOR = 32.0  # scale-aware outlier threshold
JUMP_MASS_SLOPE = -0.05      # log2(local increment) per refinement
TAIL_DECAY_SLOPE = -0.04     # log ratio per log rho at the far end
HEAD_BLOWUP_SLOPE = -0.5     # log ratio per log rho at the near end
HEAD_BLOWUP_LEVEL = 8.0      # ratio magnitude that counts as blowing up
REVERSE_DOUBLING_GAMMA = 1.2


@dataclass(frozen=True)
class AdFitReport:
    eta_hat: float
    constant_hat: float
    residual: float
    sample_count: int
    range: tuple[float, float]

    def to_json(self) -> str:
        return json.dumps({
            "eta_hat": f"{self.eta_hat:.17g}",
            "constant_hat": f"{self.constant_hat:.17g}",
            "residual": f"{self.residual:.17g}",
            "sample_count": self.sample_count,
            "range": [f"{self.range[0]:.17g}", f"{self.range[1]:.17g}"],
        }, sort_keys=True)


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

    def to_json(self) -> str:
        def num(x):
            return "inf" if math.isinf(x) else f"{x:.17g}"

        return json.dumps({
            "sup_ratio": num(self.sup_ratio),
            "inf_ratio": num(self.inf_ratio),
            "jump_detected": self.jump_detected,
            "lipschitz_bound": num(self.lipschitz_bound),
            "sup_trend_slope": num(self.sup_trend_slope),
            "tail_slope": num(self.tail_slope),
            "head_slope": num(self.head_slope),
            "condition_b": self.condition_b,
            "condition_d": self.condition_d,
        }, sort_keys=True)


@dataclass(frozen=True)
class ReverseDoublingReport:
    min_ratio: float
    max_ratio: float
    worst_r: float
    uniform: bool


def ad_ratio(space: SpaceSpec, ann: AnnulusSpec, eta: float) -> float:
    """mu(B_R \\ B_r) / ((1 - r/R)^eta mu(B_R)); the eta-AD property holds
    on a family iff this is uniformly bounded over it."""
    if not (eta > 0):
        raise InputError(f"need eta > 0, got {eta}")
    num = mu_annulus(space, ann)
    den = (1.0 - ann.r / ann.R) ** eta * mu_ball(space, ann.R)
    return num / den


def _loglog_fit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.ptp(x) < 1e-12:
        raise InputError("degenerate fit: zero variance in abscissa")
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.abs(y - (slope * x + intercept)).max())
    return float(slope), float(intercept), resid


def fit_annulus_decay(space: SpaceSpec, R: float, r_values) -> AdFitReport:
    """Least-squares fit of log(mu(ann)/mu(B_R)) against log(1 - r/R)
    for a fixed-R family; the slope estimates the decay exponent."""
    r_values = sorted(float(r) for r in r_values)
    if len(r_values) < 8:
        raise InputError(f"need >= 8 annuli per family, got {len(r_values)}")
    for r in r_values:
        if not (R / 2.0 <= r < R):
            raise InputError(f"annulus (r={r}, R={R}) is not thin")
    muR = mu_ball(space, R)
    xs, ys = [], []
    for r in r_values:
        xs.append(math.log(1.0 - r / R))
        ys.append(math.log(mu_annulus(space, AnnulusSpec(r, R)) / muR))
    slope, intercept, resid = _loglog_fit(xs, ys)
    return AdFitReport(eta_hat=slope, constant_hat=math.exp(intercept), residual=resid,
                       sample_count=len(r_values), range=(min(r_values), R))


def estimate_ad_exponent(space: SpaceSpec, families) -> AdFitReport:
    """Estimate the decay exponent of the space over one or more fixed-R
    families.

    The AD property quantifies over all annuli, so the space exponent is
    the worst (smallest) fitted slope across the declared families.
    """
    if isinstance(families, tuple) and len(families) == 2 and np.isscalar(families[0]):
        families = [families]
    reports = [fit_annulus_decay(space, R, rs) for R, rs in families]
    worst = min(reports, key=lambda rep: rep.eta_hat)
    return AdFitReport(
        eta_hat=worst.eta_hat,
        constant_hat=worst.constant_hat,
        residual=max(rep.residual for rep in reports),
        sample_count=sum(rep.sample_count for rep in reports),
        range=(min(rep.range[0] for rep in reports), max(rep.range[1] for rep in reports)),
    )


def ad_ratio_trend(space: SpaceSpec, annuli, eta: float):
    """Fitted slope of log ad_ratio against log(1 - r/R) over a family,
    plus the min/max ratio.  A negative slope means divergence as the
    annuli thin out; |slope| <= 0.05 and a bounded window mean the eta-AD
    inequality holds along the family."""
    xs, ratios = [], []
    for ann in annuli:
        xs.append(math.log(1.0 - ann.r / ann.R))
        ratios.append(ad_ratio(space, ann, eta))
    slope, _, _ = _loglog_fit(xs, np.log(ratios))
    return slope, min(ratios), max(ratios)


# ---------------------------------------------------------------------------
# 1-AD characterization via the ball-volume function

def check_one_ad(space: SpaceSpec, rho_range: tuple[float, float],
                 grid_size: int = 64, levels: int = 4) -> OneAdReport:
    """Probe rho f'(rho) / f(rho) by central differences on geometric grids
    at several refinements.

    A jump of f shows up as an outlier difference quotient whose local
    increment f(rho+h) - f(rho-h) does not shrink under refinement; an
    integrable power singularity produces outliers too, but its increment
    decays like h^eta and is therefore classified as steep, not atomic.
    """
    lo, hi = rho_range
    if not (0 < lo < hi):
        raise InputError(f"need 0 < lo < hi, got {rho_range}")
    if grid_size < 64:
        raise InputError(f"need grid_size >= 64, got {grid_size}")
    sups, infs, lips = [], [], []
    jump_masses = []
    finest = None
    for level in range(levels):
        rho = np.geomspace(lo, hi, grid_size * 2**level + 1)
        f = volume_profile(space, rho)
        quot = (f[2:] - f[:-2]) / (rho[2:] - rho[:-2])
        mid_rho, mid_f = rho[1:-1], f[1:-1]
        ratio = mid_rho * quot / mid_f
        sups.append(float(ratio.max()))
        infs.append(float(ratio.min()))
        lips.append(float(quot.max()))
        cands = np.flatnonzero(ratio > JUMP_QUOTIENT_FACTOR * np.median(ratio))
        if len(cands):
            jump_masses.append(float((f[2:] - f[:-2])[cands].max()))
        else:
            jump_masses.append(None)
        finest = (mid_rho, ratio)
    levels_idx = np.arange(levels)
    sup_slope, _, _ = _loglog_fit(levels_idx, np.log2(sups))
    jump = False
    if all(m is not None and m > 0 for m in jump_masses):
        mass_slope, _, _ = _loglog_fit(levels_idx, np.log2(jump_masses))
        jump = mass_slope > JUMP_MASS_SLOPE
    mid_rho, ratio = finest
    # Theil-Sen on the top quarter of the range: robust to the isolated
    # spikes a singularity or jump leaves in the difference quotients
    upper = slice(3 * len(mid_rho) // 4, None)
    tail_slope = float(stats.theilslopes(
        np.log(np.maximum(ratio[upper], 1e-300)), np.log(mid_rho[upper])
    ).slope)
    # a large ratio rising toward the near end of the range means the a.e.
    # bound M blows up as rho -> 0, which refinement alone cannot detect
    lower = slice(None, len(mid_rho) // 4)
    head_slope = float(stats.theilslopes(
        np.log(np.maximum(ratio[lower], 1e-300)), np.log(mid_rho[lower])
    ).slope)
    head_blowup = head_slope <= HEAD_BLOWUP_SLOPE and float(ratio[lower].max()) >= HEAD_BLOWUP_LEVEL
    condition_b = (not jump) and sup_slope < SUP_TREND_UNBOUNDED and not head_blowup
    # condition_d reports only the lower comparability rho f' >~ f; the full
    # two-sided statement is condition_b and condition_d
    condition_d = tail_slope > TAIL_DECAY_SLOPE and float(ratio.min()) > 0
    return OneAdReport(
        sup_ratio=math.inf if jump else float(ratio.max()),
        inf_ratio=float(ratio.min()),
        jump_detected=jump,
        lipschitz_bound=float(lips[-1]),
        sup_trend_slope=sup_slope,
        tail_slope=tail_slope,
        head_slope=head_slope,
        condition_b=condition_b,
        condition_d=condition_d,
    )


def check_reverse_doubling(space: SpaceSpec, tau: float, radii) -> ReverseDoublingReport:
    """min over the family of mu(B_{tau r}) / mu(B_r) and whether it stays
    uniformly above 1 (operationalized as >= 1.2)."""
    if not (tau > 1):
        raise InputError(f"need tau > 1, got {tau}")
    ratios = []
    for r in radii:
        ratios.append((mu_ball(space, tau * r) / mu_ball(space, r), r))
    worst, worst_r = min(ratios)
    best = max(q for q, _ in ratios)
    return ReverseDoublingReport(min_ratio=float(worst), max_ratio=float(best),
                                 worst_r=float(worst_r),
                                 uniform=worst >= REVERSE_DOUBLING_GAMMA)


def check_doubling(space: SpaceSpec, radii, bound: float = 100.0):
    """max over the family of mu(B_{2r}) / mu(B_r); bounded means doubling
    holds along the family."""
    worst = max(mu_ball(space, 2.0 * r) / mu_ball(space, r) for r in radii)
    return float(worst), worst <= bound
