"""Bound expressions from the two-sided capacity estimates, envelope
verification over annulus families, and the blowup probe.

Each bound is evaluated with constant 1; all comparability constants are
absorbed into the envelope verdicts, which test boundedness of the
cap/bound ratio and absence of a trend in log-log coordinates.

``BOUND_TABLE`` holds every bound in one row: its hypotheses in the order
they are checked, the one measure it reads (mu(B_R), mu(B_r) or mu(ann))
and its expression.  ``verify_envelope`` computes the family's measures in
one ``_measure_family`` call: mu(B_R) once per distinct R, mu(B_r) once per
distinct r and mu(ann) once per annulus, and its capacities in one call.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .capacity import cap_values
from .decay import _loglog_fit
from .errors import ApplicabilityError, DomainError, InputError
from .measure import _fill_measures
from .spaces import AnnulusSpec, SpaceSpec

__all__ = [
    "BoundId",
    "BOUND_TABLE",
    "BoundSpec",
    "evaluate_bound",
    "SweepReport",
    "verify_envelope",
    "BlowupReport",
    "blowup_probe",
]

RATIO_WINDOW = (1e-3, 1e3)
TREND_TOL = 0.05
UPPER_SLACK = 1e-8  # constant-free upper bounds only


class BoundId(enum.Enum):
    UPPER_SIMPLE = "upper-simple"
    UPPER_ETA = "upper-eta"
    LOWER_PI_AD = "lower-pi-ad"
    LOWER_P_BASE = "lower-p-base"
    TWO_SIDED_NICE = "two-sided-nice"
    TWO_SIDED_ANNULAR = "two-sided-annular"
    LOWER_CORKSCREW_Q = "lower-corkscrew-q"
    LOWER_P1_NO_DOUBLING = "lower-p1-no-doubling"
    MEASURE_LOWER_Q = "measure-lower-q"


@dataclass(frozen=True)
class BoundSpec:
    bound_id: BoundId
    p: float
    eta: float | None = None
    q: float | None = None

    def __post_init__(self):
        if not (self.p >= 1):
            raise InputError(f"need p >= 1, got {self.p}")
        needs_eta = self.bound_id in (BoundId.UPPER_ETA, BoundId.LOWER_PI_AD)
        if needs_eta and (self.eta is None or not 0 < self.eta <= 1):
            raise InputError(f"{self.bound_id.value} needs eta in (0, 1]")
        needs_q = self.bound_id in (
            BoundId.LOWER_PI_AD, BoundId.LOWER_CORKSCREW_Q, BoundId.MEASURE_LOWER_Q
        )
        if needs_q and (self.q is None or not self.q >= 1):
            raise InputError(f"{self.bound_id.value} needs q >= 1")


# Hypothesis checks: (the name a failure reports, holds(spec, space, ann)).
_Q_RANGE = ("1 <= q < p", lambda s, sp, a: 1 <= s.q < s.p)
_PI_Q = ("q-Poincare inequality at x0", lambda s, sp, a: sp.traits.supports_pi(s.q))
_PI_P = ("p-Poincare inequality at x0", lambda s, sp, a: sp.traits.supports_pi(s.p))
_PI_1 = ("1-Poincare inequality at x0", lambda s, sp, a: sp.traits.supports_pi(1.0))
_AD_ETA = ("eta-annular-decay declared", lambda s, sp, a: sp.traits.ad_eta is not None
           and not s.eta > sp.traits.ad_eta + 1e-12)
_AD_1 = ("1-annular-decay declared", lambda s, sp, a: sp.traits.ad_eta is not None
         and not sp.traits.ad_eta < 1.0 - 1e-12)
_DOUBLING = ("doubling at x0", lambda s, sp, a: sp.traits.doubling)
_REVERSE_DOUBLING = ("reverse-doubling at x0", lambda s, sp, a: sp.traits.reverse_doubling)
_THIN = ("thin annulus (R/2 <= r)", lambda s, sp, a: a.is_thin)
# tau = 2, the reverse-doubling factor; vacuous for unbounded spaces (diam X = inf)
_RADIUS_CAP = ("R <= diam X / 2 tau", lambda s, sp, a: not a.R > sp.diameter / 4.0)
_ANNULAR = (
    ("globally doubling", lambda s, sp, a: sp.traits.globally_doubling),
    ("global p-Poincare inequality",
     lambda s, sp, a: sp.traits.pi_global and sp.traits.supports_pi(s.p)),
    ("corkscrew condition (constant a)", lambda s, sp, a: sp.traits.corkscrew),
    _THIN,
)
_LOCAL = (_REVERSE_DOUBLING, _THIN, _RADIUS_CAP)

@dataclass(frozen=True)
class _Bound:
    hypotheses: tuple  # checked in order; the first failure is reported
    measure: Callable[[AnnulusSpec], tuple]  # the (r, R) of the measure it reads, r = 0 a ball
    expression: Callable[..., float]  # (spec, ann, t = 1 - r/R, mu), mu that measure


def _ball_R(a):
    return 0.0, a.R


def _ball_r(a):
    return 0.0, a.r


def _annulus(a):
    return a.r, a.R


BOUND_TABLE = {
    BoundId.UPPER_SIMPLE: _Bound((), _annulus, lambda s, a, t, mu: mu / a.delta**s.p),
    BoundId.UPPER_ETA: _Bound(
        (_AD_ETA,), _ball_R, lambda s, a, t, mu: t ** (s.eta - s.p) * mu / a.R**s.p),
    BoundId.LOWER_PI_AD: _Bound(
        (_Q_RANGE, _PI_Q, _AD_ETA) + _LOCAL, _ball_R,
        lambda s, a, t, mu: t ** (s.eta * (s.q - s.p) / s.q) * mu / a.R**s.p),
    BoundId.LOWER_P_BASE: _Bound(
        (_PI_P, _DOUBLING) + _LOCAL, _ball_R, lambda s, a, t, mu: mu / a.R**s.p),
    BoundId.TWO_SIDED_NICE: _Bound(
        (_PI_1, _AD_1) + _LOCAL, _ball_R,
        lambda s, a, t, mu: t ** (1.0 - s.p) * mu / a.R**s.p),
    BoundId.TWO_SIDED_ANNULAR: _Bound(_ANNULAR, _annulus,
                                      lambda s, a, t, mu: mu / a.delta**s.p),
    BoundId.LOWER_CORKSCREW_Q: _Bound(
        _ANNULAR + (_Q_RANGE, _PI_Q), _ball_R,
        lambda s, a, t, mu: t ** (s.q - s.p) * mu / a.R**s.p),
    BoundId.LOWER_P1_NO_DOUBLING: _Bound(
        (("p = 1", lambda s, sp, a: s.p == 1), _PI_1) + _LOCAL, _ball_r,
        lambda s, a, t, mu: mu / a.r),
    BoundId.MEASURE_LOWER_Q: _Bound(
        (_PI_Q, _DOUBLING) + _LOCAL, _ball_R, lambda s, a, t, mu: t**s.q * mu),
}


def _check_hypotheses(spec: BoundSpec, space: SpaceSpec, ann: AnnulusSpec):
    """Raise ApplicabilityError naming the bound's first hypothesis that
    fails on ann."""
    for name, holds in BOUND_TABLE[spec.bound_id].hypotheses:
        if not holds(spec, space, ann):
            raise ApplicabilityError(name)


def _evaluate(spec: BoundSpec, ann: AnnulusSpec, measures: dict) -> float:
    row = BOUND_TABLE[spec.bound_id]
    try:
        return row.expression(spec, ann, 1.0 - ann.r / ann.R, measures[row.measure(ann)])
    except ArithmeticError:  # R**p or r underflows, or a power overflows
        raise DomainError(f"{spec.bound_id.value} leaves the float range on annulus "
                          f"(r={ann.r}, R={ann.R})") from None


def evaluate_bound(spec: BoundSpec, space: SpaceSpec, ann: AnnulusSpec,
                   check_hypotheses: bool = True) -> float:
    """Value of the bound expression with constant 1.

    With check_hypotheses=True (the default) a violated hypothesis raises
    ApplicabilityError naming it; passing False evaluates the bare
    expression, which is how counterexamples are demonstrated.
    """
    if check_hypotheses:
        _check_hypotheses(spec, space, ann)
    measure = BOUND_TABLE[spec.bound_id].measure(ann)
    return _evaluate(spec, ann, _fill_measures(space, {}, [measure]))


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepReport:
    rows: tuple  # (r, R, cap, bound, ratio)
    slope: float
    min_ratio: float
    max_ratio: float
    verdict: str  # PASS | FAIL


def verify_envelope(space: SpaceSpec, spec: BoundSpec, annuli,
                    check_hypotheses: bool = True) -> SweepReport:
    """Ratio cap/bound per annulus; PASS means the ratios sit inside
    [1e-3, 1e3] with no log-log trend (|slope| <= 0.05).

    When gated, every annulus's hypotheses are checked before any measure
    or capacity is computed.  Then the bound's measures are one
    _measure_family call and the capacities at spec.p one cap_values call,
    each raising the first annulus's error in order.  The constant-free
    UpperSimple bound must additionally dominate the capacity outright
    (ratio <= 1 + 1e-8).
    """
    annuli = list(annuli)
    if len(annuli) < 8:
        raise InputError(f"need >= 8 applicable annuli, got {len(annuli)}")
    if check_hypotheses:
        for ann in annuli:
            _check_hypotheses(spec, space, ann)
    rows, xs = [], []
    measures = _fill_measures(space, {},
                              [BOUND_TABLE[spec.bound_id].measure(ann) for ann in annuli])
    for ann, cap in zip(annuli, cap_values(space, spec.p, annuli)):
        bound = _evaluate(spec, ann, measures)
        if bound == 0.0:
            raise DomainError(f"{spec.bound_id.value} is 0 on annulus (r={ann.r}, R={ann.R}); "
                              "no cap/bound ratio")
        rows.append((ann.r, ann.R, cap.value, bound, cap.value / bound))
        xs.append(math.log(1.0 - ann.r / ann.R))
    ratios = np.array([row[4] for row in rows])
    if np.any(ratios <= 0):
        slope = -math.inf  # degenerate capacity along the family
    else:
        slope = _loglog_fit(xs, np.log(ratios))[0]
    lo, hi = float(ratios.min()), float(ratios.max())
    ok = RATIO_WINDOW[0] <= lo and hi <= RATIO_WINDOW[1] and abs(slope) <= TREND_TOL
    if spec.bound_id is BoundId.UPPER_SIMPLE:
        ok = ok and hi <= 1.0 + UPPER_SLACK
    return SweepReport(rows=tuple(rows), slope=slope, min_ratio=lo, max_ratio=hi,
                       verdict="PASS" if ok else "FAIL")


@dataclass(frozen=True)
class BlowupReport:
    deltas: tuple
    values: tuple
    verdict: str  # BLOWUP | NO-BLOWUP


def blowup_probe(space: SpaceSpec, p: float, R: float, deltas,
                 check_hypotheses: bool = True) -> BlowupReport:
    """cap_p(B_{R-delta}, B_R) along a decreasing delta sequence, from one
    cap_values call, as verify_envelope reads it.

    BLOWUP requires strictly increasing values whose final/initial ratio
    reaches 10^3; identically-zero capacities report NO-BLOWUP (the
    degenerate counterexample case).  Fewer than two distinct deltas, a
    failed hypothesis (when gated) and a delta that gives no annulus are
    refused before any capacity is computed.
    """
    deltas = sorted((float(d) for d in deltas), reverse=True)  # shrinking toward 0
    if len(set(deltas)) < 2:
        raise InputError(f"degenerate fit: need two distinct deltas, got {deltas}")
    if check_hypotheses:
        # supports_pi is monotone in q: some q in [1, p) has a q-Poincare
        # inequality iff the largest float below p does
        q = math.nextafter(p, 0.0)
        if not (q >= 1 and space.traits.supports_pi(q)):
            raise ApplicabilityError("q-Poincare inequality at x0 with 1 <= q < p")
        if not math.isinf(space.diameter) and R >= space.diameter:
            raise ApplicabilityError("mu(X \\ B_R) > 0")
    annuli = [AnnulusSpec(R - d, R) for d in deltas]
    values = [cap.value for cap in cap_values(space, p, annuli)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    blow = increasing and values[0] > 0 and values[-1] / values[0] >= 1e3
    return BlowupReport(tuple(deltas), tuple(values), "BLOWUP" if blow else "NO-BLOWUP")
