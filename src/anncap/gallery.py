"""Canonical example spaces with their claimed behaviors.

Each constructor returns a GalleryEntry bundling the SpaceSpec (with traits
transcribed from known statements about the space, never derived here), its
sharpness claims, each a name and the runner that checks it, and the probe
families used to check them numerically.  verify_expectations checks the
declared decay exponent, 1-AD, doubling and reverse-doubling traits and runs
every claim, turning each into a PASS/FAIL row with evidence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundId, BoundSpec, _evaluate, blowup_probe, evaluate_bound, verify_envelope
from .decay import (
    _loglog_fit,
    ad_ratio_trend,
    check_one_ad,
    doubling_ratios,
    estimate_ad_exponent,
    fit_annulus_decay,
)
from .errors import ApplicabilityError
from .measure import _fill_measures, mu_family
from .spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, TraitSet
from .weights import BuckleyEta, Constant, HalfLineCatalog, HalfLineKind, SummedBuckley

__all__ = [
    "GalleryEntry",
    "ClaimVerdict",
    "make_rn_unweighted",
    "make_buckley",
    "make_summed_buckley",
    "make_bowtie",
    "make_snake",
    "make_halfline",
    "default_gallery",
    "verify_expectations",
    "gallery_manifest",
    "UNRESOLVED_CONFIGURATIONS",
]

AD_FIT_TOL = 0.1
TREND_TOL = 0.05
DOUBLING_BOUND = 100.0        # largest mu(B_2r) / mu(B_r) that counts as bounded
REVERSE_DOUBLING_GAMMA = 1.2  # smallest mu(B_2r) / mu(B_r) that counts as uniformly above 1

# No counterexample is known showing that weakening the 1-Poincare
# hypothesis of the nice-case estimate to a q-Poincare inequality for every
# q > 1 breaks the two-sided bound; the configuration is exposed here but
# never asserted either way.
UNRESOLVED_CONFIGURATIONS = (
    {
        "configuration": "two-sided-nice under q-Poincare for all q > 1 (no q = 1)",
        "space": "bow-tie with n + alpha = 1 approached from above",
        "status": "UNRESOLVED",
    },
)


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    space: SpaceSpec
    pi_sharp_q: str                   # the sharp Poincare statement, for the manifest
    claims: tuple = ()                # sharpness claims, each (name, runner)
    # probe families for the generic checks
    ad_families: tuple = ()           # ((R, (r, ...)), ...)
    none_probe: tuple = ()            # annuli on which ad_ratio(eta=0.1) must diverge
    one_ad_range: tuple | None = None
    check_radii: tuple = ()           # doubling / reverse-doubling radii


@dataclass(frozen=True)
class ClaimVerdict:
    claim: str
    status: str  # PASS | FAIL
    evidence: str


def _thin_family(R, j_hi=12):
    return tuple(R * (1.0 - 2.0**-j) for j in range(2, j_hi + 1))


def _thin_annuli(R, j_hi=12):
    return [AnnulusSpec(r, R) for r in _thin_family(R, j_hi)]


# The traits of unweighted R^n.  Every space but the half-lines is declared
# by how it departs from them.
_RN_TRAITS = TraitSet(pi_exponents=frozenset({1.0}), pi_global=True, doubling=True,
                      globally_doubling=True, reverse_doubling=True, corkscrew=True, ad_eta=1.0)


# the doubling probes' radii of each maker, fixed: built once, not per query
_A1_CHECK_RADII = tuple(np.geomspace(0.05, 8.0, 12))
_BOWTIE_CHECK_RADII = tuple(np.geomspace(0.05, 1.2, 8))
_SNAKE_CHECK_RADII = tuple(np.geomspace(0.5, 256.0, 12))
_HALFLINE_CHECK_RADII = {
    HalfLineKind.MIN_ONE_OVER_X: tuple(np.geomspace(4.0, 512.0, 12)),
    HalfLineKind.EXP_DECAY: tuple(np.geomspace(0.5, 64.0, 12)),
    HalfLineKind.EXP_INV_OVER_X_SQ: tuple(np.geomspace(0.02, 1.0, 12)),
}


def _a1_entry(name, geometry, weight, eta, pi_sharp_q, claims, one_ad_range) -> GalleryEntry:
    """R^n with an A_1 weight of decay exponent eta (the constant weight has
    eta = 1): the traits of unweighted R^n but for ad_eta, and the same probe
    families."""
    space = SpaceSpec(geometry, weight, traits=replace(_RN_TRAITS, ad_eta=eta), name=name)
    return GalleryEntry(
        name=name, space=space, pi_sharp_q=pi_sharp_q, claims=claims,
        ad_families=((1.0, _thin_family(1.0)), (4.0, _thin_family(4.0))),
        one_ad_range=one_ad_range,
        check_radii=_A1_CHECK_RADII,
    )


_A1_PI = "q-Poincare inequality for every q >= 1 (A_1 weight)"


def make_rn_unweighted(n: int = 2) -> GalleryEntry:
    return _a1_entry(f"rn-unweighted-{n}", RadialRn(n), Constant(), 1.0,
                     "q-Poincare inequality for every q >= 1",
                     (("nice-case-envelope", _claim_nice_case_holds),), (0.25, 4.0))


def make_buckley(eta: float, n: int = 1) -> GalleryEntry:
    return _a1_entry(f"buckley-{eta}", RadialRn(n), BuckleyEta(eta), eta, _A1_PI,
                     (("upper-eta-sharp", _claim_upper_eta_sharp),
                      ("nice-case-fails", _claim_nice_case_fails)), (0.25, 4.0))


DEFAULT_SUMMED_TERMS = ((1.0, 1.0), (2.0, 0.5), (4.0, 0.25))


def make_summed_buckley(eta: float) -> GalleryEntry:
    return _a1_entry(f"summed-buckley-{eta}", RadialRn(1),
                     SummedBuckley(eta, DEFAULT_SUMMED_TERMS), eta, _A1_PI,
                     (("eta-ad-at-singularities", _claim_summed_eta_ad),), (0.1, 4.0))


def make_bowtie(alpha: float, n: int = 2) -> GalleryEntry:
    geometry = BowTie(n, alpha)  # refuses alpha <= -n before TraitSet checks ad_eta
    m = n + alpha
    claims = (("measure-exponent", _claim_bowtie_measure_exponent),
              ("cap-degenerates", _claim_bowtie_cap_degenerates))
    # a q-Poincare inequality for q > m, and for q = 1 when m <= 1
    pi = _RN_TRAITS.pi_exponents if m <= 1.0 else frozenset()
    traits = replace(_RN_TRAITS, pi_exponents=pi, pi_open_infimum=m, ad_eta=min(1.0, m))
    space = SpaceSpec(geometry, traits=traits, name=f"bowtie-{n}d-alpha-{alpha}")
    return GalleryEntry(
        name=space.name, space=space,
        pi_sharp_q=f"q-Poincare inequality iff q > {m} or q = 1 >= {m}",
        claims=claims if m > 1.0 else claims[:1],
        ad_families=((1.0, _thin_family(1.0, 10)), (2.0, _thin_family(2.0, 10))),
        one_ad_range=None,  # a quadrature per ball volume; probed only on demand
        check_radii=_BOWTIE_CHECK_RADII,
    )


def make_snake() -> GalleryEntry:
    # thin annuli reduce to a single path: no corkscrew, no annular decay
    traits = replace(_RN_TRAITS, corkscrew=False, ad_eta=None)
    space = SpaceSpec(Snake(), traits=traits, name="snake")
    k = 5
    none_probe = tuple(AnnulusSpec(2.0**k - 2.0**-j, 2.0**k + 2.0**-j) for j in range(1, 9))
    return GalleryEntry(
        name=space.name, space=space,
        pi_sharp_q="1-Poincare inequality (bi-Lipschitz to a half-line)",
        claims=(("no-ad", _claim_snake_no_ad), ("lower-p-base-sharp", _claim_snake_lower_base),
                ("corkscrew-gating", _claim_snake_corkscrew_gate)),
        # a fixed-R family inside the segment (32, 64), away from the jumps
        ad_families=((48.0, _thin_family(48.0)),),
        none_probe=none_probe,
        one_ad_range=(1.5, 64.0),
        check_radii=_SNAKE_CHECK_RADII,
    )


def make_halfline(kind: HalfLineKind) -> GalleryEntry:
    weight = HalfLineCatalog(kind)
    traits = TraitSet(pi_exponents=frozenset({1.0}), doubling=True, ad_eta=1.0)
    none_probe = ()
    if weight.kind is HalfLineKind.MIN_ONE_OVER_X:
        claims = (("measure-lower-q-fails", _claim_measure_lower_q_fails),
                  ("condition-d-fails", _claim_condition_d_fails))
        families = ((64.0, _thin_family(64.0)), (512.0, _thin_family(512.0)))
        one_ad_range = (2.0, 100.0)
    elif weight.kind is HalfLineKind.EXP_DECAY:
        claims = (("condition-d-fails", _claim_condition_d_fails),)
        # small R keeps e^{Rt} curvature out of the exponent fit
        families = ((0.5, _thin_family(0.5)), (8.0, _thin_family(8.0)))
        one_ad_range = (0.1, 30.0)
    else:  # EXP_INV_OVER_X_SQ
        traits = TraitSet(pi_exponents=frozenset({1.0}), doubling=False,
                          reverse_doubling=True, ad_eta=None)
        claims = (("doubling-fails", _claim_doubling_fails),)
        families = ((0.4, _thin_family(0.4)),)
        one_ad_range = (0.02, 2.0)
        # eta-AD fails as R -> 0 along annuli with 1 - r/R = R; stop before
        # mu(B_R) = e^{-1/R} underflows
        none_probe = tuple(AnnulusSpec(R * (1.0 - R), R) for R in (2.0**-j for j in range(2, 8)))
    space = SpaceSpec(HalfLine(), weight, traits=traits, name=f"halfline-{weight.kind.value}")
    return GalleryEntry(
        name=space.name, space=space, pi_sharp_q="1-Poincare inequality at the origin",
        claims=claims, ad_families=families, none_probe=none_probe, one_ad_range=one_ad_range,
        check_radii=_HALFLINE_CHECK_RADII[weight.kind],
    )


def default_gallery() -> tuple[GalleryEntry, ...]:
    return (
        make_rn_unweighted(2),
        make_buckley(0.5),
        make_summed_buckley(0.5),
        make_bowtie(-0.5),
        make_bowtie(0.5),
        make_snake(),
        make_halfline(HalfLineKind.MIN_ONE_OVER_X),
        make_halfline(HalfLineKind.EXP_DECAY),
        make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ),
    )


# ---------------------------------------------------------------------------
# claim runners

class _Probes:
    """The probe results that more than one check of an entry reads, for one
    verify_expectations call: each is computed by the first check that asks
    for it."""

    def __init__(self, entry: GalleryEntry):
        self.entry = entry
        # the measures that the decay fits and trends read, each interval
        # computed once
        self.balls = {}

    @functools.cached_property
    def buckley_envelope(self):
        """The nice-case envelope at p = 2, whatever the hypotheses."""
        return _nice_envelope(self.entry.space, 2.0, 10, False)

    @functools.cached_property
    def none_trend(self):
        """ad_ratio_trend at eta = 0.1 over the none_probe annuli."""
        return ad_ratio_trend(self.entry.space, self.entry.none_probe, eta=0.1,
                              measures=self.balls)

    @functools.cached_property
    def one_ad(self):
        """check_one_ad over the entry's one_ad_range."""
        return check_one_ad(self.entry.space, self.entry.one_ad_range)

    @functools.cached_property
    def doubling(self):
        """doubling_ratios over the entry's check_radii."""
        return doubling_ratios(self.entry.space, self.entry.check_radii)


def _ad_exponent_check(entry: GalleryEntry, probes: _Probes):
    eta = entry.space.traits.ad_eta
    if eta is None:
        slope, ratios = probes.none_trend
        ok = slope <= -TREND_TOL
        return ok, (f"ad_ratio(eta=0.1) trend slope {slope:.3f}; "
                    f"ratio window [{min(ratios):.3g}, {max(ratios):.3g}]")
    rep = estimate_ad_exponent(entry.space, entry.ad_families, measures=probes.balls)
    ok = abs(rep.eta_hat - eta) <= AD_FIT_TOL
    return ok, f"eta_hat {rep.eta_hat:.4f} vs claimed {eta} (residual {rep.residual:.3g})"


def _one_ad_check(entry: GalleryEntry, probes: _Probes):
    claimed = entry.space.traits.ad_eta == 1.0
    rep = probes.one_ad
    return rep.condition_b == claimed, (
        f"condition_b {rep.condition_b} (claimed {claimed}); "
        f"jump {rep.jump_detected}, sup trend {rep.sup_trend_slope:.3f}")


def _doubling_check(entry: GalleryEntry, probes: _Probes):
    claimed = entry.space.traits.doubling
    worst = max(probes.doubling.tolist())
    bounded = worst <= DOUBLING_BOUND
    return bounded == claimed, f"max doubling ratio {worst:.4g}; bounded {bounded} (claimed {claimed})"


def _reverse_doubling_check(entry: GalleryEntry, probes: _Probes):
    # the least (ratio, r) over the radii whose doubled ball lies in the space
    pairs = zip(probes.doubling.tolist(), entry.check_radii)
    worst, worst_r = min((ratio, r) for ratio, r in pairs if 2.0 * r <= entry.space.diameter)
    uniform = worst >= REVERSE_DOUBLING_GAMMA
    claimed = entry.space.traits.reverse_doubling
    return uniform == claimed, (f"min ratio {worst:.4g} at r={worst_r:.4g}; "
                                f"uniform {uniform} (claimed {claimed})")


def _cap_slope(rep):
    """Fitted slope of log cap against log(1 - r/R) over a sweep's rows."""
    xs = [math.log(1.0 - r / R) for r, R, *_ in rep.rows]
    return _loglog_fit(xs, [math.log(row[2]) for row in rep.rows])[0]


def _nice_envelope(space, p, j_hi, check_hypotheses):
    """The two-sided nice-case envelope of the capacity at p over the annuli
    (1 - 2^-j, 1), j = 2..j_hi."""
    return verify_envelope(space, BoundSpec(BoundId.TWO_SIDED_NICE, p),
                           _thin_annuli(1.0, j_hi), check_hypotheses)


def _ad_bounded(space, annuli, eta, measures=None):
    # (bounded, trend slope) of ad_ratio as the annuli thin; boundedness is
    # one-sided: a positive slope means the ratio shrinks, consistent with eta-AD
    slope, ratios = ad_ratio_trend(space, annuli, eta, measures)
    return slope >= -TREND_TOL and max(ratios) <= 1e3 * min(ratios), slope


def _pinch_probe(space, p):
    """blowup_probe of the capacity at the bow-tie tip over delta = 2^-j,
    j = 2..9; the capacity degenerates iff the verdict is NO-BLOWUP with
    every value 0."""
    rep = blowup_probe(space, p, 1.0, [2.0**-j for j in range(2, 10)], check_hypotheses=False)
    return rep.verdict == "NO-BLOWUP" and all(v == 0.0 for v in rep.values), rep


def _claim_upper_eta_sharp(entry, probes):
    """cap(B_r, B_1) ~ (1-r)^(eta-p): the eta-decay upper bound is attained."""
    eta = entry.space.weight.eta
    p = 2.0
    slope = _cap_slope(probes.buckley_envelope)
    ok = abs(slope - (eta - p)) <= TREND_TOL
    return ok, f"capacity slope {slope:.4f} vs claimed eta - p = {eta - p}"


def _claim_nice_case_fails(entry, probes):
    """The nice-case envelope FAILs with trend slope eta-1."""
    eta = entry.space.weight.eta
    rep = probes.buckley_envelope
    ok = rep.verdict == "FAIL" and abs(rep.slope - (eta - 1.0)) <= TREND_TOL
    return ok, f"envelope {rep.verdict}, slope {rep.slope:.4f} vs claimed eta - 1 = {eta - 1.0}"


def _claim_nice_case_holds(entry, probes):
    """The two-sided nice-case estimate holds."""
    p = 2.0
    rep = _nice_envelope(entry.space, p, 10, True)
    return rep.verdict == "PASS", f"envelope {rep.verdict}, slope {rep.slope:.4f}"


def _claim_summed_eta_ad(entry, probes):
    """The eta-AD ratio is bounded along each singular radius 1/q_j."""
    eta = entry.space.weight.eta
    ok_all, notes = True, []
    for q, _ in entry.space.weight.terms:
        R = 1.0 / q
        ok, slope = _ad_bounded(entry.space, _thin_annuli(R, 10), eta, probes.balls)
        ok_all = ok_all and ok
        notes.append(f"R={R:g}: slope {slope:.3f}")
    return ok_all, "; ".join(notes)


def _claim_bowtie_measure_exponent(entry, probes):
    """mu(B_1 \\ B_r) ~ (1-r)^(n+alpha) at the tip."""
    m = entry.space.geometry.n + entry.space.geometry.alpha
    rep = fit_annulus_decay(entry.space, 1.0, _thin_family(1.0, 10), probes.balls)
    ok = abs(rep.eta_hat - m) <= AD_FIT_TOL
    return ok, f"raw exponent fit {rep.eta_hat:.4f} vs n + alpha = {m}"


def _claim_bowtie_cap_degenerates(entry, probes):
    """The capacity of (1-delta, 1) vanishes at p = n+alpha."""
    p = entry.space.geometry.n + entry.space.geometry.alpha
    ok, rep = _pinch_probe(entry.space, p)
    return ok, f"probe {rep.verdict}; max capacity {max(rep.values):.3g} at p = {p}"


def _claim_snake_no_ad(entry, probes):
    """ad_ratio diverges for every positive eta as delta -> 0."""
    slope, ratios = probes.none_trend
    lo, hi = min(ratios), max(ratios)
    ok = slope <= -TREND_TOL and hi > lo
    return ok, f"ad_ratio(eta=0.1) slope {slope:.3f}; grows {hi / lo:.3g}x over the probe"


def _claim_snake_lower_base(entry, probes):
    """cap ~ mu(B_R)/R^p: the base lower bound is attained."""
    p = 2.0
    k = 6
    spec = BoundSpec(BoundId.LOWER_P_BASE, p)
    annuli = [AnnulusSpec(2.0**k - 2.0**-j, 2.0**k + 2.0**-j) for j in range(0, 9)]
    rep = verify_envelope(entry.space, spec, annuli)
    return rep.verdict == "PASS", f"envelope {rep.verdict}, ratios [{rep.min_ratio:.3g}, {rep.max_ratio:.3g}]"


def _claim_snake_corkscrew_gate(entry, probes):
    """The two-sided annular bound refuses to apply: corkscrew fails."""
    spec = BoundSpec(BoundId.TWO_SIDED_ANNULAR, 2.0)
    ann = AnnulusSpec(31.0, 33.0)
    try:
        evaluate_bound(spec, entry.space, ann)
    except ApplicabilityError as exc:
        ok = "corkscrew" in str(exc)
        return ok, f"raised ApplicabilityError({exc})"
    return False, "bound evaluated despite the failed corkscrew hypothesis"


def _claim_measure_lower_q_fails(entry, probes):
    """The q-decay measure lower bound fails: no reverse-doubling."""
    spec = BoundSpec(BoundId.MEASURE_LOWER_Q, p=2.0, q=1.0)
    annuli = [AnnulusSpec(R / 2.0, R) for R in (16.0, 256.0, 4096.0)]
    measures = _fill_measures(entry.space, {},
                              [iv for ann in annuli for iv in ((0.0, ann.R), (ann.r, ann.R))])
    ratios = []
    for ann in annuli:
        try:
            evaluate_bound(spec, entry.space, ann)
            return False, f"bound applied at R={ann.R} despite missing reverse-doubling"
        except ApplicabilityError as exc:
            if "reverse-doubling" not in str(exc):
                return False, f"gated on the wrong hypothesis: {exc}"
        bound = _evaluate(spec, ann, measures)
        ratios.append(measures[ann.r, ann.R] / bound)
    # decay is logarithmic in R, so test the total drop
    ok = all(b < a for a, b in zip(ratios, ratios[1:])) and ratios[-1] <= ratios[0] / 2.0
    return ok, f"mu(ann)/bound along R: {', '.join(f'{x:.4g}' for x in ratios)} (decreasing to 0)"


def _claim_condition_d_fails(entry, probes):
    """rho f'(rho) is not comparable to f(rho) from below."""
    rep = probes.one_ad
    ok = rep.condition_b and not rep.condition_d
    return ok, f"condition_b {rep.condition_b}, condition_d {rep.condition_d}, tail slope {rep.tail_slope:.3f}"


def _claim_doubling_fails(entry, probes):
    """mu(B_{3R/4})/mu(B_R) -> 0 as R -> 0."""
    balls = mu_family(entry.space, [(0.0, rho) for R in (0.4, 0.2, 0.1, 0.05)
                                    for rho in (0.75 * R, R)])
    ratios = [a / b for a, b in zip(balls[::2], balls[1::2])]
    ok = all(b < a for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 1e-2
    return ok, f"mu(B_3R/4)/mu(B_R) along R -> 0: {', '.join(f'{x:.3g}' for x in ratios)}"


def verify_expectations(entry: GalleryEntry) -> list[ClaimVerdict]:
    """Check the entry's declared decay exponent, 1-AD (when it has a
    one_ad_range), doubling and reverse-doubling traits, then run each of
    its claims."""
    probes = _Probes(entry)
    checks = [
        ("ad-exponent", _ad_exponent_check),
        ("doubling", _doubling_check),
        ("reverse-doubling", _reverse_doubling_check),
    ]
    if entry.one_ad_range is not None:
        checks.append(("one-ad", _one_ad_check))
    verdicts = []
    for claim, runner in (*checks, *entry.claims):
        ok, evidence = runner(entry, probes)
        verdicts.append(ClaimVerdict(claim, "PASS" if ok else "FAIL", evidence))
    return verdicts


def gallery_manifest() -> dict:
    """The gallery's spaces, traits and claims, as plain values for listing."""
    rows = []
    for e in default_gallery():
        t = e.space.traits
        rows.append({
            "name": e.name,
            "geometry": type(e.space.geometry).__name__,
            "weight": type(e.space.weight).__name__,
            "expected": {
                "ad_eta": t.ad_eta,
                "one_ad": t.ad_eta == 1.0,
                "reverse_doubling": t.reverse_doubling,
                "doubling": t.doubling,
                "pi_sharp_q": e.pi_sharp_q,
            },
            "claims": [claim for claim, _ in e.claims],
        })
    return {"spaces": rows, "unresolved": list(UNRESOLVED_CONFIGURATIONS)}
