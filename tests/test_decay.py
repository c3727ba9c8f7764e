import collections
import math

import pytest

from anncap import measure
from anncap.decay import (
    ad_ratio,
    ad_ratio_trend,
    check_one_ad,
    doubling_ratios,
    estimate_ad_exponent,
    fit_annulus_decay,
)
from anncap.errors import AnncapError, DomainError, InputError, QuadratureError
from anncap.gallery import (AD_FIT_TOL, DOUBLING_BOUND, REVERSE_DOUBLING_GAMMA, _thin_annuli,
                            _thin_family, make_bowtie, make_buckley, make_halfline, make_snake)
from anncap.measure import mu_annulus, mu_ball
from anncap.spaces import AnnulusSpec, RadialRn, SpaceSpec
from anncap.weights import Constant, HalfLineKind

RN2 = SpaceSpec(RadialRn(2), Constant())
RN3 = SpaceSpec(RadialRn(3), Constant())


def test_ad_ratio_exact():
    # mu(ann(R/2, R)) / ((1/2) mu(B_R)) = (3/4) / (1/2) = 3/2 in R^2
    assert ad_ratio(RN2, AnnulusSpec(1.0, 2.0), 1.0) == pytest.approx(1.5, rel=1e-10)
    with pytest.raises(InputError):
        ad_ratio(RN2, AnnulusSpec(1.0, 2.0), 0.0)


def test_fit_annulus_decay_rn():
    rep = fit_annulus_decay(RN2, 1.0, [1.0 - 2.0**-j for j in range(2, 12)])
    assert rep.eta_hat == pytest.approx(1.0, abs=0.02)
    assert rep.sample_count == 10


def test_fit_annulus_decay_buckley():
    space = make_buckley(0.4).space
    rep = fit_annulus_decay(space, 1.0, [1.0 - 2.0**-j for j in range(2, 12)])
    assert rep.eta_hat == pytest.approx(0.4, abs=0.05)


def test_fit_rejects_bad_families():
    with pytest.raises(InputError):
        fit_annulus_decay(RN2, 1.0, [0.9] * 3)  # too few
    with pytest.raises(InputError):
        fit_annulus_decay(RN2, 1.0, [0.1] + [1.0 - 2.0**-j for j in range(2, 10)])


def test_fit_of_a_zero_measure_annulus_is_a_domain_error():
    # mu(B_R) = e^(-1/R) underflows to 0 on the thin annuli at R = 1e-3
    space = make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ).space
    with pytest.raises(DomainError, match=r"annulus \(r=0\.00075, R=0\.001\) has measure 0\.0"):
        fit_annulus_decay(space, 1e-3, [1e-3 * (1.0 - 2.0**-j) for j in range(2, 11)])


def test_bowtie_3d_thin_annulus_fit():
    # mu(B_1 \ B_{1-t}) ~ t^(n + alpha) on the n = 3 bow-tie, down to t = 2^-10
    space = make_bowtie(0.5, n=3).space
    rs = [1.0 - 2.0**-j for j in range(2, 11)]
    assert all(measure.mu_annulus(space, AnnulusSpec(r, 1.0)) > 0.0 for r in rs)
    rep = fit_annulus_decay(space, 1.0, rs)
    assert abs(rep.eta_hat - 3.5) <= AD_FIT_TOL


def test_estimate_ad_exponent_takes_worst_family():
    families = ((1.0, tuple(1.0 - 2.0**-j for j in range(2, 11))),
                (4.0, tuple(4.0 * (1.0 - 2.0**-j) for j in range(2, 11))))
    rep = estimate_ad_exponent(RN2, families)
    assert rep.eta_hat == pytest.approx(1.0, abs=0.02)
    assert rep.sample_count == 18
    rep1 = estimate_ad_exponent(RN2, [families[0]])
    assert rep1.sample_count == 9
    with pytest.raises(InputError):
        estimate_ad_exponent(RN2, [])


def test_ad_ratio_trend_flat_for_true_eta():
    annuli = [AnnulusSpec(1.0 - 2.0**-j, 1.0) for j in range(2, 12)]
    slope, ratios = ad_ratio_trend(RN2, annuli, eta=1.0)
    assert abs(slope) <= 0.02
    assert max(ratios) / min(ratios) <= 1.5
    # overstated eta makes the ratio diverge (negative trend)
    slope2, _ = ad_ratio_trend(RN2, annuli, eta=1.5)
    assert slope2 <= -0.4


def test_check_one_ad_smooth_space():
    rep = check_one_ad(RN3, (0.25, 4.0))
    # rho f'/f = n exactly for f = c rho^n
    assert rep.sup_ratio == pytest.approx(3.0, rel=1e-3)
    assert rep.inf_ratio == pytest.approx(3.0, rel=1e-3)
    assert not rep.jump_detected
    assert rep.condition_b and rep.condition_d


def test_check_one_ad_snake_jump():
    rep = check_one_ad(make_snake().space, (1.5, 64.0))
    assert rep.jump_detected
    assert math.isinf(rep.sup_ratio)
    assert not rep.condition_b


def test_check_one_ad_buckley_steep_but_no_jump():
    # the integrable singularity is steep but not atomic: no jump, yet the
    # difference quotients grow without bound under refinement, so the
    # 1-AD characterization correctly fails
    rep = check_one_ad(make_buckley(0.5).space, (0.25, 4.0))
    assert not rep.jump_detected
    assert not rep.condition_b
    assert rep.sup_trend_slope >= 0.1


def test_check_one_ad_condition_d_failures():
    m1x = make_halfline(HalfLineKind.MIN_ONE_OVER_X)
    rep = check_one_ad(m1x.space, m1x.one_ad_range)
    assert rep.condition_b and not rep.condition_d
    exp = make_halfline(HalfLineKind.EXP_DECAY)
    rep = check_one_ad(exp.space, exp.one_ad_range)
    assert rep.condition_b and not rep.condition_d


def test_check_one_ad_head_blowup():
    # rho f'/f = 1/rho blows up toward 0 even though f is smooth
    inv = make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ)
    rep = check_one_ad(inv.space, inv.one_ad_range)
    assert not rep.condition_b
    assert rep.head_slope <= -0.5


def test_check_one_ad_validation():
    with pytest.raises(InputError):
        check_one_ad(RN2, (2.0, 1.0))


def test_reverse_doubling_exact():
    ratios = doubling_ratios(RN2, [0.25, 1.0, 3.0])
    assert ratios.min() == pytest.approx(4.0, rel=1e-10)
    assert ratios.min() >= REVERSE_DOUBLING_GAMMA


def test_reverse_doubling_fails_on_exp_decay():
    space = make_halfline(HalfLineKind.EXP_DECAY).space
    radii = [4.0, 16.0, 64.0]
    ratios = doubling_ratios(space, radii)
    assert ratios.min() < REVERSE_DOUBLING_GAMMA
    assert radii[ratios.argmin()] == 64.0


def test_doubling():
    ratios = doubling_ratios(RN2, [0.1, 1.0, 10.0])
    assert ratios.max() == pytest.approx(4.0, rel=1e-10)
    assert ratios.max() <= DOUBLING_BOUND
    inv = make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ).space
    assert doubling_ratios(inv, [0.02, 0.05, 0.1]).max() > DOUBLING_BOUND


def _record_balls(monkeypatch):
    """The radius of each ball the family measure calls compute, counted."""
    radii = collections.Counter()
    original = measure._measure_family

    def recorded(space, intervals):
        radii.update(R for r, R in intervals if r == 0.0)
        return original(space, intervals)

    monkeypatch.setattr(measure, "_measure_family", recorded)
    return radii


def test_doubling_ratios_fill_each_ball_once(monkeypatch):
    calls = []
    original = measure._measure_family

    def recorded(space, intervals):
        calls.append(list(intervals))
        return original(space, intervals)

    monkeypatch.setattr(measure, "_measure_family", recorded)
    family = [0.25, 0.5, 1.0, 2.0]  # each doubled radius but the last is in the family
    ratios = doubling_ratios(RN2, family)
    # one fill, each distinct ball once
    assert calls == [[(0.0, 0.5), (0.0, 0.25), (0.0, 1.0), (0.0, 2.0), (0.0, 4.0)]]
    assert ratios.tolist() == [mu_ball(RN2, 2.0 * r) / mu_ball(RN2, r) for r in family]


def test_ad_ratio_trend_takes_each_ball_once(monkeypatch):
    radii = _record_balls(monkeypatch)
    annuli = [AnnulusSpec(R * (1.0 - 2.0**-j), R) for R in (1.0, 4.0) for j in range(2, 8)]
    slope, ratios = ad_ratio_trend(RN2, annuli, eta=1.0)
    assert radii == {1.0: 1, 4.0: 1}
    # the fitted ratios, in annulus order
    assert ratios == [ad_ratio(RN2, a, 1.0) for a in annuli]


@pytest.mark.parametrize("eta", [-1.0, 0.0, math.nan])
def test_ad_ratio_trend_refuses_eta_before_any_measure(monkeypatch, eta):
    calls = []
    monkeypatch.setattr(measure, "_measure_family", lambda *args: calls.append(args))
    with pytest.raises(InputError, match=f"^need eta > 0, got {eta}$"):
        ad_ratio_trend(make_buckley(0.5).space, _thin_annuli(1.0, 10), eta)
    assert calls == []


def _first_fit_failure(space, R, rs):
    """What fit_annulus_decay raised when it took mu(B_R) and then each
    annulus in turn: the first failing annulus, the error's type and its
    message."""
    mu_ball(space, R)
    for i, r in enumerate(sorted(rs)):
        try:
            mass = mu_annulus(space, AnnulusSpec(r, R))
        except AnncapError as exc:
            return i, type(exc), str(exc)
        if not mass > 0:
            return i, DomainError, (f"annulus (r={r}, R={R}) has measure {mass}; "
                                    "its decay ratio has no logarithm")
    return None


# exp(-1/x)/x^2 near R = 1/740: every mass is 0 (0.0013), the tenth is the
# first that is 0 (0.001345), and the second misses the quadrature gate
# while its neighbours pass (0.00137)
@pytest.mark.parametrize("R, first, failure", [(0.0013, 0, DomainError),
                                               (0.001345, 9, DomainError),
                                               (0.00137, 1, QuadratureError)])
def test_a_fit_raises_its_first_failing_annulus(R, first, failure):
    space = make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ).space
    rs = _thin_family(R)
    index, kind, message = _first_fit_failure(space, R, rs)
    assert (index, kind) == (first, failure)
    with pytest.raises(failure) as info:
        fit_annulus_decay(space, R, rs)
    assert str(info.value) == message


def test_check_one_ad_fills_its_first_ball_once_and_redoes_in_one_call(monkeypatch):
    # the four grids share mu(B_lo), and the panels they redo near the
    # Buckley pole, 3 each, are one _radial_integral call
    families, integrals = [], []
    original_family, original_integral = measure._measure_family, measure._radial_integral

    def family(space, intervals):
        families.append(list(intervals))
        return original_family(space, intervals)

    def integral(w, m, intervals, k=1.0):
        integrals.append(len(intervals))
        return original_integral(w, m, intervals, k)

    monkeypatch.setattr(measure, "_measure_family", family)
    monkeypatch.setattr(measure, "_radial_integral", integral)
    check_one_ad(make_buckley(0.5).space, (0.25, 4.0))
    assert families == [[(0.0, 0.25)]]
    assert integrals == [1, 12]


@pytest.mark.parametrize("invalid_at", [0, 1, 2])
def test_an_invalid_family_is_raised_before_any_measure(monkeypatch, invalid_at):
    space = make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ).space
    radii = _record_balls(monkeypatch)
    families = [(0.0013, _thin_family(0.0013)), (0.4, _thin_family(0.4))]
    families.insert(invalid_at, (1.0, [0.9] * 3))
    with pytest.raises(InputError, match="^need >= 8 annuli per family, got 3$"):
        estimate_ad_exponent(space, families)
    assert not radii


def test_a_fit_error_is_raised_after_one_fill_of_every_family(monkeypatch):
    # every mass of the R = 0.0013 family is 0: its fit fails once both
    # families' measures are one fill
    space = make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ).space
    radii = _record_balls(monkeypatch)
    _, kind, message = _first_fit_failure(space, 0.0013, _thin_family(0.0013))
    radii.clear()
    with pytest.raises(kind) as info:
        estimate_ad_exponent(space, [(0.0013, _thin_family(0.0013)), (0.4, _thin_family(0.4))])
    assert str(info.value) == message
    assert radii == {0.0013: 1, 0.4: 1}
