import math
import re

import numpy as np
import pytest

from anncap import bounds, measure
from anncap.bounds import (
    BOUND_TABLE,
    BoundId,
    BoundSpec,
    blowup_probe,
    evaluate_bound,
    verify_envelope,
)
from anncap.capacity import CapacityMethod, CapacityResult, cap_auto, cap_rn_unweighted
from anncap.cli import _write_rows
from anncap.errors import ApplicabilityError, DomainError, InputError, QuadratureError
from anncap.gallery import make_bowtie, make_buckley, make_halfline, make_rn_unweighted, make_snake
from anncap.measure import mu_ball
from anncap.spaces import AnnulusSpec, HalfLine, RadialRn, SpaceSpec, TraitSet
from anncap.weights import Constant, HalfLineKind

RN2 = make_rn_unweighted(2).space


@pytest.fixture
def caps(monkeypatch):
    """caps(cap, failing_at=None) fakes the capacities verify_envelope and
    blowup_probe read: cap(a) for each annulus a of the family, except that
    a family with an annulus number failing_at raises a QuadratureError, as
    cap_values raises its first failing annulus's error.  It returns the
    list of the families the fake was called with."""
    def install(cap, failing_at=None):
        calls = []

        def cap_values(space, p, annuli):
            calls.append(list(annuli))
            if failing_at is not None and failing_at < len(annuli):
                raise QuadratureError(f"capacity {failing_at}")
            return [CapacityResult(cap(a), CapacityMethod.CLOSED_FORM) for a in annuli]
        monkeypatch.setattr(bounds, "cap_values", cap_values)
        return calls
    return install


def test_boundspec_validation():
    with pytest.raises(InputError):
        BoundSpec(BoundId.UPPER_SIMPLE, 0.5)
    with pytest.raises(InputError):
        BoundSpec(BoundId.UPPER_ETA, 2.0)  # missing eta
    with pytest.raises(InputError):
        BoundSpec(BoundId.UPPER_ETA, 2.0, eta=1.5)
    with pytest.raises(InputError):
        BoundSpec(BoundId.LOWER_CORKSCREW_Q, 2.0)  # missing q


def test_upper_simple_value_and_domination():
    ann = AnnulusSpec(1.0, 2.0)
    spec = BoundSpec(BoundId.UPPER_SIMPLE, 2.0)
    val = evaluate_bound(spec, RN2, ann)
    assert val == pytest.approx(3.0 * math.pi, rel=1e-10)  # mu(ann)/delta^2
    cap = cap_rn_unweighted(2, 2.0, ann).value
    assert cap <= val


def test_two_sided_nice_p1_has_no_thinness_factor():
    ann = AnnulusSpec(0.75, 1.0)
    spec = BoundSpec(BoundId.TWO_SIDED_NICE, 1.0)
    val = evaluate_bound(spec, RN2, ann)
    assert val == pytest.approx(mu_ball(RN2, 1.0), rel=1e-10)


def test_bound_expression_values():
    ann = AnnulusSpec(0.75, 1.0)
    t = 0.25
    muR = mu_ball(RN2, 1.0)
    cases = {
        BoundSpec(BoundId.UPPER_ETA, 2.0, eta=1.0): t**-1 * muR,
        BoundSpec(BoundId.LOWER_PI_AD, 2.0, eta=1.0, q=1.0): t**-1 * muR,
        BoundSpec(BoundId.LOWER_P_BASE, 2.0): muR,
        BoundSpec(BoundId.TWO_SIDED_NICE, 2.0): t**-1 * muR,
        BoundSpec(BoundId.LOWER_CORKSCREW_Q, 2.0, q=1.0): t**-1 * muR,
        BoundSpec(BoundId.MEASURE_LOWER_Q, 2.0, q=1.0): t * muR,
    }
    for spec, expected in cases.items():
        assert evaluate_bound(spec, RN2, ann) == pytest.approx(expected, rel=1e-10), spec.bound_id


def test_lower_pi_ad_never_exceeds_nice_upper():
    # for q >= 1 and thin annuli, t^(eta(q-p)/q) <= t^(1-p)
    p = 2.5
    for j in range(2, 10):
        ann = AnnulusSpec(1.0 - 2.0**-j, 1.0)
        lower = evaluate_bound(BoundSpec(BoundId.LOWER_PI_AD, p, eta=1.0, q=1.5), RN2, ann)
        upper = evaluate_bound(BoundSpec(BoundId.TWO_SIDED_NICE, p), RN2, ann)
        assert lower <= upper * (1.0 + 1e-12)


def test_gating_names_failed_hypothesis():
    ann = AnnulusSpec(0.75, 1.0)
    # eta above the declared decay exponent
    with pytest.raises(ApplicabilityError, match="eta-annular-decay"):
        evaluate_bound(BoundSpec(BoundId.UPPER_ETA, 2.0, eta=1.0),
                       make_buckley(0.5).space, ann)
    # q must lie strictly below p
    with pytest.raises(ApplicabilityError, match="1 <= q < p"):
        evaluate_bound(BoundSpec(BoundId.LOWER_PI_AD, 2.0, eta=1.0, q=2.0), RN2, ann)
    # thick annulus
    with pytest.raises(ApplicabilityError, match="thin annulus"):
        evaluate_bound(BoundSpec(BoundId.TWO_SIDED_NICE, 2.0), RN2, AnnulusSpec(0.3, 1.0))
    # snake has no corkscrew constant
    with pytest.raises(ApplicabilityError, match="corkscrew"):
        evaluate_bound(BoundSpec(BoundId.TWO_SIDED_ANNULAR, 2.0),
                       make_snake().space, AnnulusSpec(31.0, 33.0))
    # min-one-over-x lacks reverse-doubling
    with pytest.raises(ApplicabilityError, match="reverse-doubling"):
        evaluate_bound(BoundSpec(BoundId.MEASURE_LOWER_Q, 2.0, q=1.0),
                       make_halfline(HalfLineKind.MIN_ONE_OVER_X).space,
                       AnnulusSpec(8.0, 16.0))
    # p = 1 bound refuses p != 1
    with pytest.raises(ApplicabilityError, match="p = 1"):
        evaluate_bound(BoundSpec(BoundId.LOWER_P1_NO_DOUBLING, 2.0), RN2, ann)


def test_gating_override():
    ann = AnnulusSpec(0.75, 1.0)
    spec = BoundSpec(BoundId.UPPER_ETA, 2.0, eta=1.0)
    val = evaluate_bound(spec, make_buckley(0.5).space, ann, check_hypotheses=False)
    assert val > 0


def test_upper_simple_never_gated():
    bare = SpaceSpec(RadialRn(2), Constant(), traits=TraitSet())
    val = evaluate_bound(BoundSpec(BoundId.UPPER_SIMPLE, 2.0), bare, AnnulusSpec(0.3, 1.0))
    assert val > 0


def test_verify_envelope_pass_and_csv(tmp_path):
    p = 2.0
    annuli = [AnnulusSpec(1.0 - 2.0**-j, 1.0) for j in range(2, 11)]
    rep = verify_envelope(RN2, BoundSpec(BoundId.TWO_SIDED_NICE, p), annuli)
    assert rep.verdict == "PASS"
    assert abs(rep.slope) <= 0.05
    path = tmp_path / "sweep.csv"
    with open(path, "w", newline="") as fh:
        _write_rows(fh, rep.rows)
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,R,cap,bound,ratio"
    assert len(lines) == 10
    assert (rep.verdict, len(rep.rows)) == ("PASS", 9)


def test_degenerate_abscissa_is_an_input_error():
    # every annulus the same 1 - r/R: no slope to fit
    with pytest.raises(InputError, match="degenerate fit"):
        verify_envelope(RN2, BoundSpec(BoundId.TWO_SIDED_NICE, 2.0), [AnnulusSpec(0.75, 1.0)] * 8)
    with pytest.raises(InputError, match="degenerate fit"):
        blowup_probe(RN2, 2.0, 1.0, [0.25])


def test_verify_envelope_detects_counterexample():
    space = make_buckley(0.5).space
    p = 2.0
    annuli = [AnnulusSpec(1.0 - 2.0**-j, 1.0) for j in range(2, 11)]
    rep = verify_envelope(space, BoundSpec(BoundId.TWO_SIDED_NICE, p), annuli,
                          check_hypotheses=False)
    assert rep.verdict == "FAIL"
    assert rep.slope == pytest.approx(0.5 - 1.0, abs=0.05)


def test_verify_envelope_needs_eight_annuli(caps):
    caps(lambda a: 1.0)
    annuli = [AnnulusSpec(1.0 - 2.0**-j, 1.0) for j in range(2, 6)]
    with pytest.raises(InputError):
        verify_envelope(RN2, BoundSpec(BoundId.UPPER_SIMPLE, 2.0), annuli)


def test_upper_simple_envelope_requires_domination(caps):
    caps(lambda a: 2.0 * cap_auto(RN2, 2.0, a).value)
    annuli = [AnnulusSpec(1.0 - 2.0**-j, 1.0) for j in range(2, 11)]
    rep = verify_envelope(RN2, BoundSpec(BoundId.UPPER_SIMPLE, 2.0), annuli)
    assert rep.verdict == "FAIL"  # inflated capacity exceeds the bare bound


def test_blowup_probe_halfline():
    space = SpaceSpec(HalfLine(), Constant(),
                      traits=TraitSet(pi_exponents=frozenset({1.0})))
    deltas = [2.0**-j for j in range(1, 13)]
    rep = blowup_probe(space, 2.0, 1.0, deltas)
    assert rep.verdict == "BLOWUP"
    slope = np.polyfit(np.log(rep.deltas), np.log(rep.values), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.01)


def test_blowup_probe_gating(caps):
    caps(lambda a: 1.0)
    space = SpaceSpec(HalfLine(), Constant(), traits=TraitSet())  # no PI declared
    with pytest.raises(ApplicabilityError, match="Poincare"):
        blowup_probe(space, 2.0, 1.0, [0.5, 0.25])
    # q >= p also refuses
    pi = SpaceSpec(HalfLine(), Constant(), traits=TraitSet(pi_exponents=frozenset({3.0})))
    with pytest.raises(ApplicabilityError):
        blowup_probe(pi, 2.0, 1.0, [0.5, 0.25])
    # the open range q > n + alpha = 2.5 of the bow-tie counts: some q in (2.5, 3)
    # qualifies at p = 3, none at p = 2.5
    bowtie = make_bowtie(0.5).space
    deltas = [2.0**-j for j in range(2, 10)]
    assert blowup_probe(bowtie, 3.0, 1.0, deltas) == blowup_probe(bowtie, 3.0, 1.0, deltas,
                                                                  check_hypotheses=False)
    with pytest.raises(ApplicabilityError, match="^hypothesis violated: q-Poincare"):
        blowup_probe(bowtie, 2.5, 1.0, deltas)


def test_blowup_probe_degenerate_zeroes(caps):
    caps(lambda a: 0.0)
    space = SpaceSpec(HalfLine(), Constant(),
                      traits=TraitSet(pi_exponents=frozenset({1.0})))
    rep = blowup_probe(space, 2.0, 1.0, [0.5, 0.25, 0.125])
    assert rep.verdict == "NO-BLOWUP"


# ---------------------------------------------------------------------------
# the bound table and measure-once families

_SPECS = {b: BoundSpec(b, 1.0 if b is BoundId.LOWER_P1_NO_DOUBLING else 2.0, eta=0.5, q=1.5)
          for b in BoundId}
_FAMILY = [AnnulusSpec(1.0 - 2.0**-j, 1.0) for j in range(2, 13)]  # 11 thin annuli, R = 1


def test_every_bound_has_one_table_row():
    assert set(BOUND_TABLE) == set(BoundId)
    assert len(BOUND_TABLE) == len(BoundId)


def _count_measures(monkeypatch):
    """Counts of the family measure calls and of the balls and annuli they
    compute."""
    calls = {"families": 0, "balls": 0, "annuli": 0}
    original = measure._measure_family

    def counted(space, intervals):
        calls["families"] += 1
        for r, _ in intervals:
            calls["balls" if r == 0.0 else "annuli"] += 1
        return original(space, intervals)

    monkeypatch.setattr(measure, "_measure_family", counted)
    return calls


@pytest.mark.parametrize("bound_id", list(BoundId))
def test_verify_envelope_computes_each_measure_once(monkeypatch, caps, bound_id):
    caps(lambda a: cap_rn_unweighted(2, 2.0, a).value)
    calls = _count_measures(monkeypatch)
    verify_envelope(RN2, _SPECS[bound_id], _FAMILY, check_hypotheses=False)
    expected_balls = {BoundId.UPPER_SIMPLE: 0, BoundId.TWO_SIDED_ANNULAR: 0,
                      BoundId.LOWER_P1_NO_DOUBLING: 11}.get(bound_id, 1)
    assert calls["families"] == 1  # one fill for the family
    assert calls["balls"] == expected_balls
    assert calls["annuli"] == (11 if expected_balls == 0 else 0)


@pytest.mark.parametrize("space", [RN2, make_buckley(0.5).space,
                                   make_halfline(HalfLineKind.MIN_ONE_OVER_X).space,
                                   make_snake().space],
                         ids=["rn2", "buckley", "halfline", "snake"])
def test_verify_envelope_rows_equal_evaluate_bound(caps, space):
    caps(lambda a: 1.0)
    family = [AnnulusSpec(48.0 * (1.0 - 2.0**-j), 48.0) for j in range(2, 13)] \
        if space.name == "snake" else _FAMILY
    for bound_id, spec in _SPECS.items():
        for gated in (True, False):
            try:
                expected = [evaluate_bound(spec, space, a, check_hypotheses=gated) for a in family]
            except ApplicabilityError as exc:
                with pytest.raises(ApplicabilityError, match=re.escape(str(exc))):
                    verify_envelope(space, spec, family, check_hypotheses=gated)
                continue
            rep = verify_envelope(space, spec, family, check_hypotheses=gated)
            assert [row[3] for row in rep.rows] == expected, (bound_id, gated)


def test_first_failed_hypothesis_is_reported():
    # the corkscrew bound checks the two-sided annular hypotheses first
    snake = make_snake().space
    with pytest.raises(ApplicabilityError, match="corkscrew"):
        evaluate_bound(_SPECS[BoundId.LOWER_CORKSCREW_Q], snake, AnnulusSpec(31.0, 33.0))
    with pytest.raises(ApplicabilityError, match="1 <= q < p"):
        evaluate_bound(BoundSpec(BoundId.LOWER_CORKSCREW_Q, 2.0, q=2.0), RN2,
                       AnnulusSpec(0.75, 1.0))


def test_radius_cap_bounds_R_on_the_bowtie():
    # the bow-tie is the one bounded space: R <= diam / 2 tau = sqrt(10) / 4 = 0.790569...
    bowtie = make_bowtie(0.5).space
    spec = BoundSpec(BoundId.LOWER_P_BASE, 3.0)
    assert evaluate_bound(spec, bowtie, AnnulusSpec(0.75 * 0.79, 0.79)) > 0
    with pytest.raises(ApplicabilityError, match=re.escape("R <= diam X / 2 tau")):
        evaluate_bound(spec, bowtie, AnnulusSpec(0.75 * 0.7906, 0.7906))


def test_bound_spec_refuses_nan():
    with pytest.raises(InputError):
        BoundSpec(BoundId.UPPER_SIMPLE, math.nan)
    with pytest.raises(InputError):
        BoundSpec(BoundId.MEASURE_LOWER_Q, 2.0, q=math.nan)


def test_underflowing_bound_is_a_domain_error(caps):
    caps(lambda a: 1.0)
    spec = BoundSpec(BoundId.LOWER_P_BASE, 4.0)
    tiny = [AnnulusSpec(1e-100 * (1.0 - 2.0**-j), 1e-100) for j in range(2, 12)]
    with pytest.raises(DomainError, match="float range"):  # R**p underflows
        verify_envelope(RN2, spec, tiny, check_hypotheses=False)
    inv = make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ).space  # mu(B_R) = e^(-1/R) = 0
    near = [AnnulusSpec(1e-3 * (1.0 - 2.0**-j), 1e-3) for j in range(2, 12)]
    with pytest.raises(DomainError, match="is 0"):
        verify_envelope(inv, spec, near, check_hypotheses=False)


# ---------------------------------------------------------------------------
# a family's errors: its inputs first (every annulus's hypotheses, when
# gated, and every annulus of a blowup probe), before any measure or
# capacity; then the measures, then the capacities, each step raising the
# error of its first failing annulus

def _not_thin_at(i):
    family = list(_FAMILY)
    family[i] = AnnulusSpec(0.4, 1.0)
    return family


@pytest.mark.parametrize("cap_at, gated, error", [
    (5, True, "hypothesis violated: reverse-doubling at x0"),  # fails on every annulus
    (0, True, "hypothesis violated: reverse-doubling at x0"),
    (5, False, "capacity 5"),
])
def test_an_early_hypothesis_wins_over_a_later_capacity(monkeypatch, caps, cap_at, gated, error):
    cap_calls = caps(lambda a: 1.0, failing_at=cap_at)
    measure_calls = _count_measures(monkeypatch)
    no_reverse_doubling = make_halfline(HalfLineKind.MIN_ONE_OVER_X).space
    with pytest.raises((ApplicabilityError, QuadratureError), match=f"^{re.escape(error)}$"):
        verify_envelope(no_reverse_doubling, BoundSpec(BoundId.TWO_SIDED_NICE, 2.0), _FAMILY,
                        check_hypotheses=gated)
    # gated, no measure or capacity is computed; ungated, the measures come first
    assert (measure_calls["families"], len(cap_calls)) == ((0, 0) if gated else (1, 1))


@pytest.mark.parametrize("cap_at, error", [(3, "thin annulus (R/2 <= r)"),
                                           (7, "thin annulus (R/2 <= r)")])
def test_the_first_failing_annulus_need_not_be_the_first(monkeypatch, caps, cap_at, error):
    # annulus 6 is refused before the capacity of annulus 3 or 7 is computed
    cap_calls = caps(lambda a: 1.0, failing_at=cap_at)
    measure_calls = _count_measures(monkeypatch)
    with pytest.raises((ApplicabilityError, QuadratureError), match=f"{re.escape(error)}$"):
        verify_envelope(RN2, BoundSpec(BoundId.TWO_SIDED_NICE, 2.0), _not_thin_at(6))
    assert (measure_calls["families"], cap_calls) == (0, [])


@pytest.mark.parametrize("not_thin", [0, 10])
def test_a_failed_hypothesis_on_any_annulus_comes_before_any_computation(monkeypatch, caps,
                                                                         not_thin):
    cap_calls = caps(lambda a: 1.0, failing_at=0)
    measure_calls = _count_measures(monkeypatch)
    with pytest.raises(ApplicabilityError, match=re.escape("thin annulus (R/2 <= r)")):
        verify_envelope(RN2, BoundSpec(BoundId.TWO_SIDED_NICE, 2.0), _not_thin_at(not_thin))
    assert (measure_calls["families"], cap_calls) == (0, [])


@pytest.mark.parametrize("cap_at", [2, 6])
def test_a_measure_error_is_raised_before_any_capacity(monkeypatch, caps, cap_at):
    cap_calls = caps(lambda a: 1.0, failing_at=cap_at)
    measure_calls = _count_measures(monkeypatch)
    # mu(B_r) is past the snake for r > 1024: from the fifth annulus on
    family = [AnnulusSpec(1000.0 + 8.0 * j, 1100.0) for j in range(11)]
    error = "snake represents radii up to 2^10 = 1024.0, got R = 1032.0"
    with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
        verify_envelope(make_snake().space, _SPECS[BoundId.LOWER_P1_NO_DOUBLING], family,
                        check_hypotheses=False)
    assert (measure_calls["families"], cap_calls) == (1, [])


_HALFLINE_PI1 = SpaceSpec(HalfLine(), Constant(), traits=TraitSet(pi_exponents=frozenset({1.0})))


@pytest.mark.parametrize("space, R, deltas, error, message", [
    (_HALFLINE_PI1, 1.0, [0.5, 0.25, 0.0], InputError, "annulus needs 0 < r < R"),  # delta = 0
    (_HALFLINE_PI1, 1.0, [0.5, 0.25, 1.0], InputError, "annulus needs 0 < r < R"),  # delta = R
    (_HALFLINE_PI1, 1.0, [0.5, 0.25, 2.0], InputError, "annulus needs 0 < r < R"),  # delta > R
    # n + alpha <= 1 declares the 1-Poincare inequality; R = sqrt(10) leaves no X \ B_R
    (make_bowtie(-1.5).space, math.sqrt(10.0), [0.5, 0.25], ApplicabilityError,
     re.escape("mu(X \\ B_R) > 0")),
], ids=["delta-0", "delta-R", "delta-past-R", "bowtie-past-diameter"])
def test_blowup_probe_refuses_before_any_capacity(caps, space, R, deltas, error, message):
    cap_calls = caps(lambda a: 1.0, failing_at=0)
    with pytest.raises(error, match=message):
        blowup_probe(space, 2.0, R, deltas)
    assert cap_calls == []
