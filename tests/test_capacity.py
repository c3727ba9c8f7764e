import math

import numpy as np
import pytest

from anncap.capacity import (
    CapacityMethod,
    cap_auto,
    cap_bowtie_pinch,
    cap_radial_p1,
    cap_radial_weighted,
    cap_rn_unweighted,
    cap_snake,
)
from anncap.errors import DomainError, QuadratureError
from anncap.spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, surface_area
from anncap.weights import BuckleyEta, Constant, HalfLineCatalog, HalfLineKind

RN2 = SpaceSpec(RadialRn(2), Constant())


def test_classical_closed_forms():
    # conformal case p = n = 2 on (1, 2): 2 pi / log 2
    assert cap_rn_unweighted(2, 2.0, AnnulusSpec(1.0, 2.0)).value == pytest.approx(
        2.0 * math.pi / math.log(2.0), rel=1e-14
    )
    # p = n = 2 on (1, e): 2 pi
    assert cap_rn_unweighted(2, 2.0, AnnulusSpec(1.0, math.e)).value == pytest.approx(
        2.0 * math.pi, rel=1e-14
    )
    # p = 2, n = 3 on (1, inf-like): 4 pi r R / (R - r)
    val = cap_rn_unweighted(3, 2.0, AnnulusSpec(1.0, 2.0)).value
    assert val == pytest.approx(4.0 * math.pi * 2.0, rel=1e-12)


def test_p1_is_inner_sphere_cut():
    assert cap_rn_unweighted(2, 1.0, AnnulusSpec(1.0, 5.0)).value == pytest.approx(2.0 * math.pi)
    assert cap_rn_unweighted(3, 1.0, AnnulusSpec(2.0, 3.0)).value == pytest.approx(16.0 * math.pi)


def test_conformal_scale_invariance():
    # p = n capacities depend only on R/r
    a = cap_rn_unweighted(2, 2.0, AnnulusSpec(1.0, 3.0)).value
    b = cap_rn_unweighted(2, 2.0, AnnulusSpec(5.0, 15.0)).value
    assert a == pytest.approx(b, rel=1e-14)


def test_radial_integral_matches_closed_form():
    for n in (1, 2, 3):
        space = SpaceSpec(RadialRn(n), Constant())
        for p in (1.5, 2.0, 2.5, 4.0):
            ann = AnnulusSpec(0.8, 1.7)
            exact = cap_rn_unweighted(n, p, ann).value
            quad = cap_radial_weighted(space, p, ann).value
            assert quad == pytest.approx(exact, rel=1e-8), (n, p)


@pytest.mark.parametrize("n", [2.5, 0, math.nan])
def test_closed_form_needs_an_integer_dimension(n):
    with pytest.raises(DomainError, match="integer n >= 1"):
        cap_rn_unweighted(n, 2.0, AnnulusSpec(1.0, 2.0))


def test_capacity_monotonicity():
    # shrinking the gap increases the capacity
    v_wide = cap_rn_unweighted(2, 2.0, AnnulusSpec(1.0, 4.0)).value
    v_tight = cap_rn_unweighted(2, 2.0, AnnulusSpec(1.0, 2.0)).value
    assert v_tight > v_wide
    v_inner = cap_rn_unweighted(2, 2.0, AnnulusSpec(1.5, 2.0)).value
    assert v_inner > v_tight


def test_halfline_unweighted():
    space = SpaceSpec(HalfLine(), Constant())
    assert cap_radial_weighted(space, 2.0, AnnulusSpec(1.0, 3.0)).value == pytest.approx(0.5)
    assert cap_radial_weighted(space, 3.0, AnnulusSpec(1.0, 2.0)).value == pytest.approx(1.0)


def test_p1_inf_cut_buckley():
    # cheapest cut sits at the inner radius where the weight is smallest; the
    # pole at R = 1 is an infinite cut cost, a legal one
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    res = cap_radial_p1(space, AnnulusSpec(0.5, 1.0))
    assert res.method is CapacityMethod.INF_CUT
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)


def test_p1_inf_cut_interior_minimum():
    # min-one-over-x on the half-line: cut cost w(t) decreases past t = 1
    space = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.MIN_ONE_OVER_X))
    res = cap_radial_p1(space, AnnulusSpec(0.5, 4.0))
    assert res.value == pytest.approx(0.25, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("eta", [0.6, 0.7, 0.8, 0.9])
def test_p1_inf_cut_buckley_interior_minimum_is_the_closed_form(n, eta):
    # on (1, 2) the cut cost t^m (t - 1)^(eta - 1), m = n - 1, is least where
    # m (t - 1) = (1 - eta) t, at t* = m / (m - 1 + eta) in (1, 2); at t = 2 it
    # is 2^m, more than that
    m = n - 1
    t = m / (m - 1 + eta)
    expect = surface_area(n) * t**m * (t - 1.0) ** (eta - 1.0)
    res = cap_radial_p1(SpaceSpec(RadialRn(n), BuckleyEta(eta)), AnnulusSpec(1.0, 2.0))
    assert res.value == pytest.approx(expect, rel=1e-14)


class _NanBelowOne:
    """A weight that is NaN below rho = 1."""

    def evaluate(self, rho):
        return np.where(np.asarray(rho) < 1.0, np.nan, 1.0)

    def singularities(self):
        return ()


def test_p1_inf_cut_nan_cost_is_a_domain_error():
    with pytest.raises(DomainError, match="NaN"):
        cap_radial_p1(SpaceSpec(HalfLine(), _NanBelowOne()), AnnulusSpec(0.5, 2.0))


def test_singular_weight_capacity_positive():
    # the Buckley singularity is integrable after the 1/(1-p) power, so the
    # capacity across it stays strictly positive
    space = SpaceSpec(RadialRn(2), BuckleyEta(0.5))
    assert cap_radial_weighted(space, 1.2, AnnulusSpec(0.5, 2.0)).value > 0


@pytest.mark.parametrize("p", [1.5, 1.1, 1.01, 1.001])
def test_buckley_capacity_across_the_pole_matches_the_closed_form(p):
    # on (1/2, 3/2) in R^1, int w^(1/(1-p)) = 2 int_0^(1/2) t^e' dt with
    # e' = (1 - eta)/(p - 1), which grows to 500 as p nears 1
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    e = 1.0 + 0.5 / (p - 1.0)
    exact = 2.0 * (2.0 * 0.5**e / e) ** (1.0 - p)
    value = cap_radial_weighted(space, p, AnnulusSpec(0.5, 1.5)).value
    assert value == pytest.approx(exact, rel=1e-12)


def test_snake_path_formula():
    # annulus around 2^k traces one path of length 2 delta + pi 2^k
    res = cap_snake(2.0, 3, 0.5)
    assert res.method is CapacityMethod.PATH_FORMULA
    assert res.value == pytest.approx(1.0 / (1.0 + 8.0 * math.pi))
    assert cap_snake(1.0, 3, 0.5).value == pytest.approx(1.0)
    with pytest.raises(DomainError):
        cap_snake(2.0, 3, 5.0)  # delta >= 2^(k-1)
    with pytest.raises(DomainError):
        cap_snake(0.5, 3, 0.5)


def test_bowtie_pinch_degenerates_exactly_at_n_plus_alpha():
    space = SpaceSpec(BowTie(2, 0.5))
    assert cap_bowtie_pinch(space, 2.5, 0.25).value == 0.0  # p = n + alpha
    assert cap_bowtie_pinch(space, 2.0, 0.25).value == 0.0  # p < n + alpha
    assert cap_bowtie_pinch(space, 1.0, 0.125).value == 0.0  # p = 1, an exact 0
    assert cap_bowtie_pinch(space, 3.0, 0.25).value > 0.0   # p > n + alpha
    with pytest.raises(DomainError):
        cap_bowtie_pinch(RN2, 2.0, 0.25)


def test_bowtie_pinch_aperture_is_the_cone_solid_angle():
    # at p = 1 and n - 1 + alpha = 0 the capacity is the aperture of one lobe
    # of {|x'| <= x1/2}: the angle 2 atan(1/2) in 2-D, the spherical cap
    # 2 pi (1 - cos atan(1/2)) = 2 pi (1 - 2/sqrt 5) in 3-D
    assert cap_bowtie_pinch(SpaceSpec(BowTie(2, -1.0)), 1.0, 0.125).value == 2.0 * math.atan(0.5)
    three_d = cap_bowtie_pinch(SpaceSpec(BowTie(3, -2.0)), 1.0, 0.125).value
    assert three_d == pytest.approx(2.0 * math.pi * (1.0 - 2.0 / math.sqrt(5.0)), rel=1e-14)
    # the 2-D value keeps its bits
    assert cap_bowtie_pinch(SpaceSpec(BowTie(2, 0.5)), 4.0, 0.125).value == 0.92729521800161219


def test_bowtie_pinch_underflow_is_a_domain_error():
    # past p = n + alpha the capacity is positive, so an underflow is never a 0
    with pytest.raises(DomainError, match="solid angle"):  # the cone's, near n = 340
        cap_bowtie_pinch(SpaceSpec(BowTie(340, 0.5)), 400.0, 0.125)
    with pytest.raises(DomainError, match="float range"):  # the sector power's
        cap_bowtie_pinch(SpaceSpec(BowTie(300, 0.5)), 400.0, 0.125)


def test_cap_auto_dispatch():
    assert cap_auto(RN2, 2.0, AnnulusSpec(1.0, 2.0)).method is CapacityMethod.CLOSED_FORM
    assert cap_auto(RN2, 1.0, AnnulusSpec(1.0, 2.0)).method is CapacityMethod.INF_CUT
    buck = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    assert cap_auto(buck, 2.0, AnnulusSpec(0.5, 1.5)).method is CapacityMethod.RADIAL_INTEGRAL
    snake = SpaceSpec(Snake())
    res = cap_auto(snake, 2.0, AnnulusSpec(7.5, 8.5))
    assert res.value == pytest.approx(cap_snake(2.0, 3, 0.5).value)
    with pytest.raises(DomainError):
        cap_auto(snake, 2.0, AnnulusSpec(7.5, 9.0))  # not symmetric about 8
    bow = SpaceSpec(BowTie(2, 0.5))
    assert cap_auto(bow, 2.5, AnnulusSpec(0.75, 1.0)).value == 0.0
    with pytest.raises(DomainError):
        cap_auto(bow, 2.5, AnnulusSpec(0.75, 1.5))


def test_p_validation():
    with pytest.raises(DomainError):
        cap_rn_unweighted(2, 0.5, AnnulusSpec(1.0, 2.0))
    with pytest.raises(DomainError):
        cap_rn_unweighted(2, math.nan, AnnulusSpec(1.0, 2.0))
    with pytest.raises(DomainError):
        cap_snake(math.nan, 2, 0.01)
    with pytest.raises(DomainError):
        cap_radial_weighted(RN2, 1.0, AnnulusSpec(1.0, 2.0))


def test_capacity_past_the_float_range_is_an_error_not_a_value():
    # r^a overflows in the closed form, and a density underflowing to 0 has
    # no power in the radial integral; neither may become nan or 0
    with pytest.raises(DomainError, match="float range"):
        cap_rn_unweighted(2, 1.335, AnnulusSpec(2.5e-303, 1.33))
    with pytest.raises(DomainError, match="float range"):
        cap_rn_unweighted(2, 1.5, AnnulusSpec(1e-310, 4.0))
    # r^a underflows to 0 at a = -999, though the capacity 5.03e100 is finite;
    # and a capacity underflowing to 0, in the closed form and the radial integral
    with pytest.raises(DomainError, match="float range"):
        cap_rn_unweighted(2, 1.001, AnnulusSpec(1e100, 1e300))
    with pytest.raises(DomainError, match="float range"):
        cap_rn_unweighted(2, 4.0, AnnulusSpec(1.0, 1e300))
    with pytest.raises(DomainError, match="float range"):
        cap_radial_weighted(SpaceSpec(RadialRn(1), BuckleyEta(0.5)), 3.0, AnnulusSpec(1e-10, 1e200))
    inv = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.EXP_INV_OVER_X_SQ))
    with pytest.raises(QuadratureError, match="float range"):
        cap_radial_weighted(inv, 1.2, AnnulusSpec(3e-270, 2.0))
