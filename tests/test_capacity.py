import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from anncap.capacity import (
    INF_CUT_GRID,
    _cut_grid,
    CapacityMethod,
    CapacityResult,
    cap_auto,
    cap_bowtie_pinch,
    cap_radial_p1,
    cap_radial_weighted,
    cap_rn_unweighted,
    cap_snake,
)
from anncap.errors import AnncapError, DomainError, InputError, QuadratureError
from anncap.gallery import (_thin_annuli, make_buckley, make_halfline, make_rn_unweighted,
                            make_summed_buckley)
from anncap.measure import _radial_reduction
from anncap.spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, surface_area
from anncap.weights import (BuckleyEta, Constant, HalfLineCatalog, HalfLineKind, PowerAlpha,
                            SummedBuckley, Tabulated)

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


_BOW = SpaceSpec(BowTie(2, 0.5))


@pytest.mark.parametrize("call, message", [
    (lambda: cap_snake(2.0, -1, 0.1), "snake jump index k must lie in [0, 9], got -1"),
    (lambda: cap_snake(2.0, 10, 0.1), "snake jump index k must lie in [0, 9], got 10"),
    (lambda: cap_bowtie_pinch(_BOW, 2.0, 0.0), "need delta in (0, 1/2), got 0.0"),
    (lambda: cap_bowtie_pinch(_BOW, 2.0, 0.5), "need delta in (0, 1/2), got 0.5"),
    (lambda: cap_bowtie_pinch(_BOW, 0.5, 0.25), "capacity needs p >= 1, got 0.5"),
    (lambda: cap_auto(SpaceSpec(object()), 2.0, AnnulusSpec(1.0, 2.0)),
     "no capacity engine for geometry object"),
    (lambda: cap_radial_p1(SpaceSpec(Snake()), AnnulusSpec(7.5, 8.5)),
     "radial reduction needs RadialRn or HalfLine, got Snake"),
], ids=["snake-k-below", "snake-k-past", "pinch-delta-0", "pinch-delta-half", "pinch-p-below-1",
        "no-engine", "p1-on-the-snake"])
def test_an_engine_refuses_what_it_does_not_cover(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_capacity_past_the_float_range_is_an_error_not_a_value():
    # r^a over- or underflows in the closed form, which then takes logs: a
    # finite capacity is a value (50-digit mpmath references from the exact
    # binary inputs), one past the float range an error, never nan or 0
    for n, p, r, R, exact in [(2, 1.001, 1e100, 1e300, 5.02550181122046185e+100),
                              (2, 1.335, 2.5e-303, 1.33, 4.651202147503353299e-201),
                              (2, 1.5, 1e-310, 4.0, 6.2831853071795768791e-155)]:
        assert cap_rn_unweighted(n, p, AnnulusSpec(r, R)).value == pytest.approx(exact, rel=1e-12)
    # a capacity underflowing to 0, in the closed form (1.86e-600) and the radial integral
    with pytest.raises(DomainError, match="float range"):
        cap_rn_unweighted(2, 4.0, AnnulusSpec(1.0, 1e300))
    with pytest.raises(DomainError, match="float range"):
        cap_radial_weighted(SpaceSpec(RadialRn(1), BuckleyEta(0.5)), 3.0, AnnulusSpec(1e-10, 1e200))
    # a single power overflowing: L^(1-n) at p = n, r^(n-1) at p = 1
    with pytest.raises(DomainError, match="float range"):
        cap_rn_unweighted(30, 30.0, AnnulusSpec(1.0, 1.0000000000000002))
    with pytest.raises(DomainError, match="float range"):
        cap_rn_unweighted(3, 1.0, AnnulusSpec(1e200, 1e201))
    # a density underflowing to 0 has no power in the radial integral
    inv = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.EXP_INV_OVER_X_SQ))
    with pytest.raises(QuadratureError, match="float range"):
        cap_radial_weighted(inv, 1.2, AnnulusSpec(3e-270, 2.0))


def _inf_cut_loop(space, ann):
    """The p = 1 inf-cut search as it stood before its grids were built by
    hand: np.linspace for every grid, np.unique on the first, and the cost
    as const * ts**m * w(ts) under its own errstate each round."""
    w, m, const = _radial_reduction(space)
    inside = [s for s in w.singularities() if ann.r < s < ann.R]
    ts = np.unique(np.r_[np.linspace(ann.r, ann.R, INF_CUT_GRID), inside])
    best = math.inf
    while True:
        with np.errstate(over="ignore"):
            costs = const * ts**m * w.evaluate(ts)
        # an infinite cost at a pole is a legal cut; a NaN one would win argmin
        if np.isnan(costs).any():
            raise DomainError(f"p = 1 cut cost is NaN on [{ann.r}, {ann.R}]")
        i = int(np.argmin(costs))
        best = min(best, float(costs[i]))
        lo, hi = ts[max(0, i - 1)], ts[min(len(ts) - 1, i + 1)]
        if np.nextafter(np.nextafter(lo, hi), hi) >= hi:
            break
        ts = np.linspace(lo, hi, INF_CUT_GRID)
    if not 0.0 < best < math.inf:
        raise DomainError(f"capacity of (r={ann.r}, R={ann.R}) at p = 1 leaves the float range")
    return CapacityResult(value=best, method=CapacityMethod.INF_CUT)


def _cut_bits(cut, space, ann):
    """The capacity cut returns, as its exact bits and method, or the type
    and text of the error it raises."""
    try:
        res = cut(space, ann)
    except AnncapError as exc:
        return type(exc).__name__, str(exc)
    return res.value.hex(), res.method


def _assert_cut_is_the_loop(space, ann):
    assert _cut_bits(cap_radial_p1, space, ann) == _cut_bits(_inf_cut_loop, space, ann), ann


# the radial spaces that the CLI's --space kinds build, with the R of each
# p = 1 sweep the benchmark's queries draw
_QUERY_SWEEPS = [(make_rn_unweighted(n).space, R) for n in (2, 3) for R in (1.0, 2.0)]
_QUERY_SWEEPS += [(make_buckley(eta).space, 1.0) for eta in (0.3, 0.5, 0.8)]
_QUERY_SWEEPS += [(make_summed_buckley(0.5).space, 1.0)]
_QUERY_SWEEPS += [(make_halfline(HalfLineKind(k)).space, R)
                  for k, R in (("min-one-over-x", 64.0), ("exp-decay", 8.0),
                               ("exp-inv-over-x-sq", 0.4))]
_CUT_SPACES = [space for space, _ in _QUERY_SWEEPS] + [
    SpaceSpec(RadialRn(2), BuckleyEta(0.5)),
    SpaceSpec(RadialRn(3), SummedBuckley(0.3, ((1.0, 1.0), (3.0, 2.5), (0.5, 0.125)))),
    SpaceSpec(HalfLine(), Tabulated((0.5, 1.0, 3.0), (2.0, 0.25, 1.0))),
]


@pytest.mark.parametrize("space, R", _QUERY_SWEEPS, ids=lambda x: getattr(x, "name", x))
def test_inf_cut_is_the_loop_on_the_query_annuli(space, R):
    # each sweep's thin family, and the annuli of the p = 1 cap and oracle queries
    for ann in _thin_annuli(R, 12) + [AnnulusSpec(r, R) for r, R in
                                      ((0.625, 1.375), (0.6, 1.4), (0.575, 1.425),
                                       (0.45, 1.45), (0.425, 1.425), (0.4, 1.4))]:
        _assert_cut_is_the_loop(space, ann)


@settings(deadline=None, max_examples=150)
@given(space=st.sampled_from(_CUT_SPACES), log2_r=st.floats(-40.0, 40.0),
       log2_gap=st.floats(-50.0, math.log2(1e12 - 1.0)))
def test_inf_cut_is_the_loop_from_r_plus_one_ulp_to_a_ratio_of_1e12(space, log2_r, log2_gap):
    r = 2.0**log2_r
    R = r * (1.0 + 2.0**log2_gap)
    assume(r < R < math.inf)
    _assert_cut_is_the_loop(space, AnnulusSpec(r, R))


def _ulps_above(x, k):
    """The float k ulps above x > 0."""
    return float(np.int64(np.float64(x).view(np.int64) + k).view(np.float64))


@settings(deadline=None, max_examples=150)
@given(space=st.sampled_from(_CUT_SPACES), log2_r=st.floats(-1070.0, 1000.0),
       k=st.integers(1, 5000))
def test_inf_cut_is_the_loop_on_brackets_a_few_ulps_wide(space, log2_r, k):
    # below about 4 * 4096 ulps np.linspace repeats points
    r = 2.0**log2_r
    assume(r > 0.0)
    _assert_cut_is_the_loop(space, AnnulusSpec(r, _ulps_above(r, k)))


@settings(deadline=None, max_examples=150)
@given(space=st.sampled_from([s for s in _CUT_SPACES if s.weight.singularities()]),
       data=st.data(), below=st.floats(1.0, 52.0), above=st.floats(-3.0, 52.0))
def test_inf_cut_is_the_loop_across_a_pole_or_kink(space, data, below, above):
    s = data.draw(st.sampled_from(space.weight.singularities()))
    r, R = s * (1.0 - 2.0**-below), s * (1.0 + 2.0**-above)
    assume(r < s < R)
    _assert_cut_is_the_loop(space, AnnulusSpec(r, R))


@settings(deadline=None, max_examples=150)
@given(n=st.integers(1, 4), alpha=st.floats(-3.999, 4.0), half_line=st.booleans(),
       log2_r=st.floats(-30.0, 30.0), log2_gap=st.floats(-50.0, 39.0))
def test_inf_cut_is_the_loop_on_folded_powers(n, alpha, half_line, log2_r, log2_gap):
    # a PowerAlpha weight is folded into m = n - 1 + alpha, any real; the
    # half-line is R^1's half, so it refuses alpha <= -1, where mu(B_R) = inf
    geometry = HalfLine() if half_line else RadialRn(n)
    if half_line and alpha <= -1:
        with pytest.raises(InputError, match="^PowerAlpha weight needs alpha > -n = -1, got"):
            SpaceSpec(geometry, PowerAlpha(alpha))
    assume(alpha > (-1 if half_line else -n))
    space = SpaceSpec(geometry, PowerAlpha(alpha))
    r = 2.0**log2_r
    R = r * (1.0 + 2.0**log2_gap)
    assume(r < R < math.inf)
    _assert_cut_is_the_loop(space, AnnulusSpec(r, R))


@settings(deadline=None, max_examples=300)
@given(log2_lo=st.floats(-1074.0, 1000.0), log2_width=st.floats(-1074.0, 1020.0),
       zero_lo=st.booleans())
def test_cut_grid_is_linspace_bit_for_bit(log2_lo, log2_width, zero_lo):
    # from subnormal widths, where the step is 0 and linspace divides each
    # point instead, to widths far past lo
    lo = 0.0 if zero_lo else 2.0**log2_lo
    hi = lo + 2.0**log2_width
    assume(lo < hi < math.inf)
    assert _cut_grid(lo, hi).tobytes() == np.linspace(lo, hi, INF_CUT_GRID).tobytes()
    assert _cut_grid(hi, hi).tobytes() == np.linspace(hi, hi, INF_CUT_GRID).tobytes()
