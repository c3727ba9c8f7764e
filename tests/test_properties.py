"""Property-based invariants: measure monotonicity and scaling, capacity
monotonicity and formula agreement, and discrete variational principles."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import hyp2f1

from anncap.capacity import cap_radial_p1, cap_radial_weighted, cap_rn_unweighted
from anncap.decay import _theil_sen_slope
from anncap.errors import AnncapError, DomainError, InputError, attempt
from anncap.gallery import DEFAULT_SUMMED_TERMS, default_gallery
from anncap.measure import (
    _measure_family,
    _radial_integral,
    _radial_reduction,
    mu_annulus,
    mu_annulus_detailed,
    mu_ball,
    mu_ball_detailed,
    volume_profiles,
)
from anncap.network import (BoundaryCondition, DiscreteNetwork, build_radial_network, condenser_bc,
                            solve_p_energy)
from anncap.spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, surface_area
from anncap.weights import (
    BuckleyEta,
    Constant,
    HalfLineCatalog,
    HalfLineKind,
    PowerAlpha,
    SummedBuckley,
    Tabulated,
)

COMMON = dict(deadline=None, max_examples=25)

radii = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)
ps = st.floats(min_value=1.1, max_value=4.0, allow_nan=False)


@settings(**COMMON)
@given(r=radii, s=radii)
def test_measure_monotone_and_additive(r, s):
    lo, hi = sorted((r, s))
    if hi <= lo * (1.0 + 1e-6):
        hi = lo * 1.5
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    inner = mu_ball(space, lo)
    outer = mu_ball(space, hi)
    assert outer > inner > 0
    assert inner + mu_annulus(space, AnnulusSpec(lo, hi)) == pytest.approx(outer, rel=1e-8)


# lo >= 0.005 reaches exp-inv-over-x-sq's tiny balls, mu(B_R) = e^(-1/R) of
# 1e-87 at R = 0.005: both the reference and the profile gate relative to
# the mass.  Buckley at eta = 0.3 puts a strong pole on a panel end.
PROFILE_SPACES = [
    SpaceSpec(RadialRn(2), Constant()),
    SpaceSpec(RadialRn(3), PowerAlpha(0.7)),
    SpaceSpec(RadialRn(1), PowerAlpha(-0.5)),
    SpaceSpec(RadialRn(2), PowerAlpha(-1.5)),
    SpaceSpec(RadialRn(1), BuckleyEta(0.5)),
    SpaceSpec(RadialRn(1), BuckleyEta(0.3)),
    SpaceSpec(RadialRn(1), SummedBuckley(0.5, DEFAULT_SUMMED_TERMS)),
    SpaceSpec(RadialRn(2), Tabulated((0.5, 1.0, 2.0), (1.0, 3.0, 2.0))),
] + [SpaceSpec(HalfLine(), HalfLineCatalog(k)) for k in HalfLineKind]


@settings(**COMMON)
@given(space=st.sampled_from(PROFILE_SPACES),
       lo=st.floats(min_value=0.005, max_value=10.0),
       ratio=st.floats(min_value=1.05, max_value=100.0),
       on_singularities=st.booleans())
def test_volume_profile_matches_per_point_mu_ball(space, lo, ratio, on_singularities):
    hi = lo * ratio
    rho = np.geomspace(lo, hi, 9)
    if on_singularities:
        rho = np.union1d(rho, [s for s in space.weight.singularities() if lo < s < hi])
    ref = np.array([mu_ball(space, x) for x in rho])
    assert np.max(np.abs(volume_profiles(space, [rho])[0] - ref) / ref) <= 1e-10


@settings(deadline=None, max_examples=60)
@given(space=st.sampled_from(PROFILE_SPACES),
       lo=st.floats(min_value=0.05, max_value=4.0),
       ratio=st.floats(min_value=1.01, max_value=10.0),
       pin=st.sampled_from([None, "r", "R", "inside"]),
       which=st.integers(min_value=0, max_value=7),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_inf_cut_below_every_sphere_cut(space, lo, ratio, pin, which, fracs):
    # pin puts a singularity (an infinite cut cost for Buckley) at an
    # endpoint or inside the annulus
    w, m, const = _radial_reduction(space)
    sing = [s for s in w.singularities() if s > 0]
    r, R = lo, lo * ratio
    if pin and sing:
        s = sing[which % len(sing)]
        r, R = {"r": (s, s * ratio), "R": (s / ratio, s),
                "inside": (s / math.sqrt(ratio), s * math.sqrt(ratio))}[pin]
    value = cap_radial_p1(space, AnnulusSpec(r, R)).value
    assert math.isfinite(value) and value >= 0
    for f in fracs:
        t = min(R, r + f * (R - r))
        assert value <= const * t**m * float(w.evaluate(t)) * (1 + 1e-15)


def _buckley_offset_integral(eta, d, length, k):
    """int_d^(d + length) (t^(eta - 1))^k dt in closed form, for d + length <= 1,
    without cancellation however thin."""
    e = 1.0 + (eta - 1.0) * k
    if d == 0.0:
        return length**e / e
    return d**e * math.expm1(e * math.log1p(length / d)) / e


@settings(deadline=None, max_examples=60)
@given(eta=st.sampled_from((0.5, 0.3, 0.1)), p=st.sampled_from((1.1, 1.5, 2.5)),
       gap=st.one_of(st.just(0.0), st.floats(min_value=1e-15, max_value=0.1)),
       thin=st.floats(min_value=1e-12, max_value=1.0), above=st.booleans())
def test_annuli_next_to_a_pole_match_the_closed_form(eta, p, gap, thin, above):
    # Buckley on R^1 has |rho - 1|^(eta - 1) within 1 of its pole: annuli at
    # any distance gap from the pole, however thin, against the closed form
    # in the exact offsets of their float radii from 1
    space = SpaceSpec(RadialRn(1), BuckleyEta(eta))
    if above:
        r = 1.0 + gap
        R = r + max(thin * max(gap, 1e-3), 4e-16)
        d, length = r - 1.0, R - r
    else:
        R = 1.0 - gap
        r = R - max(thin * max(gap, 1e-3), 4e-16)
        d, length = 1.0 - R, R - r
    assume(d + length <= 1.0)
    exact = 2.0 * _buckley_offset_integral(eta, d, length, 1.0)
    val, err = mu_annulus_detailed(space, AnnulusSpec(r, R))
    assert val == pytest.approx(exact, rel=1e-12)
    assert err >= abs(val - exact)
    exact = 2.0 * _buckley_offset_integral(eta, d, length, 1.0 / (1.0 - p)) ** (1.0 - p)
    assert cap_radial_weighted(space, p, AnnulusSpec(r, R)).value == pytest.approx(exact, rel=1e-9)


@settings(**COMMON)
@given(alpha=st.floats(min_value=-1.5, max_value=2.0),
       R=st.floats(min_value=0.1, max_value=2.0),
       lam=st.floats(min_value=0.5, max_value=4.0))
def test_power_alpha_scaling_law(alpha, R, lam):
    space = SpaceSpec(RadialRn(2), PowerAlpha(alpha))
    left = mu_ball(space, lam * R)
    right = lam ** (2.0 + alpha) * mu_ball(space, R)
    assert left == pytest.approx(right, rel=1e-7)


# The bow-tie, |x|^alpha dx on its cone in R^n, at alpha = -n + shift, down to
# shift 1e-3, where half of the mass lies closer to the pinch x1 = 0
# than a float offset from it reaches.  Annuli are at least 1e-6 of their
# radius thick: a thinner slice mass loses digits to the difference of its
# two closed-form terms.
bowtie_n = st.sampled_from((2, 3, 4))
bowtie_shift = st.floats(min_value=1e-3, max_value=6.0)
bowtie_radius = st.floats(min_value=0.02, max_value=3.1)  # the diameter is sqrt(10)
bowtie_ratio = st.floats(min_value=1.0 + 1e-6, max_value=3.0)


@settings(**COMMON)
@given(n=bowtie_n, shift=bowtie_shift, r1=bowtie_radius, g1=bowtie_ratio, g2=bowtie_ratio)
def test_bowtie_measure_is_additive(n, shift, r1, g1, g2):
    # the three annuli's panels break at different x1: a misplaced
    # breakpoint shows as a mismatch.  r3 may pass the diameter.
    r2 = r1 * g1
    r3 = r2 * g2
    space = SpaceSpec(BowTie(n, -n + shift))
    split = mu_annulus(space, AnnulusSpec(r1, r2)) + mu_annulus(space, AnnulusSpec(r2, r3))
    assert split == pytest.approx(mu_annulus(space, AnnulusSpec(r1, r3)), rel=1e-12)


@settings(**COMMON)
@given(n=bowtie_n, shift=bowtie_shift, R=bowtie_radius, ratio=bowtie_ratio)
def test_bowtie_ball_measure_increases_with_R(n, shift, R, ratio):
    # within the error estimates: the mass gained can be below the rounding,
    # as it is past R = 1, where the ball reaches the pinch
    space = SpaceSpec(BowTie(n, -n + shift))
    small, small_err = mu_ball_detailed(space, R)
    big, big_err = mu_ball_detailed(space, R * ratio)
    assert big + big_err >= small - small_err


def _bowtie_whole_cone(n, alpha):
    """The cone's measure in closed form: the slice at x1 is |x1|^(alpha + n - 1)
    times the one at |x1| = 1, a ball of radius 1/2 in R^(n-1)."""
    unit_slice = (surface_area(n - 1) / (n - 1) * 0.5 ** (n - 1)
                  * hyp2f1(-alpha / 2.0, (n - 1) / 2.0, (n + 1) / 2.0, -0.25))
    return unit_slice * (1.0 + 2.0 ** (alpha + n)) / (alpha + n)


@settings(**COMMON)
@given(n=bowtie_n, shift=bowtie_shift)
def test_bowtie_error_estimate_covers_the_whole_cone_error(n, shift):
    alpha = -n + shift
    exact = _bowtie_whole_cone(n, alpha)
    val, err = mu_ball_detailed(SpaceSpec(BowTie(n, alpha)), 5.0)
    assert val == pytest.approx(exact, rel=1e-12)
    assert err >= abs(val - exact)


@settings(**COMMON)
@given(n=st.integers(min_value=1, max_value=4), p=ps,
       r=st.floats(min_value=0.2, max_value=1.0),
       gap=st.floats(min_value=0.1, max_value=3.0))
def test_radial_integral_agrees_with_closed_form(n, p, r, gap):
    ann = AnnulusSpec(r, r + gap)
    space = SpaceSpec(RadialRn(n), Constant())
    exact = cap_rn_unweighted(n, p, ann).value
    assert cap_radial_weighted(space, p, ann).value == pytest.approx(exact, rel=1e-7)


# Metamorphic: on unweighted R^n, x -> lam x maps the condenser (r, R) onto
# (lam r, lam R) and multiplies the capacity by lam^(n - p).  A power of two
# keeps the radii exact, so a misplaced plate or a lost constant shows far
# above rounding.
scale_n = st.integers(min_value=1, max_value=4)
scale_lam = st.integers(min_value=-10, max_value=10).map(lambda k: 2.0**k)
scale_r = st.floats(min_value=0.05, max_value=8.0)
scale_ratio = st.floats(min_value=1.01, max_value=10.0)


@settings(deadline=None, max_examples=60)
@given(n=scale_n, p=st.floats(min_value=1.05, max_value=5.0), lam=scale_lam, r=scale_r,
       ratio=scale_ratio)
def test_radial_integral_capacity_scales_by_lam_to_the_n_minus_p(n, p, lam, r, ratio):
    space = SpaceSpec(RadialRn(n), Constant())
    R = r * ratio
    base = cap_radial_weighted(space, p, AnnulusSpec(r, R)).value
    scaled = cap_radial_weighted(space, p, AnnulusSpec(lam * r, lam * R)).value
    assert scaled == pytest.approx(lam ** (n - p) * base, rel=1e-12)


@settings(**COMMON)
@given(n=scale_n, p=st.sampled_from((1.5, 2.0, 3.0)), lam=scale_lam, r=scale_r,
       ratio=scale_ratio)
def test_network_energy_scales_by_lam_to_the_n_minus_p(n, p, lam, r, ratio):
    space = SpaceSpec(RadialRn(n), Constant())
    R = r * ratio

    def energy(a, b):
        net = build_radial_network(space, a, b, 64)
        rep = solve_p_energy(net, condenser_bc(net, a, b), p)
        assert rep.converged
        return rep.energy

    assert energy(lam * r, lam * R) == pytest.approx(lam ** (n - p) * energy(r, R), rel=1e-12)


@settings(**COMMON)
@given(p=ps, r=st.floats(min_value=0.2, max_value=1.0),
       gap=st.floats(min_value=0.1, max_value=1.0),
       extra=st.floats(min_value=0.05, max_value=2.0))
def test_capacity_monotone_in_condenser(p, r, gap, extra):
    # enlarging the gap can only lower the capacity
    tight = cap_rn_unweighted(2, p, AnnulusSpec(r, r + gap)).value
    wide = cap_rn_unweighted(2, p, AnnulusSpec(r, r + gap + extra)).value
    assert wide <= tight * (1.0 + 1e-12)


def _random_path_net(rng, n_edges):
    idx = np.arange(n_edges)
    return DiscreteNetwork(
        num_vertices=n_edges + 1, edge_i=idx, edge_j=idx + 1,
        lengths=rng.uniform(0.1, 2.0, n_edges), masses=rng.uniform(0.1, 2.0, n_edges),
    )


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000), p=ps)
def test_maximum_principle_random_networks(seed, p):
    rng = np.random.default_rng(seed)
    net = _random_path_net(rng, 12)
    rep = solve_p_energy(net, BoundaryCondition(inner=[0], outer=[12]), p)
    assert rep.potential.min() >= -1e-9
    assert rep.potential.max() <= 1.0 + 1e-9


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000), p=ps)
def test_minimizer_beats_random_feasible_profiles(seed, p):
    rng = np.random.default_rng(seed)
    net = _random_path_net(rng, 10)
    rep = solve_p_energy(net, BoundaryCondition(inner=[0], outer=[10]), p)
    for _ in range(20):
        u = rng.uniform(0.0, 1.0, net.num_vertices)
        u[0], u[-1] = 1.0, 0.0
        d = np.abs(u[net.edge_i] - u[net.edge_j])
        feas = float(np.sum(net.masses * (d / net.lengths) ** p))
        assert rep.energy <= feas * (1.0 + 1e-7) + 1e-12


@settings(**COMMON)
@given(p=ps, j=st.integers(min_value=2, max_value=12))
def test_upper_simple_dominates_capacity(p, j):
    # cap <= mu(ann) / delta^p with constant exactly 1
    ann = AnnulusSpec(1.0 - 2.0**-j, 1.0)
    cap = cap_rn_unweighted(2, p, ann).value
    bound = mu_annulus(SpaceSpec(RadialRn(2), Constant()), ann) / ann.delta**p
    assert cap <= bound * (1.0 + 1e-10)


@st.composite
def _theil_sen_samples(draw):
    n = draw(st.integers(min_value=2, max_value=200))
    column = arrays(np.float64, n, elements=st.floats(-1e3, 1e3, allow_subnormal=False),
                    fill=st.nothing())
    # rounding ties values in x and y; repeating x values gives pairs with dx = 0
    digits = draw(st.sampled_from([None, 0, 1]))
    x, y = (draw(column) if digits is None else np.round(draw(column), digits) for _ in "xy")
    if draw(st.booleans()):
        x = x[draw(arrays(np.intp, n, elements=st.integers(0, n - 1), fill=st.nothing()))]
    assume(np.ptp(x) > 0)
    return x, y


@settings(deadline=None, max_examples=100)
@given(xy=_theil_sen_samples())
def test_theil_sen_slope_has_scipys_bits(xy):
    x, y = xy
    with np.errstate(all="ignore"):
        want = np.float64(stats.theilslopes(y, x).slope)
        got = np.float64(_theil_sen_slope(x, y))
    assert got.tobytes() == want.tobytes(), (x, y, got, want)


def test_theil_sen_slope_of_equal_abscissae_is_an_input_error():
    # scipy returns a NaN slope here, with a warning
    with pytest.raises(InputError, match="abscissae"):
        _theil_sen_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# Families: one _radial_integral call over many intervals gives each interval
# what it gets alone, bit for bit, errors included.  The radii span decades
# and land on the gallery weights' poles and kinks.
_RADIAL_GALLERY = {e.name: e.space for e in default_gallery()
                   if isinstance(e.space.geometry, (RadialRn, HalfLine))}
_family_radius = st.one_of(st.floats(min_value=1e-4, max_value=1e3),
                           st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)))
_interval = st.tuples(st.booleans(), _family_radius, _family_radius).filter(
    lambda t: t[1] != t[2]).map(lambda t: (0.0 if t[0] else min(t[1:]), max(t[1:])))


def _bits(result):
    """A result as its exact bits: (value, error) in hex, or an error's type,
    message and achieved error."""
    if isinstance(result, AnncapError):
        return type(result), str(result), getattr(result, "achieved_error", None)
    return tuple(float(x).hex() for x in result)


@settings(deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(_RADIAL_GALLERY)), p=st.floats(min_value=1.05, max_value=4.0),
       capacity=st.booleans(), family=st.lists(_interval, min_size=1, max_size=6))
def test_a_family_integral_is_each_interval_alone_bit_for_bit(name, p, capacity, family):
    w, m, _ = _radial_reduction(_RADIAL_GALLERY[name])
    k = 1.0 / (1.0 - p) if capacity else 1.0
    together = _radial_integral(w, m, family, k)
    alone = [_radial_integral(w, m, [interval], k)[0] for interval in family]
    assert [_bits(res) for res in together] == [_bits(res) for res in alone]


# A bow-tie family: balls and annuli, R past the diameter sqrt(10) among
# them, and thin annuli r = R(1 - 2^-j) down to j = 30, where R = 0.02
# misses the quadrature gate from about j = 25.
_bowtie_R = st.one_of(st.floats(min_value=0.02, max_value=3.5), st.sampled_from((0.02, 1.0, 2.0)))
_bowtie_interval = st.tuples(_bowtie_R, st.integers(min_value=0, max_value=30)).map(
    lambda t: (0.0 if t[1] == 0 else t[0] * (1.0 - 2.0**-t[1]), t[0]))


@settings(deadline=None, max_examples=40)
@given(n=st.sampled_from((2, 3)), alpha=st.sampled_from((-0.5, 0.5)),
       family=st.lists(_bowtie_interval, min_size=1, max_size=6))
@example(n=2, alpha=0.5, family=[(0.0, 0.02), (0.02 * (1.0 - 2.0**-30), 0.02), (0.5, 1.0)])
def test_a_bowtie_family_is_each_interval_alone_bit_for_bit(n, alpha, family):
    space = SpaceSpec(BowTie(n, alpha))
    together = _measure_family(space, family)
    alone = [_measure_family(space, [interval])[0] for interval in family]
    assert [_bits(res) for res in together] == [_bits(res) for res in alone]


def _snake_ball_loop(geom, R):
    """mu(B_R) of the snake by the scalar loop: R plus pi 2^k for each
    2^k < R with k < k_max, added in order of k."""
    if R > geom.max_radius:
        raise DomainError(
            f"snake represents radii up to 2^{geom.k_max} = {geom.max_radius}, got R = {R}")
    total, k = R, 0
    while k < geom.k_max and 2.0**k < R:
        total += math.pi * 2.0**k
        k += 1
    return total


# radii at, just below and just above the jumps 2^k, between them, and past
# 2^k_max for k_max = 3
_snake_radius = st.integers(min_value=0, max_value=12).flatmap(lambda k: st.one_of(
    st.sampled_from((2.0**k, math.nextafter(2.0**k, 0.0), math.nextafter(2.0**k, math.inf))),
    st.floats(min_value=2.0**(k - 1), max_value=2.0**k)))


@settings(deadline=None, max_examples=60)
@given(k_max=st.sampled_from((3, 10)),
       family=st.lists(st.tuples(st.booleans(), _snake_radius, _snake_radius), min_size=1,
                       max_size=8))
def test_the_snake_family_is_the_scalar_loop_bit_for_bit(k_max, family):
    geom = Snake(k_max)
    family = [(0.0 if ball else min(a, b), max(a, b)) for ball, a, b in family]
    loop = [attempt(lambda r, R: (_snake_ball_loop(geom, R) - _snake_ball_loop(geom, r), 0.0), r, R)
            for r, R in family]
    assert [_bits(res) for res in _measure_family(SpaceSpec(geom), family)] == [
        _bits(res) for res in loop]


@settings(deadline=None, max_examples=25)
@given(space=st.sampled_from(PROFILE_SPACES + [SpaceSpec(Snake()), SpaceSpec(BowTie(2, 0.5))]),
       shared_lo=st.booleans(),
       grids=st.lists(st.tuples(st.floats(min_value=0.005, max_value=10.0),
                                st.floats(min_value=1.05, max_value=100.0),
                                st.integers(min_value=2, max_value=33)), min_size=1, max_size=4))
def test_volume_profiles_are_each_grid_alone_bit_for_bit(space, shared_lo, grids):
    # the 1-AD probe's grids share their first radius
    starts = [grids[0][0] if shared_lo else lo for lo, _, _ in grids]
    grids = [np.geomspace(lo, lo * ratio, size) for lo, (_, ratio, size) in zip(starts, grids)]
    alone = [volume_profiles(space, [rho])[0] for rho in grids]
    assert [f.tobytes() for f in volume_profiles(space, grids)] == [f.tobytes() for f in alone]
