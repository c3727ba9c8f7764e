import math

import numpy as np
import pytest

from anncap.capacity import cap_radial_weighted
from anncap.gallery import DEFAULT_SUMMED_TERMS
from anncap.measure import (
    _ball_limit,
    _bowtie_x1_breakpoints,
    _quad,
    _radial_reduction,
    mu_annulus,
    mu_annulus_detailed,
    mu_ball,
    mu_ball_detailed,
    volume_profile,
)
from anncap.spaces import (
    AnnulusSpec,
    BowTie,
    HalfLine,
    RadialRn,
    Snake,
    SpaceSpec,
    surface_area,
)
from anncap.weights import (
    BuckleyEta,
    Constant,
    HalfLineCatalog,
    HalfLineKind,
    PowerAlpha,
    SummedBuckley,
)

RN2 = SpaceSpec(RadialRn(2), Constant())
RN3 = SpaceSpec(RadialRn(3), Constant())


def test_unweighted_ball_volumes():
    assert mu_ball(RN2, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert mu_ball(RN3, 1.5) == pytest.approx(4.0 / 3.0 * math.pi * 1.5**3, rel=1e-12)


def test_annulus_additivity():
    for space in (RN2, SpaceSpec(RadialRn(1), BuckleyEta(0.5))):
        whole = mu_ball(space, 2.0)
        split = mu_ball(space, 0.7) + mu_annulus(space, AnnulusSpec(0.7, 2.0))
        assert split == pytest.approx(whole, rel=1e-10)


def test_power_alpha_scaling():
    # mu(B_{lam R}) = lam^(n + alpha) mu(B_R) exactly for |x|^alpha dx
    space = SpaceSpec(RadialRn(2), PowerAlpha(-0.5))
    lam = 3.0
    assert mu_ball(space, lam * 0.8) == pytest.approx(
        lam**1.5 * mu_ball(space, 0.8), rel=1e-10
    )


def test_buckley_closed_form():
    # n = 1, eta = 1/2: mu(B_{1/2}) = 2 int_0^{1/2} (1-rho)^(-1/2) = 2 (2 - sqrt 2)
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    assert mu_ball(space, 0.5) == pytest.approx(2.0 * (2.0 - math.sqrt(2.0)), rel=1e-10)


def test_buckley_comparable_to_lebesgue():
    # the weight is >= 1 and integrable across the singularity, so ball
    # volumes stay within a bounded window of R^n over many scales
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.3))
    ratios = [mu_ball(space, 2.0**j) / 2.0 ** (j + 1) for j in range(-8, 9)]
    assert min(ratios) >= 1.0
    assert max(ratios) <= 50.0


def test_halfline_identities():
    m1x = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.MIN_ONE_OVER_X))
    assert mu_ball(m1x, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert mu_ball(m1x, 4.0) == pytest.approx(1.0 + math.log(4.0), abs=1e-10)
    assert mu_annulus(m1x, AnnulusSpec(8.0, 16.0)) == pytest.approx(math.log(2.0), abs=1e-10)
    exp = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.EXP_DECAY))
    assert mu_ball(exp, 3.0) == pytest.approx(1.0 - math.exp(-3.0), abs=1e-12)
    inv = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.EXP_INV_OVER_X_SQ))
    assert mu_ball(inv, 0.25) == pytest.approx(math.exp(-4.0), rel=1e-10)
    # the mass below R = 1e-160 is 0 to double precision, not a singularity
    assert mu_ball(inv, 1e-160) == 0.0
    assert mu_annulus(inv, AnnulusSpec(1e-170, 1e-160)) == 0.0


def test_snake_ball_jumps():
    space = SpaceSpec(Snake())
    # f(R) = R + pi sum_{2^k < R} 2^k; a half-circle of length pi 2^k
    # arrives all at once at radius 2^k
    assert mu_ball(space, 0.5) == pytest.approx(0.5)
    assert mu_ball(space, 2.01) == pytest.approx(2.01 + 3.0 * math.pi)
    jump = mu_ball(space, 4.0 + 1e-12) - mu_ball(space, 4.0 - 1e-12)
    assert jump == pytest.approx(4.0 * math.pi, rel=1e-9)


def test_bowtie_total_area():
    # unweighted planar cone area = int_{-1}^{2} |x1| dx1 = 5/2
    space = SpaceSpec(BowTie(2, 1e-12))
    assert mu_ball(space, 4.0) == pytest.approx(2.5, rel=1e-6)


def test_bowtie_thin_annulus_exponent():
    # mu(B_1 \ B_{1-t}) ~ t^(n + alpha) through the pinch at the origin
    space = SpaceSpec(BowTie(2, 0.5))
    t1, t2 = 2.0**-4, 2.0**-6
    m1 = mu_annulus(space, AnnulusSpec(1.0 - t1, 1.0))
    m2 = mu_annulus(space, AnnulusSpec(1.0 - t2, 1.0))
    exponent = math.log(m1 / m2) / math.log(t1 / t2)
    assert exponent == pytest.approx(2.5, abs=0.1)


def _bowtie_annulus_nested(alpha, r, R, tol=1e-10):
    """The nested adaptive quadrature that computed n = 2 bow-tie measures
    before the closed-form slice replaced it, as it was."""
    R = min(R, math.sqrt(10.0))  # the space's diameter
    inner_tol = max(tol * 1e-2, 1e-14)

    def slice_mass(x1):
        hi = min(abs(x1) / 2.0, _ball_limit(x1, R))
        lo = _ball_limit(x1, r) if abs(x1 + 1.0) < r else 0.0
        if hi <= lo or hi <= 0.0:
            return 0.0
        val, _ = _quad(lambda t: (x1 * x1 + t * t) ** (alpha / 2.0), lo, hi, tol=inner_tol)
        return 2.0 * val  # symmetric in x2

    pts = _bowtie_x1_breakpoints([r, R] if r > 0 else [R])
    return _quad(slice_mass, -1.0, min(2.0, -1.0 + R), points=pts, tol=tol)[0]


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5])
def test_bowtie_2d_matches_nested_quadrature(alpha):
    space = SpaceSpec(BowTie(2, alpha))
    for R in (0.3, 0.5, 1.0, 1.5, 2.0, math.sqrt(10.0), 5.0):
        ref = _bowtie_annulus_nested(alpha, 0.0, R)
        assert mu_ball(space, R) == pytest.approx(ref, rel=1e-14, abs=0.0)
    for R in (1.0, 2.0):
        for j in range(1, 11):
            r = R * (1.0 - 2.0**-j)
            ref = _bowtie_annulus_nested(alpha, r, R)
            assert mu_annulus(space, AnnulusSpec(r, R)) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [-2.5, -1.5, 0.5, 1.5])
def test_bowtie_3d_whole_cone_closed_form(alpha):
    # the slice at x1 is a disc of radius |x1|/2 with mass
    # 2 pi/(alpha + 2) |x1|^(alpha + 2) ((5/4)^(alpha/2 + 1) - 1), and
    # |x1|^(alpha + 2) integrates over [-1, 2] to (1 + 2^(alpha + 3))/(alpha + 3)
    space = SpaceSpec(BowTie(3, alpha))
    exact = (2.0 * math.pi / (alpha + 2.0) * (1.25 ** (alpha / 2.0 + 1.0) - 1.0)
             * (1.0 + 2.0 ** (alpha + 3.0)) / (alpha + 3.0))
    assert mu_ball(space, 4.0) == pytest.approx(exact, rel=1e-10)


def test_detailed_error_estimates():
    val, err = mu_ball_detailed(RN2, 1.0)
    assert val == pytest.approx(math.pi, rel=1e-12)
    assert 0 <= err < 1e-6
    val, err = mu_annulus_detailed(RN2, AnnulusSpec(0.5, 1.0))
    assert val == pytest.approx(math.pi * 0.75, rel=1e-12)


def test_monotonicity_in_radius():
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    radii = [0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0]
    vols = [mu_ball(space, R) for R in radii]
    assert all(b > a for a, b in zip(vols, vols[1:]))


def _replaced_radial_routine(space, r, R):
    """The separate radial and half-line routines that one (r, R) routine
    replaced, as they were."""
    w = space.weight
    if isinstance(space.geometry, HalfLine):
        return _quad(lambda x: float(w.evaluate(x)), r, R, points=w.singularities())
    n = space.geometry.n
    const = surface_area(n)
    val, err = _quad(lambda rho: float(w.evaluate(rho)) * rho ** (n - 1), r, R,
                     points=w.singularities())
    return const * val, const * err


def test_radial_measure_is_bit_identical_to_replaced_routines():
    spaces = [RN2, RN3, SpaceSpec(RadialRn(1), BuckleyEta(0.5)),
              SpaceSpec(RadialRn(2), PowerAlpha(-0.5))]
    spaces += [SpaceSpec(HalfLine(), HalfLineCatalog(k)) for k in HalfLineKind]
    for space in spaces:
        for r, R in ((0.3, 0.9), (0.5, 2.5), (1.0, 4.0)):
            assert mu_ball_detailed(space, R) == _replaced_radial_routine(space, 0.0, R)
            assert mu_annulus_detailed(space, AnnulusSpec(r, R)) == \
                _replaced_radial_routine(space, r, R)


@pytest.mark.parametrize("space", [
    SpaceSpec(RadialRn(1), SummedBuckley(0.5, DEFAULT_SUMMED_TERMS)),
    SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.EXP_INV_OVER_X_SQ)),
], ids=["summed-buckley", "exp-inv-over-x-sq"])
def test_float_path_quadrature_is_bit_identical_to_the_array_path(space):
    # quadrature nodes are Python floats and take the weights' float path; a
    # 0-d array takes the array code, so every node, every adaptive step and
    # every result must be the same
    w, m, const = _radial_reduction(space)
    p = 2.5
    expo = 1.0 / (1.0 - p)

    def density(rho):
        return float(w.evaluate(np.asarray(rho))) * rho**m

    for r, R in ((0.1, 0.45), (0.3, 0.9), (0.25, 2.0), (0.45, 4.0)):
        val, err = _quad(density, 0.0, R, points=w.singularities())
        assert mu_ball_detailed(space, R) == (const * val, const * err)
        val, err = _quad(lambda rho: density(rho) ** expo, r, R, points=w.singularities())
        res = cap_radial_weighted(space, p, AnnulusSpec(r, R))
        assert (res.value, res.quadrature_error) == (
            const * val ** (1.0 - p), const * abs(1.0 - p) * val ** (-p) * err)


def test_volume_profile_with_grid_points_on_singularities():
    # Buckley's blow-up at 1 and kink at 2 both sit on grid points
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    rho = np.union1d(np.geomspace(0.25, 4.0, 33), [1.0, 2.0])
    ref = np.array([mu_ball(space, x) for x in rho])
    assert np.max(np.abs(volume_profile(space, rho) - ref) / ref) <= 1e-10


def test_volume_profile_without_radial_reduction_is_per_point():
    space = SpaceSpec(Snake())
    rho = np.geomspace(1.5, 64.0, 17)
    assert np.array_equal(volume_profile(space, rho), [mu_ball(space, x) for x in rho])
