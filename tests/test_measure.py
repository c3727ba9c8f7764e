import math

import numpy as np
import pytest

from anncap.errors import InputError
from anncap.measure import (
    _quad,
    mu_annulus,
    mu_annulus_detailed,
    mu_ball,
    mu_ball_detailed,
    volume_profile,
)
from anncap.spaces import (
    AnnulusSpec,
    BowTie,
    CenterTag,
    HalfLine,
    RadialRn,
    Snake,
    SpaceSpec,
    surface_area,
)
from anncap.weights import BuckleyEta, Constant, HalfLineCatalog, HalfLineKind, PowerAlpha

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
    space = SpaceSpec(BowTie(2, 1e-12), center=CenterTag.BOWTIE_TIP)
    assert mu_ball(space, 4.0) == pytest.approx(2.5, rel=1e-6)


def test_bowtie_thin_annulus_exponent():
    # mu(B_1 \ B_{1-t}) ~ t^(n + alpha) through the pinch at the origin
    space = SpaceSpec(BowTie(2, 0.5), center=CenterTag.BOWTIE_TIP)
    t1, t2 = 2.0**-4, 2.0**-6
    m1 = mu_annulus(space, AnnulusSpec(1.0 - t1, 1.0))
    m2 = mu_annulus(space, AnnulusSpec(1.0 - t2, 1.0))
    exponent = math.log(m1 / m2) / math.log(t1 / t2)
    assert exponent == pytest.approx(2.5, abs=0.1)


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
