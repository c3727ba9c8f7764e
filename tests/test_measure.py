import math

import numpy as np
import pytest
from scipy.special import hyp2f1

from anncap.gallery import DEFAULT_SUMMED_TERMS
from anncap.measure import (
    mu_annulus,
    mu_annulus_detailed,
    mu_ball,
    mu_ball_detailed,
    volume_profiles,
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


def _buckley_mass(eta, R):
    """int_0^R max{1, |rho - 1|^(eta - 1)} drho in closed form."""
    if R <= 1.0:
        return (1.0 - (1.0 - R) ** eta) / eta
    if R <= 2.0:
        return (1.0 + (R - 1.0) ** eta) / eta
    return 2.0 / eta + R - 2.0


@pytest.mark.parametrize("eta", [0.5, 0.3, 0.1, 0.03, 0.01])
def test_buckley_balls_across_the_pole_match_the_closed_form(eta):
    # the panels that end at the pole rho = 1 are integrated in
    # u = |rho - 1|^eta, where the mass below any float offset from 1 is kept
    space = SpaceSpec(RadialRn(1), BuckleyEta(eta))
    for R, exact in ((1.0, 2.0 / eta), (1.5, 2.0 * (1.0 + 0.5**eta) / eta),
                     (3.0, 2.0 * (2.0 / eta + 1.0))):
        val, err = mu_ball_detailed(space, R)
        assert val == pytest.approx(exact, rel=1e-12)
        assert err >= abs(val - exact)


def test_summed_buckley_balls_match_the_closed_form():
    # term j is a_j / q_j times the Buckley mass up to q_j R, with its pole at 1/q_j
    for eta in (0.5, 0.1):
        space = SpaceSpec(RadialRn(1), SummedBuckley(eta, DEFAULT_SUMMED_TERMS))
        for R in (0.25, 0.375, 0.5, 1.0, 2.5):
            exact = 2.0 * sum(a / q * _buckley_mass(eta, q * R) for q, a in DEFAULT_SUMMED_TERMS)
            val, err = mu_ball_detailed(space, R)
            assert val == pytest.approx(exact, rel=1e-12)
            assert err >= abs(val - exact)


@pytest.mark.parametrize("n", [1, 2])
def test_power_alpha_near_minus_n_matches_the_closed_form(n):
    # rho^(n - 1 + alpha) with n + alpha = 0.01 is integrated in u = rho^0.01,
    # where it is constant
    alpha = -n + 0.01
    space = SpaceSpec(RadialRn(n), PowerAlpha(alpha))
    for R in (0.5, 1.0, 3.0):
        exact = surface_area(n) * R ** (n + alpha) / (n + alpha)
        val, err = mu_ball_detailed(space, R)
        assert val == pytest.approx(exact, rel=1e-12)
        assert err >= abs(val - exact)


def test_tiny_exp_inv_balls_are_relatively_accurate():
    # mu(B_R) = e^(-1/R): 1.4e-87 at R = 0.005
    inv = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.EXP_INV_OVER_X_SQ))
    for R in (0.005, 0.011):
        val, err = mu_ball_detailed(inv, R)
        assert val == pytest.approx(math.exp(-1.0 / R), rel=1e-12)
        assert err >= abs(val - math.exp(-1.0 / R))


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


# mu(B_R) at R = 0.3, 0.5, 1, 1.5, 2, sqrt(10) and 5, then mu(B_R \ B_r) on the
# thin families r = R (1 - 2^-j), j = 1..10, at R = 0.02, 1 and 2, of the planar
# bow-tie.  The references were computed with mpmath at 40 digits: each slice
# mass 2 |x1|^alpha s 2F1(-alpha/2, 1/2; 3/2; -s^2/x1^2) between its limits,
# integrated over x1 by mpmath.quad between the same breakpoints.  At 60 digits
# they agree to 1e-40, and a nested mpmath.quad of (x1^2 + s^2)^(alpha/2) over
# the slices agrees to 1e-19.
_BOWTIE_2D_CASES = (
    [(0.0, R) for R in (0.3, 0.5, 1.0, 1.5, 2.0, math.sqrt(10.0), 5.0)]
    + [(R * (1.0 - 2.0**-j), R) for R in (0.02, 1.0, 2.0) for j in range(1, 11)]
)
_BOWTIE_2D_MPMATH = {
    -0.5: (
        0.15078230700079293, 0.40397402149319667, 0.653928979067195, 0.8806130926191748,
        1.2890961234605118, 2.5035194411184327, 2.5035194411184327, 0.00047357959530433877,
        0.00027643639347800573, 0.00014814561455499237, 7.655663535835966e-05,
        3.8899521560259365e-05, 1.9605092617853043e-05, 9.841383127404437e-06,
        4.9304012507409365e-06, 2.4676281074349975e-06, 1.234420931771884e-06, 0.24995495757399833,
        0.08352901220061633, 0.02916052263005443, 0.01026005788334166, 0.0036196945959156707,
        0.0012784564212728184, 0.000451779348262979, 0.00015968919739087946, 5.645182371330634e-05,
        1.995752981999805e-05, 0.6351671443933169, 0.40848303084133725, 0.22096301331613388,
        0.11432364875427427, 0.05808849723466615, 0.029272068690975827, 0.014692529345939858,
        0.007360332152392128, 0.0036836759868438705, 0.0018427146057766325,
    ),
    0.5: (
        0.13285329858846937, 0.3251517221649458, 0.4079077429347112, 0.4776276064636316,
        0.7960761308419624, 2.715382391955778, 2.715382391955778, 0.00046891303143355845,
        0.00027335314104918725, 0.00014638524954260692, 7.561786251788886e-05,
        3.841499936164516e-05, 1.9358986550226582e-05, 9.717361223585886e-06,
        4.868147127842183e-06, 2.4364401340523917e-06, 1.2188117021990514e-06, 0.0827560207697654,
        0.013233000415697633, 0.0022885127100174475, 0.0004011957193711124, 7.066038050450214e-05,
        1.246932057230185e-05, 2.2024146310762187e-06, 3.8917258983481244e-07,
        6.878234011691478e-08, 1.2157854934165835e-08, 0.3881683879072511, 0.3184485243783307,
        0.19779392950479643, 0.10929602798893968, 0.05733606588659409, 0.029350754157448273,
        0.014847377019922284, 0.007466852313040048, 0.0037442375147507785, 0.0018748241435450614,
    ),
    1.5: (
        0.11811497489785702, 0.27038612833081616, 0.30325911018916096, 0.32879902431162905,
        0.5857381997858458, 3.7342442825308275, 3.7342442825308275, 0.00046430537296170886,
        0.00027031284053140753, 0.00014465088580620244, 7.469338559552458e-05,
        3.793797069434759e-05, 1.9116716439009794e-05, 9.595279950286748e-06,
        4.806869027917376e-06, 2.4057416046839717e-06, 1.203447553466147e-06, 0.03287298185834485,
        0.0025014241791850686, 0.00021414688521725024, 1.8700900044449683e-05,
        1.6441365795349181e-06, 1.4495671529432348e-07, 1.2796797024884458e-08,
        1.130404650195568e-09, 9.988463189973343e-11, 8.827318039482473e-12, 0.28247908959668494,
        0.25693917547421685, 0.1782777789853533, 0.10467001307124402, 0.05662780453081874,
        0.02943984023968203, 0.01500808754678111, 0.007576926594358508, 0.003806789470786463,
        0.001907989484018546,
    ),
}


@pytest.mark.parametrize("alpha", sorted(_BOWTIE_2D_MPMATH))
def test_bowtie_2d_matches_mpmath_references(alpha):
    space = SpaceSpec(BowTie(2, alpha))
    for (r, R), ref in zip(_BOWTIE_2D_CASES, _BOWTIE_2D_MPMATH[alpha], strict=True):
        val = mu_ball(space, R) if r == 0.0 else mu_annulus(space, AnnulusSpec(r, R))
        assert val == pytest.approx(ref, rel=1e-12, abs=0.0), (r, R)
    # the whole cone: the slice at x1 is |x1|^(alpha + 1) times the one at
    # |x1| = 1, and |x1|^(alpha + 1) integrates over [-1, 2] to
    # (1 + 2^(alpha + 2))/(alpha + 2)
    exact = (2.0 * (1.0 + 2.0 ** (alpha + 2.0)) / (alpha + 2.0)
             * 0.5 * hyp2f1(-alpha / 2.0, 0.5, 1.5, -0.25))
    assert mu_ball(space, 5.0) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("alpha", [-2.5, -1.5, 0.5, 1.5])
def test_bowtie_3d_whole_cone_closed_form(alpha):
    # the slice at x1 is a disc of radius |x1|/2 with mass
    # 2 pi/(alpha + 2) |x1|^(alpha + 2) ((5/4)^(alpha/2 + 1) - 1), and
    # |x1|^(alpha + 2) integrates over [-1, 2] to (1 + 2^(alpha + 3))/(alpha + 3)
    space = SpaceSpec(BowTie(3, alpha))
    exact = (2.0 * math.pi / (alpha + 2.0) * (1.25 ** (alpha / 2.0 + 1.0) - 1.0)
             * (1.0 + 2.0 ** (alpha + 3.0)) / (alpha + 3.0))
    assert mu_ball(space, 4.0) == pytest.approx(exact, rel=1e-10)


def test_bowtie_pinch_mass_is_in_the_measure():
    # at n + alpha = 0.01 the slice mass is 0.93 |x1|^-0.99, and about 0.2%
    # of the cone's measure lies within 1e-275 of the pinch x1 = 0, closer
    # than a float offset from x1 = 0 reaches
    alpha = -1.99
    exact = (2.0 * (1.0 + 2.0 ** (alpha + 2.0)) / (alpha + 2.0)
             * 0.5 * hyp2f1(-alpha / 2.0, 0.5, 1.5, -0.25))
    val, err = mu_ball_detailed(SpaceSpec(BowTie(2, alpha)), 5.0)
    assert val == pytest.approx(exact, rel=1e-12)
    assert err >= abs(val - exact)


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


def test_volume_profile_with_grid_points_on_singularities():
    # Buckley's blow-up at 1 and kink at 2 both sit on grid points
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    rho = np.union1d(np.geomspace(0.25, 4.0, 33), [1.0, 2.0])
    ref = np.array([mu_ball(space, x) for x in rho])
    assert np.max(np.abs(volume_profiles(space, [rho])[0] - ref) / ref) <= 1e-10


def test_volume_profile_without_radial_reduction_is_per_point():
    space = SpaceSpec(Snake())
    rho = np.geomspace(1.5, 64.0, 17)
    assert np.array_equal(volume_profiles(space, [rho])[0], [mu_ball(space, x) for x in rho])


def test_volume_profile_on_panels_wider_than_its_mass():
    # on the panel [0.5, 24613.5] every GL8 node of both rules lies past the
    # mass of e^-rho, so both read about 0; mu(B_rho) = 1 - e^-rho
    space = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.EXP_DECAY))
    rho = np.geomspace(0.5, 1e300, 65)
    assert np.max(np.abs(volume_profiles(space, [rho])[0] / -np.expm1(-rho) - 1.0)) <= 1e-9


def test_large_balls_on_the_half_line():
    # a ball past PANEL_RATIO is cut geometrically below R, so the tanh-sinh
    # nodes of its first panel still see e^-rho's mass, and 1/rho's is split
    exp = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.EXP_DECAY))
    for R in np.geomspace(0.5, 1e300, 65):
        assert abs(mu_ball(exp, float(R)) + math.expm1(-R)) <= 1e-10, R
    m1x = SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.MIN_ONE_OVER_X))
    for R in (1e9, 1e50, 1e200, 1e300):
        assert abs(mu_ball(m1x, R) - (1.0 + math.log(R))) <= 1e-10, R
