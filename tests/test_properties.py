"""Property-based invariants: measure monotonicity and scaling, capacity
monotonicity and formula agreement, and discrete variational principles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anncap.capacity import cap_radial_weighted, cap_rn_unweighted
from anncap.gallery import DEFAULT_SUMMED_TERMS
from anncap.measure import mu_annulus, mu_ball, volume_profile
from anncap.network import BoundaryCondition, DiscreteNetwork, solve_p_energy
from anncap.spaces import AnnulusSpec, HalfLine, RadialRn, SpaceSpec
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


# Buckley at the gallery's eta = 0.5: at eta = 0.3 adaptive quadrature on a
# panel ending at the singularity is itself only good to about 1e-10.  lo >=
# 0.02: below it mu_ball's absolute tolerance dominates e^(-1/R) on the
# exp-inv-over-x-sq half-line, for the reference as much as the profile.
PROFILE_SPACES = [
    SpaceSpec(RadialRn(2), Constant(1.5)),
    SpaceSpec(RadialRn(3), PowerAlpha(0.7)),
    SpaceSpec(RadialRn(1), PowerAlpha(-0.5)),
    SpaceSpec(RadialRn(2), PowerAlpha(-1.5)),
    SpaceSpec(RadialRn(1), BuckleyEta(0.5)),
    SpaceSpec(RadialRn(1), SummedBuckley(0.5, DEFAULT_SUMMED_TERMS)),
    SpaceSpec(RadialRn(2), Tabulated((0.5, 1.0, 2.0), (1.0, 3.0, 2.0))),
] + [SpaceSpec(HalfLine(), HalfLineCatalog(k)) for k in HalfLineKind]


@settings(**COMMON)
@given(space=st.sampled_from(PROFILE_SPACES),
       lo=st.floats(min_value=0.02, max_value=10.0),
       ratio=st.floats(min_value=1.05, max_value=100.0),
       on_singularities=st.booleans())
def test_volume_profile_matches_per_point_mu_ball(space, lo, ratio, on_singularities):
    hi = lo * ratio
    rho = np.geomspace(lo, hi, 9)
    if on_singularities:
        rho = np.union1d(rho, [s for s in space.weight.singularities() if lo < s < hi])
    ref = np.array([mu_ball(space, x) for x in rho])
    assert np.max(np.abs(volume_profile(space, rho) - ref) / ref) <= 1e-10


@settings(**COMMON)
@given(alpha=st.floats(min_value=-1.5, max_value=2.0),
       R=st.floats(min_value=0.1, max_value=2.0),
       lam=st.floats(min_value=0.5, max_value=4.0))
def test_power_alpha_scaling_law(alpha, R, lam):
    space = SpaceSpec(RadialRn(2), PowerAlpha(alpha))
    left = mu_ball(space, lam * R)
    right = lam ** (2.0 + alpha) * mu_ball(space, R)
    assert left == pytest.approx(right, rel=1e-7)


@settings(**COMMON)
@given(n=st.integers(min_value=1, max_value=4), p=ps,
       r=st.floats(min_value=0.2, max_value=1.0),
       gap=st.floats(min_value=0.1, max_value=3.0))
def test_radial_integral_agrees_with_closed_form(n, p, r, gap):
    ann = AnnulusSpec(r, r + gap)
    space = SpaceSpec(RadialRn(n), Constant())
    exact = cap_rn_unweighted(n, p, ann).value
    assert cap_radial_weighted(space, p, ann).value == pytest.approx(exact, rel=1e-7)


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
