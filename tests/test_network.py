import math

import numpy as np
import pytest

from anncap.capacity import cap_radial_p1, cap_rn_unweighted, cap_snake
from anncap.errors import ConvergenceError, DomainError, InfeasibleError, InputError
from anncap.measure import _cell_masses
from anncap.network import (
    BoundaryCondition,
    DiscreteNetwork,
    build_bowtie_grid,
    build_radial_network,
    build_snake_network,
    condenser_bc,
    network_from_csv,
    network_to_csv,
    potential_to_csv,
    solve_p_energy,
)
from anncap.spaces import AnnulusSpec, HalfLine, RadialRn, SpaceSpec, surface_area
from anncap.weights import BuckleyEta, Constant, HalfLineCatalog, HalfLineKind

RN2 = SpaceSpec(RadialRn(2), Constant())


def _series_net(lengths, masses):
    n = len(lengths) + 1
    idx = np.arange(n - 1)
    return DiscreteNetwork(num_vertices=n, edge_i=idx, edge_j=idx + 1,
                           lengths=np.array(lengths), masses=np.array(masses))


def test_series_resistance_p2():
    # two resistors in series: energy = 1 / sum(l_e^2 / m_e)
    net = _series_net([1.0, 2.0], [3.0, 5.0])
    bc = BoundaryCondition(inner=[0], outer=[2])
    rep = solve_p_energy(net, bc, 2.0)
    expected = 1.0 / (1.0 / 3.0 + 4.0 / 5.0)
    assert rep.energy == pytest.approx(expected, rel=1e-12)


def test_series_path_exact_any_p():
    # unit-density chain: minimizer is linear, energy = total_length^(1-p)
    net = _series_net([0.5, 1.0, 0.25], [0.5, 1.0, 0.25])
    bc = BoundaryCondition(inner=[0], outer=[3])
    for p in (1.5, 2.0, 3.0):
        rep = solve_p_energy(net, bc, p)
        assert rep.energy == pytest.approx(1.75 ** (1.0 - p), rel=1e-7), p


def test_p1_min_cut():
    # cheapest single edge cut on a path: min over edges of mass/length
    net = _series_net([1.0, 1.0, 1.0], [3.0, 0.5, 2.0])
    bc = BoundaryCondition(inner=[0], outer=[3])
    rep = solve_p_energy(net, bc, 1.0)
    assert rep.energy == pytest.approx(0.5)
    # the cut potential is a feasible 0/1 profile
    assert set(np.unique(rep.potential)) <= {0.0, 1.0}


def test_maximum_principle():
    rng = np.random.default_rng(7)
    net = _series_net(rng.uniform(0.1, 2.0, 40), rng.uniform(0.1, 2.0, 40))
    bc = BoundaryCondition(inner=[0], outer=[40])
    for p in (1.5, 2.0, 2.7):
        rep = solve_p_energy(net, bc, p)
        assert rep.potential.min() >= -1e-10
        assert rep.potential.max() <= 1.0 + 1e-10
        assert rep.potential[0] == 1.0 and rep.potential[-1] == 0.0


def test_energy_below_any_feasible_profile():
    rng = np.random.default_rng(11)
    net = _series_net(rng.uniform(0.1, 2.0, 30), rng.uniform(0.1, 2.0, 30))
    bc = BoundaryCondition(inner=[0], outer=[30])
    p = 2.5
    rep = solve_p_energy(net, bc, p)

    def energy(u):
        d = np.abs(u[net.edge_i] - u[net.edge_j])
        return float(np.sum(net.masses * (d / net.lengths) ** p))

    for _ in range(100):
        u = rng.uniform(0.0, 1.0, net.num_vertices)
        u[0], u[-1] = 1.0, 0.0
        assert rep.energy <= energy(u) + 1e-9


def test_p1_cut_below_feasible_p1_energy():
    # coarea side of max-flow/min-cut duality
    rng = np.random.default_rng(3)
    net = _series_net(rng.uniform(0.1, 2.0, 20), rng.uniform(0.1, 2.0, 20))
    bc = BoundaryCondition(inner=[0], outer=[20])
    rep = solve_p_energy(net, bc, 1.0)
    for _ in range(50):
        u = np.sort(rng.uniform(0.0, 1.0, net.num_vertices))[::-1].copy()
        u[0], u[-1] = 1.0, 0.0
        d = np.abs(u[net.edge_i] - u[net.edge_j])
        assert rep.energy <= float(np.sum(net.masses * d / net.lengths)) + 1e-9


def test_radial_network_oracle():
    ann = AnnulusSpec(1.0, 2.0)
    exact = cap_rn_unweighted(2, 3.0, ann).value
    net = build_radial_network(RN2, 1.0, 2.0, 2000)
    rep = solve_p_energy(net, condenser_bc(net, 1.0, 2.0), 3.0)
    assert rep.energy == pytest.approx(exact, rel=1e-4)


def test_radial_network_refinement_stability():
    ann = AnnulusSpec(0.5, 1.0)
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    e1 = solve_p_energy(
        build_radial_network(space, ann.r, ann.R, 1000),
        condenser_bc(build_radial_network(space, ann.r, ann.R, 1000), ann.r, ann.R), 2.0
    ).energy
    net2 = build_radial_network(space, ann.r, ann.R, 2000)
    e2 = solve_p_energy(net2, condenser_bc(net2, ann.r, ann.R), 2.0).energy
    assert abs(e2 - e1) / e1 < 0.005


def test_radial_p1_matches_min_cut():
    space = SpaceSpec(RadialRn(1), BuckleyEta(0.5))
    ann = AnnulusSpec(0.5, 1.0)
    exact = cap_radial_p1(space, ann).value
    net = build_radial_network(space, ann.r, ann.R, 2000)
    rep = solve_p_energy(net, condenser_bc(net, ann.r, ann.R), 1.0)
    assert rep.energy == pytest.approx(exact, rel=0.01)


def test_snake_network_matches_path_formula():
    k, delta = 3, 0.25
    r, R = 2.0**k - delta, 2.0**k + delta
    net = build_snake_network(k_max=6, cells_per_unit=4.0, extra_radii=(r, R))
    rep = solve_p_energy(net, condenser_bc(net, r, R), 2.0)
    assert rep.energy == pytest.approx(cap_snake(2.0, k, delta).value, rel=1e-9)


def test_bowtie_grid_shape():
    net = build_bowtie_grid(0.5, 1.0 / 16.0)
    assert net.radii is not None
    assert net.radii.min() == pytest.approx(0.0)  # the tip itself
    assert net.radii.max() == pytest.approx(math.sqrt(10.0), rel=1e-12)
    with pytest.raises(InputError):
        build_bowtie_grid(0.5, 0.1)  # does not divide 1
    with pytest.raises(InputError):
        build_bowtie_grid(0.5, 0.25)  # too coarse


def test_network_validation():
    with pytest.raises(InputError):
        DiscreteNetwork(num_vertices=2, edge_i=[0], edge_j=[0],
                        lengths=[1.0], masses=[1.0])  # self-loop
    with pytest.raises(InputError):
        DiscreteNetwork(num_vertices=2, edge_i=[0], edge_j=[1],
                        lengths=[-1.0], masses=[1.0])
    with pytest.raises(InputError):
        DiscreteNetwork(num_vertices=2, edge_i=[0], edge_j=[5],
                        lengths=[1.0], masses=[1.0])


def test_disconnected_boundary_infeasible():
    net = DiscreteNetwork(num_vertices=4, edge_i=[0, 2], edge_j=[1, 3],
                          lengths=[1.0, 1.0], masses=[1.0, 1.0])
    bc = BoundaryCondition(inner=[0], outer=[3])
    with pytest.raises(InfeasibleError):
        solve_p_energy(net, bc, 2.0)
    with pytest.raises(InfeasibleError):
        BoundaryCondition(inner=[0], outer=[0])
    with pytest.raises(InfeasibleError):
        BoundaryCondition(inner=[], outer=[1])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_floating_component_is_pinned(p):
    # vertices 3-4 touch neither plate; the path 0-1-2 carries all the energy
    net = DiscreteNetwork(num_vertices=5, edge_i=[0, 1, 3], edge_j=[1, 2, 4],
                          lengths=[1.0, 1.0, 1.0], masses=[1.0, 1.0, 1.0])
    rep = solve_p_energy(net, BoundaryCondition(inner=[0], outer=[2]), p)
    assert rep.converged
    assert rep.energy == pytest.approx(2.0 * 0.5**p, rel=1e-8)
    assert np.all(rep.potential[3:] == 0.0)


@pytest.mark.filterwarnings("ignore")  # overflow and singular-matrix warnings
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_non_finite_energy_raises(p):
    net = _series_net([1e-200, 1e-200], [1.0, 1.0])  # |du|/l overflows
    with pytest.raises(ConvergenceError):
        solve_p_energy(net, BoundaryCondition(inner=[0], outer=[2]), p)


def test_radial_network_masses_are_the_shared_panel_rule():
    cases = ((SpaceSpec(RadialRn(2), BuckleyEta(0.5)), 1, surface_area(2)),
             (SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.MIN_ONE_OVER_X)), 0, 1.0))
    for space, m, const in cases:
        net = build_radial_network(space, 0.5, 1.5, 64)
        masses = const * _cell_masses(lambda x: space.weight.evaluate(x) * x**m,
                                      net.radii[:-1], net.radii[1:])
        assert np.array_equal(net.masses, masses)


def test_condenser_bc_needs_radii():
    net = _series_net([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(InputError):
        condenser_bc(net, 0.5, 1.5)


def test_p_below_one_rejected():
    net = _series_net([1.0], [1.0])
    with pytest.raises(DomainError):
        solve_p_energy(net, BoundaryCondition(inner=[0], outer=[1]), 0.5)


def test_csv_round_trip(tmp_path):
    net = build_radial_network(RN2, 1.0, 2.0, 32)
    path = tmp_path / "net.csv"
    network_to_csv(net, path)
    back = network_from_csv(path)
    assert back.num_vertices == net.num_vertices
    assert np.array_equal(back.edge_i, net.edge_i)
    assert np.array_equal(back.edge_j, net.edge_j)
    assert np.array_equal(back.lengths, net.lengths)
    assert np.array_equal(back.masses, net.masses)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d\n0,1,1,1\n")
    with pytest.raises(InputError):
        network_from_csv(bad)


def test_potential_csv(tmp_path):
    net = _series_net([1.0, 1.0], [1.0, 1.0])
    rep = solve_p_energy(net, BoundaryCondition(inner=[0], outer=[2]), 2.0)
    path = tmp_path / "u.csv"
    potential_to_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,u"
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == pytest.approx(0.5)
