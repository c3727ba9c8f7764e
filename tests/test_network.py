import dataclasses
import hashlib
import itertools
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest

from anncap import network
from anncap.capacity import (CapacityMethod, CapacityResult, cap_auto, cap_radial_p1,
                             cap_rn_unweighted, cap_snake)
from anncap.decay import ad_ratio_trend, check_one_ad, doubling_ratios
from anncap.errors import ConvergenceError, DomainError, InfeasibleError, InputError
from anncap.gallery import make_buckley, make_summed_buckley
from anncap.measure import _cell_masses, mu_annulus, mu_ball, mu_family, volume_profiles
from scipy import linalg
from anncap.network import (
    BoundaryCondition,
    DiscreteNetwork,
    build_bowtie_grid,
    build_radial_network,
    build_snake_network,
    condenser_bc,
    solve_p_energy,
)
from anncap.spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, surface_area
from anncap.weights import BuckleyEta, Constant, HalfLineCatalog, HalfLineKind, PowerAlpha

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


def _p1_energy(net, u):
    """p = 1 energy of each row of u."""
    d = np.abs(u[..., net.edge_i] - u[..., net.edge_j])
    return np.sum(net.masses * d / net.lengths, axis=-1)


def _grid_patch(rows, cols):
    """rows x cols 4-neighbor grid; plates are the first and last column."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    ei = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    ej = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return rows * cols, ei, ej, idx[:, 0], idx[:, -1]


def _random_sparse(rng, n):
    """Random spanning tree plus extra chords; plates are disjoint vertex
    sets of 1 to 3 vertices."""
    order = rng.permutation(n)
    ei = [order[k] for k in range(1, n)]
    ej = [order[rng.integers(k)] for k in range(1, n)]
    for _ in range(n // 2):
        a, b = rng.choice(n, 2, replace=False)
        ei.append(a)
        ej.append(b)
    plates = rng.permutation(n)[: rng.integers(2, 7)]
    split = rng.integers(1, len(plates))
    return n, np.array(ei), np.array(ej), plates[:split], plates[split:]


@pytest.mark.parametrize("seed", range(12))
def test_p1_min_cut_matches_brute_force(seed):
    # the chains that p = 1 solves: radial chains of each kind of space, and
    # the snake, whose conductances all tie, between plates drawn at random
    rng = np.random.default_rng(seed)
    if seed % 3 == 2:
        r, R = rng.uniform(0.1, 0.9), rng.uniform(1.1, 1.9)
        net = build_snake_network(1, 2.0, (r, R))
    else:
        space = (RN2, _BUCKLEY, make_summed_buckley(0.5).space,
                 SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.EXP_DECAY)))[seed % 4]
        net = build_radial_network(space, 0.5, 1.5, 16)
        r, R = np.sort(rng.uniform(0.5, 1.5, 2))
    bc = condenser_bc(net, r, R)
    _assert_exhaustive_min_cut(net, bc.inner, bc.outer)


def _assert_exhaustive_min_cut(net, inner, outer):
    """The p = 1 energy is the least over all 0/1 potentials, and the
    returned potential is 0/1, pinned on the plates and of that energy."""
    n = net.num_vertices
    free = np.setdiff1d(np.arange(n), np.concatenate([inner, outer]))
    assert len(free) <= 16
    u = np.zeros((2 ** len(free), n))
    u[:, inner] = 1.0
    u[:, free] = list(itertools.product((0.0, 1.0), repeat=len(free)))
    brute = float(_p1_energy(net, u).min())
    rep = solve_p_energy(net, BoundaryCondition(inner=inner, outer=outer), 1.0)
    assert rep.energy == pytest.approx(brute, rel=1e-12)
    assert set(np.unique(rep.potential)) <= {0.0, 1.0}
    assert np.all(rep.potential[inner] == 1.0) and np.all(rep.potential[outer] == 0.0)
    assert float(_p1_energy(net, rep.potential)) == pytest.approx(rep.energy, rel=1e-12)


def _with_runs(rng):
    """A small random graph plus each kind of run of free degree-2 vertices:
    subdivided edges (1 to 3 vertices), a run ending in a leaf, a run back
    to its own start, two parallel runs between the same vertices and a run
    from plate to plate."""
    n, ei, ej, inner, outer = _random_sparse(rng, 4)
    base = n
    ei, ej = list(ei), list(ej)

    def run(a, b, k):  # k new vertices from a to b; b None ends in a leaf
        nonlocal n
        path = [a, *range(n, n + k)] + ([] if b is None else [b])
        n += k
        ei.extend(path[:-1])
        ej.extend(path[1:])

    for e, longest in zip(rng.choice(len(ei), 2, replace=False), (3, 2)):
        run(ei[e], ej[e], int(rng.integers(1, longest + 1)))
        ei[e] = ej[e] = -1
    a, b = rng.choice(base, 2, replace=False)
    run(a, b, 1)
    run(a, b, 2)
    run(rng.integers(base), None, 2)
    v = int(rng.integers(base))
    run(v, v, 2)
    run(inner[0], outer[0], int(rng.integers(1, 3)))
    keep = np.array(ei) >= 0
    return n, np.array(ei)[keep], np.array(ej)[keep], inner, outer


def _chain_cut(net, bc):
    """On a chain numbered along its edges: the least conductance over the
    edges not inside one plate, and the potential that is 0 exactly past
    the last edge of that conductance (the vertices that still reach the
    outer plate through unsaturated edges)."""
    plate = np.zeros(net.num_vertices, dtype=np.int64)
    plate[bc.inner], plate[bc.outer] = 1, 2
    a, b = plate[net.edge_i], plate[net.edge_j]
    c = np.where((a == 0) | (a != b), net.masses / net.lengths, np.inf)
    last = np.flatnonzero(c == c.min())[-1]
    u = (np.arange(net.num_vertices) <= net.edge_i[last]).astype(float)
    u[bc.outer] = 0.0
    return float(c.min()), u


def test_p1_chain_cut_is_its_last_least_conductance():
    cases = []
    for space, N in itertools.product((RN2, SpaceSpec(RadialRn(3), BuckleyEta(0.5))), (64, 2000)):
        net = build_radial_network(space, 0.6, 1.4, N)
        cases.append((net, condenser_bc(net, 0.7, 1.3)))
    for k, delta in ((2, 0.01), (3, 0.05), (5, 0.5)):  # every conductance is 1
        r, R = 2.0**k - delta, 2.0**k + delta
        net = build_snake_network(extra_radii=(r, R))
        cases.append((net, condenser_bc(net, r, R)))
    for net, bc in cases:
        rep = solve_p_energy(net, bc, 1.0)
        energy, u = _chain_cut(net, bc)
        assert rep.energy == energy
        assert np.array_equal(rep.potential, u)


def _patch_net(rows, cols, rng=None, scale=1.0):
    """A rows x cols grid patch between its first and last column, with unit
    edges or edges drawn from rng, lengths times scale. Every free vertex
    has degree 3 or more, so the whole patch is its own reduced core."""
    n, ei, ej, inner, outer = _grid_patch(rows, cols)
    w = np.ones((2, len(ei))) if rng is None else rng.uniform(0.1, 2.0, (2, len(ei)))
    net = DiscreteNetwork(num_vertices=n, edge_i=ei, edge_j=ej, lengths=w[0] * scale,
                          masses=w[1])
    return net, BoundaryCondition(inner=inner, outer=outer)


def test_stop_reasons():
    chain = _series_net([1.0, 1.0, 1.0], [3.0, 0.5, 2.0]), BoundaryCondition(inner=[0], outer=[3])
    rep = solve_p_energy(*chain, 1.0)
    assert (rep.stop_reason, rep.converged) == ("min-cut", True)
    net, bc = _patch_net(3, 4)  # unit edges: the p = 2 start is every p's minimizer
    for p, reason in ((2.0, "linear-solve"), (3.0, "gradient")):
        rep = solve_p_energy(net, bc, p)
        assert (rep.stop_reason, rep.converged) == (reason, True), p
    rep = solve_p_energy(*_patch_net(3, 5, np.random.default_rng(0)), 1.5)
    assert (rep.stop_reason, rep.converged) == ("newton-decrement", True)
    assert rep.iterations > 1
    # the alpha = 0.5 bow-tie stops on a relative energy drop below NEWTON_TOL
    bowtie = build_bowtie_grid(0.5, 1.0 / 256.0)
    rep = solve_p_energy(bowtie, condenser_bc(bowtie, 0.875, 1.0), 1.5)
    assert (rep.stop_reason, rep.converged, rep.iterations) == ("relative-drop", True, 581)


@pytest.mark.parametrize("fault", ["singular", "uphill"])
def test_newton_falls_back_to_the_gradient(monkeypatch, fault):
    # the first Newton step, after the p = 2 start, fails its linear solve
    # or points uphill: Newton steps along the gradient instead
    net, bc = _patch_net(3, 5, np.random.default_rng(0))
    p = 1.5
    start = solve_p_energy(net, bc, 2.0).potential
    start_energy = np.sum(net.masses * (np.abs(start[net.edge_i] - start[net.edge_j])
                                        / net.lengths) ** p)
    clean = solve_p_energy(net, bc, p)
    solve, calls = network._FreeLaplacian.solve, []

    def faulty(self, w, rhs):
        calls.append(fault)
        step = solve(self, w, rhs)
        if len(calls) == 2:
            if fault == "singular":
                raise np.linalg.LinAlgError("1th leading minor not positive definite")
            return -step
        return step

    monkeypatch.setattr(network._FreeLaplacian, "solve", faulty)
    rep = solve_p_energy(net, bc, p)
    assert len(calls) > 2 and rep.converged
    assert math.isfinite(rep.energy) and math.isfinite(rep.kkt_residual)
    assert rep.energy < start_energy
    assert rep.energy == pytest.approx(clean.energy, rel=1e-9)


def test_p1_core_with_a_free_vertex_is_refused():
    # on a 4-neighbour grid the least cut measures the l1 perimeter, not the
    # 1-capacity: p = 1 is solved only where the core is one edge
    bowtie = build_bowtie_grid(0.5, 1.0 / 16.0)
    for net, bc, free in (_patch_net(3, 4) + (6,), (bowtie, condenser_bc(bowtie, 0.875, 1.0), 3)):
        with pytest.raises(DomainError, match=f"one plate-to-plate edge.* {free} free vertices"):
            solve_p_energy(net, bc, 1.0)


def test_line_search_stall_is_not_converged(monkeypatch):
    # a flat zero energy fails every Armijo test: Newton stops at once and
    # says why
    monkeypatch.setattr(network, "_energy", lambda net, u, p: 0.0)
    rep = solve_p_energy(*_patch_net(3, 5, np.random.default_rng(0)), 1.5)
    assert rep.stop_reason == "line-search-stalled"
    assert not rep.converged
    assert rep.iterations == 1


def test_flat_energy_stalls_at_once(monkeypatch):
    # a flat nonzero energy passes the bare Armijo test once 1e-4 * t * slope
    # is below its rounding; only a step that lowers the energy is taken
    monkeypatch.setattr(network, "_energy", lambda net, u, p: 1.0)
    net, bc = _patch_net(3, 5, np.random.default_rng(0))
    t0 = time.perf_counter()
    rep = solve_p_energy(net, bc, 1.5)
    assert time.perf_counter() - t0 < 1.0
    assert (rep.stop_reason, rep.converged, rep.iterations) == ("line-search-stalled", False, 1)


@pytest.mark.parametrize("p, reason", [(1.0, "min-cut"), (1.5, "gradient"),
                                       (2.0, "linear-solve"), (3.0, "gradient")])
def test_no_free_vertex(p, reason):
    # every vertex on a plate: the energy is that of the plate-to-plate edges
    net = DiscreteNetwork(num_vertices=4, edge_i=[0, 0, 1, 2], edge_j=[2, 3, 3, 1],
                          lengths=[1.0, 0.5, 2.0, 1.0], masses=[1.0, 2.0, 0.5, 3.0])
    rep = solve_p_energy(net, BoundaryCondition(inner=[0, 1], outer=[2, 3]), p)
    assert rep.energy == pytest.approx(1.0 + 2.0 * 2.0**p + 0.5 * 0.5**p + 3.0, rel=1e-14)
    assert (rep.stop_reason, rep.converged) == (reason, True)
    assert list(rep.potential) == [1.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_failed_factorisation_is_a_convergence_error(monkeypatch, p):
    def singular(*args, **kwargs):
        raise linalg.LinAlgError("1th leading minor not positive definite")

    monkeypatch.setattr(linalg, "solveh_banded", singular)
    with pytest.raises(ConvergenceError):
        solve_p_energy(*_patch_net(3, 5, np.random.default_rng(0)), p)


def test_newton_stops_at_its_iteration_cap(monkeypatch):
    net = build_bowtie_grid(0.5, 1 / 16)
    bc = condenser_bc(net, 0.875, 1.0)
    assert solve_p_energy(net, bc, 1.5).iterations == 4
    monkeypatch.setattr(network, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="^Newton did not converge in 1 iterations$"):
        solve_p_energy(net, bc, 1.5)


def _random_multigraph(rng):
    """Two free components, one hanging off each plate (the second also
    touches the other plate), with parallel edges, a plate-to-plate edge
    and shuffled vertex numbers."""
    sizes = rng.integers(4, 9, 2)
    n = int(sizes.sum()) + 4
    label = rng.permutation(n)  # vertex numbers carry no band structure
    inner, outer = label[:2], label[2:4]
    ei, ej = [inner[1]], [outer[0]]
    first = 4
    for comp, size in enumerate(sizes):
        verts = label[first:first + size]
        first += size
        for k in range(1, size):  # spanning tree plus chords
            ei.append(verts[k])
            ej.append(verts[rng.integers(k)])
        for _ in range(size // 2):
            a, b = rng.choice(verts, 2, replace=False)
            ei.append(a)
            ej.append(b)
        ei.append(rng.choice(verts))
        ej.append((inner, outer)[comp][rng.integers(2)])
        if comp:
            ei.append(rng.choice(verts))
            ej.append(inner[rng.integers(2)])
    dup = rng.choice(len(ei), 3)
    ei, ej = np.array(ei), np.array(ej)
    ei, ej = np.concatenate([ei, ej[dup]]), np.concatenate([ej, ei[dup]])
    net = DiscreteNetwork(num_vertices=n, edge_i=ei, edge_j=ej,
                          lengths=rng.uniform(0.1, 2.0, len(ei)),
                          masses=rng.uniform(0.1, 2.0, len(ei)))
    return net, BoundaryCondition(inner=inner, outer=outer)


def _dense_incidence(net):
    A = np.zeros((len(net.edge_i), net.num_vertices))
    A[np.arange(len(net.edge_i)), net.edge_i] += 1.0
    A[np.arange(len(net.edge_i)), net.edge_j] -= 1.0
    return A


def _dense_p2(net, bc):
    """p = 2 potential from a dense solve of the free Laplacian."""
    A = _dense_incidence(net)
    L = A.T @ ((net.masses / net.lengths**2)[:, None] * A)
    free = np.ones(net.num_vertices, dtype=bool)
    free[bc.inner] = free[bc.outer] = False
    u = np.zeros(net.num_vertices)
    u[bc.inner] = 1.0
    u[free] = np.linalg.solve(L[np.ix_(free, free)], -L[np.ix_(free, ~free)] @ u[~free])
    return u


def _dense_newton(net, bc, p):
    """p-energy minimum by damped Newton with a dense Hessian, from the
    p = 2 potential, until no step lowers the energy."""
    A = _dense_incidence(net)
    free = np.setdiff1d(np.arange(net.num_vertices), np.concatenate([bc.inner, bc.outer]))
    k = net.masses / net.lengths**p

    def energy(v):
        return float(np.sum(k * np.abs(A @ v) ** p))

    u = _dense_p2(net, bc)
    for _ in range(1000):
        d = A @ u
        grad = A[:, free].T @ (p * k * np.abs(d) ** (p - 1) * np.sign(d))
        hw = p * (p - 1) * k * (np.abs(d) + 1e-12) ** (p - 2)
        step = np.linalg.solve(A[:, free].T @ (hw[:, None] * A[:, free]), -grad)
        for t in 0.5 ** np.arange(40):
            trial = u.copy()
            trial[free] += t * step
            if energy(trial) < energy(u):
                u = trial
                break
        else:
            break
    return energy(u)


@pytest.mark.parametrize("seed", range(6))
def test_banded_solves_match_dense_references(monkeypatch, seed):
    monkeypatch.setattr(network, "NEWTON_TOL", 1e-12)
    net, bc = _random_multigraph(np.random.default_rng(seed))
    core = network._reduce(net, bc, 2.0)[2]
    order = network._FreeLaplacian(core).order
    assert not np.array_equal(order, np.sort(order))  # RCM reordered
    rep = solve_p_energy(net, bc, 2.0)
    np.testing.assert_allclose(rep.potential, _dense_p2(net, bc), rtol=0, atol=1e-12)
    for p in (1.5, 3.0):
        rep = solve_p_energy(net, bc, p)
        assert rep.converged
        assert rep.energy == pytest.approx(_dense_newton(net, bc, p), rel=1e-9), p


@pytest.mark.parametrize("seed", range(16))
def test_series_reduction_matches_dense_references(monkeypatch, seed):
    # subdivided edges, a leaf run, a loop, parallel runs and a plate-to-plate
    # run, solved as they are on the plates' component
    monkeypatch.setattr(network, "NEWTON_TOL", 1e-12)
    rng = np.random.default_rng(seed)
    n, ei, ej, inner, outer = _with_runs(rng)
    lengths, masses = rng.uniform(0.1, 2.0, (2, len(ei)))
    net = DiscreteNetwork(num_vertices=n, edge_i=ei, edge_j=ej, lengths=lengths, masses=masses)
    bc = BoundaryCondition(inner=inner, outer=outer)
    for p in (1.1, 1.5, 2.0, 3.0):
        rep = solve_p_energy(net, bc, p)
        ref = network._energy(net, _dense_p2(net, bc), p) if p == 2 else _dense_newton(net, bc, p)
        assert rep.energy == pytest.approx(ref, rel=1e-9), p
        assert 0.0 <= rep.potential.min() and rep.potential.max() <= 1.0
        assert rep.energy == pytest.approx(network._energy(net, rep.potential, p), rel=1e-14)


@pytest.mark.parametrize("p", [1.01, 1.001])
def test_near_one_chain_matches_the_series_law(p):
    # (sum_e k_e^(-1/(p-1)))^-(p-1) in 50 digits; in floats k_e^(-1/(p-1))
    # leaves the range for conductances spread over 1e-6..1e6. One edge is
    # a chain of adjacent plates, two a chain of one free vertex
    mpmath = pytest.importorskip("mpmath")
    for edges in (1, 2, 200):
        k = 10.0 ** np.random.default_rng(5).uniform(-6.0, 6.0, edges)
        net = _series_net(np.ones(len(k)), k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_p_energy(net, BoundaryCondition(inner=[0], outer=[len(k)]), p)
        with mpmath.workdps(50):
            q = 1 / (mpmath.mpf(p) - 1)
            law = mpmath.fsum(mpmath.mpf(float(x)) ** -q for x in k) ** (1 - mpmath.mpf(p))
            assert abs(rep.energy - law) <= 1e-12 * law, edges


def _spy_series(monkeypatch):
    """The list that gets one item per call of network._series, which a
    chain's solve makes exactly once and any other solve never."""
    calls = []
    series = network._series
    monkeypatch.setattr(network, "_series", lambda *args: calls.append(1) or series(*args))
    return calls


def test_chains_reach_no_newton_iteration(monkeypatch):
    # the benchmark's chains reduce to one plate-to-plate edge, read off
    # their edge lists: a solve that leaves _series, or iterates on them,
    # fails here
    calls = _spy_series(monkeypatch)
    cases = []
    for space, d in itertools.product((RN2, make_buckley(0.5).space,
                                       make_summed_buckley(0.5).space), (0.375, 0.4, 0.425)):
        net = build_radial_network(space, 1.0 - d, 1.0 + d, 20000)
        cases += [(net, condenser_bc(net, 1.0 - d, 1.0 + d), p) for p in (1.1, 1.5, 2.5, 3.0)]
    for k, delta in ((2, 0.01), (3, 0.05), (5, 0.5)):
        r, R = 2.0**k - delta, 2.0**k + delta
        net = build_snake_network(extra_radii=(r, R))
        cases += [(net, condenser_bc(net, r, R), p) for p in (1.5, 2.0, 3.0)]
    for net, bc, p in cases:
        calls.clear()
        assert solve_p_energy(net, bc, p).iterations <= 1, p
        assert len(calls) == 1, p


def _near_chain(variant):
    """A radial chain of 17 vertices with plates of two, and the same chain
    changed as variant says, so that it is no longer the path through its
    nodes in edge order."""
    chain = build_radial_network(_BUCKLEY, 0.5, 1.5, 16)
    n, ei, ej = chain.num_vertices, chain.edge_i.copy(), chain.edge_j.copy()
    lengths, masses = chain.lengths, chain.masses
    if variant == "reversed":
        ei, ej, lengths, masses = ei[::-1], ej[::-1], lengths[::-1], masses[::-1]
    elif variant == "swapped":  # one edge's ends
        ei[7], ej[7] = ej[7], ei[7]
    elif variant == "branch":  # vertex 7 left as a leaf off vertex 6
        ei[7] = 6
    elif variant == "shuffled":  # free vertices numbered out of path order
        label = np.arange(n)
        label[5:9] = [7, 5, 8, 6]
        ei, ej = label[ei], label[ej]
    elif variant == "parallel":
        ei, ej = np.r_[ei, 6], np.r_[ej, 7]
        lengths, masses = np.r_[lengths, 0.1], np.r_[masses, 0.3]
    elif variant == "floating":  # a triangle touching neither plate
        ei, ej = np.r_[ei, n, n + 1, n + 2], np.r_[ej, n + 1, n + 2, n]
        lengths, masses = np.r_[lengths, 1.0, 1.0, 1.0], np.r_[masses, 1.0, 2.0, 3.0]
        n += 3
    net = DiscreteNetwork(num_vertices=n, edge_i=ei, edge_j=ej, lengths=lengths, masses=masses)
    return chain, net, condenser_bc(chain, 0.6, 1.4)


@pytest.mark.parametrize("variant",
                         ["reversed", "swapped", "shuffled", "branch", "parallel", "floating"])
def test_near_chains_take_the_general_path(monkeypatch, variant):
    # solved on the plates' component, with its free vertices: so p = 1 is
    # refused, and p > 1 agrees with the chain, or with a dense reference
    chain, net, bc = _near_chain(variant)
    calls = _spy_series(monkeypatch)
    with pytest.raises(DomainError, match="free vertices"):
        solve_p_energy(net, bc, 1.0)
    for p in (1.5, 2.0, 3.0):
        rep = solve_p_energy(net, bc, p)
        if variant in ("branch", "parallel"):
            ref = (network._energy(net, _dense_p2(net, bc), p) if p == 2
                   else _dense_newton(net, bc, p))
        else:  # the same network as the chain: a triangle at u = 0 adds nothing
            ref = solve_p_energy(chain, bc, p).energy
        assert rep.energy == pytest.approx(ref, rel=1e-9, abs=0), p
        if variant == "floating":
            assert np.all(rep.potential[chain.num_vertices:] == 0.0)
    # one call for each of the chain's own solves
    assert len(calls) == (0 if variant in ("branch", "parallel") else 3)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_plate_order_changes_no_bit(monkeypatch, p):
    # a chain is told apart by which plate each vertex is in, not by how
    # the plates list them: unsorted plates with repeats give the same bits
    net = build_radial_network(_BUCKLEY, 0.5, 1.5, 64)
    bc = condenser_bc(net, 0.7, 1.3)
    assert len(bc.inner) > 2 and len(bc.outer) > 2
    rng = np.random.default_rng(0)
    # each plate starts at its largest vertex and ends at its least
    shuffled = BoundaryCondition(
        inner=np.r_[bc.inner[-1], rng.permutation(bc.inner), bc.inner[0]],
        outer=np.r_[bc.outer[-1], rng.permutation(bc.outer), bc.outer[0]])
    calls = _spy_series(monkeypatch)
    reports = []
    for plates in (bc, shuffled):
        calls.clear()
        rep = solve_p_energy(net, plates, p)
        assert len(calls) == 1
        reports.append(("%.17g" % rep.energy, "%.17g" % rep.kkt_residual, rep.iterations,
                        rep.stop_reason, rep.potential.tobytes()))
    assert reports[0] == reports[1]


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


def _snake_network_loop(k_max, cells_per_unit, extra_radii):
    """The piece-by-piece snake builder that build_snake_network replaced."""
    pieces = [("seg", 0.0, 1.0)]
    for k in range(1, k_max + 1):
        pieces.append(("circ", 2.0 ** (k - 1)))
        pieces.append(("seg", 2.0 ** (k - 1), 2.0**k))
    radii, lengths, masses = [0.0], [], []
    for piece in pieces:
        if piece[0] == "seg":
            _, a, b = piece
            cells = max(2, int(math.ceil((b - a) * cells_per_unit)))
            seg = np.linspace(a, b, cells + 1)
            snap = [x for x in extra_radii if a < x < b]
            seg = np.unique(np.concatenate([seg, snap]))
            for x, y in zip(seg[:-1], seg[1:]):
                lengths.append(y - x)
                masses.append(y - x)
                radii.append(y)
        else:
            _, rad = piece
            arclen = math.pi * rad
            cells = max(2, min(64, int(math.ceil(arclen * cells_per_unit))))
            for _ in range(cells):
                lengths.append(arclen / cells)
                masses.append(arclen / cells)
                radii.append(rad)
    idx = np.arange(len(radii) - 1)
    return idx, idx + 1, np.array(lengths), np.array(masses), np.array(radii)


@pytest.mark.parametrize("cells_per_unit", [0.3, 4.0, 7.7])
@pytest.mark.parametrize("k_max", [1, 2, 8, 10])
def test_snake_network_matches_loop_builder(k_max, cells_per_unit):
    # extra radii inside segments, on segment ends (where they add no vertex),
    # next to a vertex of the grid and past the snake's end
    for extra_radii in ((), (0.5,), (1.0, 2.0, 4.0), (0.25, 2.0, 3.3, 6.0, 100.0),
                        (1.0 - 1e-12, 1.5, 1.5 + 1e-12, 7.95, 8.05), (0.0, 3, 512.0, 1000.5),
                        (0.999, 1.001, 63.9, 64.0, 64.1)):
        want = _snake_network_loop(k_max, cells_per_unit, extra_radii)
        net = build_snake_network(k_max, cells_per_unit, extra_radii)
        assert net.num_vertices == len(want[-1])
        for got, ref in zip((net.edge_i, net.edge_j, net.lengths, net.masses, net.radii), want):
            assert np.array_equal(got, ref)


def test_bowtie_grid_shape():
    net = build_bowtie_grid(0.5, 1.0 / 16.0)
    assert net.radii is not None
    assert net.radii.min() == pytest.approx(0.0)  # the tip itself
    assert net.radii.max() == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert build_bowtie_grid(0.5, 1.0 / 48.0).num_vertices == 5905  # any 1/k, not only 2^-m
    with pytest.raises(InputError, match="1/k for an integer k"):
        build_bowtie_grid(0.5, 0.06)
    for h in (0.1, 0.25):  # 0.1 is 1/10 to the ulp, but too coarse
        with pytest.raises(InputError, match="h <= 1/16"):
            build_bowtie_grid(0.5, h)


def _bowtie_grid_loop(alpha, h):
    """The vertex-by-vertex bow-tie builder that build_bowtie_grid replaced."""
    inv = round(1.0 / h)
    index, coords = {}, []
    for i1 in range(-inv, 2 * inv + 1):
        half = abs(i1) // 2
        for i2 in range(-half, half + 1):
            index[(i1, i2)] = len(coords)
            coords.append((i1 * h, i2 * h))
    ei, ej, mass = [], [], []
    for (i1, i2), a in index.items():
        for d1, d2 in ((1, 0), (0, 1)):
            nb = (i1 + d1, i2 + d2)
            if nb in index:
                mx = (i1 + 0.5 * d1) * h
                my = (i2 + 0.5 * d2) * h
                mass.append((mx * mx + my * my) ** (alpha / 2.0) * h * h)
                ei.append(a)
                ej.append(index[nb])
    coords = np.array(coords)
    return (len(coords), np.array(ei), np.array(ej), np.full(len(ei), h), np.array(mass),
            np.hypot(coords[:, 0] + 1.0, coords[:, 1]))


@pytest.mark.parametrize("inv_h", [16, 32, 64])
@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_bowtie_grid_matches_loop_builder(alpha, inv_h):
    nv, ei, ej, lengths, masses, radii = _bowtie_grid_loop(alpha, 1.0 / inv_h)
    net = build_bowtie_grid(alpha, 1.0 / inv_h)
    assert net.num_vertices == nv
    for got, want in ((net.edge_i, ei), (net.edge_j, ej), (net.lengths, lengths),
                      (net.radii, radii)):
        assert np.array_equal(got, want)
    # numpy's vectorized power may round differently from the scalar one
    np.testing.assert_array_max_ulp(net.masses, masses, maxulp=1)


# sha256 of the bow-tie grid's arrays, recorded from the builder that
# computed its coordinates from full-length integer columns: the vertex
# count and the digests of edge_i, edge_j and radii, which do not depend on
# alpha, then the masses' digest per alpha
_BOWTIE_GRID_PINS = {
    64: (10433, "fbbcbce02dc2d1955b3690748b457f83d6956eaec82b3e613318ed778884837a",
         "f60d6e17b7001981518f0e4a2a60616f62fcd5de24cbf6a77b8aab90ed80aa47",
         "1734118f8803ea41ea20a1c8f1c296ec52946f2ed15476913a99b5e02e6be371"),
    256: (164609, "398f89533e94a73964f5b7b2165523dc76a9c81c8b0a0566ff332267cf32ed88",
          "e7dcf66f216bae53db0fcf69791ad648f882867555fbfd9c1a49f9c465175c26",
          "7491561fb2c425519eefad23fec812e95f236752fcd242d9164e6d9d01706258"),
}
_BOWTIE_MASS_PINS = {
    (-0.5, 64): "3bf7f7359d54c4c3916e981da53666664779766518215369d056018f69f7144c",
    (0.5, 64): "93d322945c6f6ac85452cd950329fbc4f12144a700a4d04528545beb00b4114b",
    (-0.5, 256): "91e72a88462f69929c07237ab62697d7c396b293dfa798f8d0fd89034513fcac",
    (0.5, 256): "326a4b03fe2cc4b34959d8ed3e35b0a32c34ca8a2fa2b8f4b14f68db088b4029",
}


@pytest.mark.parametrize("alpha, inv_h", list(_BOWTIE_MASS_PINS),
                         ids=[f"alpha{a}-inv_h{inv_h}" for a, inv_h in _BOWTIE_MASS_PINS])
def test_bowtie_grid_is_pinned_bit_for_bit(alpha, inv_h):
    net = build_bowtie_grid(alpha, 1.0 / inv_h)
    nv, *shas = _BOWTIE_GRID_PINS[inv_h]
    assert net.num_vertices == nv
    got = {name: hashlib.sha256(getattr(net, name).tobytes()).hexdigest()
           for name in ("edge_i", "edge_j", "radii", "masses")}
    assert got == dict(zip(("edge_i", "edge_j", "radii", "masses"),
                           (*shas, _BOWTIE_MASS_PINS[alpha, inv_h])))
    assert np.array_equal(net.lengths, np.full(len(net.edge_i), 1.0 / inv_h))


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


@pytest.mark.parametrize("field", ["lengths", "masses"])
def test_nan_lengths_and_masses_are_rejected(field):
    # two parallel paths 0-1-3 and 0-2-3, one NaN on the second
    values = {"lengths": [1.0, 1.0, 1.0, 1.0], "masses": [1.0, 1.0, 1.0, 1.0]}
    values[field][2] = math.nan
    with pytest.raises(InputError, match="strictly positive"):
        DiscreteNetwork(num_vertices=4, edge_i=[0, 1, 0, 2], edge_j=[1, 3, 2, 3], **values)
    # one value broadcast over every edge, as the bow-tie's lengths are
    for bad in (math.nan, 0.0, -1.0, math.inf):
        values[field] = np.broadcast_to(bad, 4)
        with pytest.raises(InputError, match="strictly positive"):
            DiscreteNetwork(num_vertices=4, edge_i=[0, 1, 0, 2], edge_j=[1, 3, 2, 3], **values)


_BUCKLEY = make_buckley(0.5).space


def _unit_chain_with_radii(radii):
    return DiscreteNetwork(num_vertices=3, edge_i=[0, 1], edge_j=[1, 2], lengths=[1.0, 1.0],
                           masses=[1.0, 1.0], radii=radii)


def _before_any_array(call):
    """Run call() with numpy's array makers raising AssertionError, so that
    only a refusal made before any array is made passes."""
    def made(*args, **kwargs):
        raise AssertionError("an array was made")
    with mock.patch.multiple(np, zeros=made, full=made, linspace=made, concatenate=made):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: build_bowtie_grid(0.5, 0.0), InputError),
    (lambda: build_bowtie_grid(0.5, math.nan), InputError),
    (lambda: build_bowtie_grid(0.5, -0.25), InputError),
    (lambda: build_snake_network(8, math.nan), InputError),
    (lambda: build_snake_network(8, math.inf), InputError),
    (lambda: build_radial_network(_BUCKLEY, 0.5, 1.5, 64.5), InputError),
    (lambda: build_radial_network(_BUCKLEY, 0.5, math.inf), InputError),
    (lambda: mu_ball(_BUCKLEY, math.inf), DomainError),
    # an inner radius past R, negative or NaN
    (lambda: mu_family(_BUCKLEY, [(0.5, 1.0), (2.0, 1.0)]), DomainError),
    (lambda: mu_family(SpaceSpec(BowTie(2, 0.5)), [(2.0, 1.0)]), DomainError),
    (lambda: mu_family(SpaceSpec(Snake()), [(-1.0, 1.0)]), DomainError),
    (lambda: mu_family(SpaceSpec(Snake()), [(math.nan, 1.0)]), DomainError),
    (lambda: mu_annulus(_BUCKLEY, AnnulusSpec(1.0, math.inf)), InputError),
    (lambda: cap_auto(_BUCKLEY, 2.0, AnnulusSpec(3.0, math.inf)), InputError),
    (lambda: check_one_ad(_BUCKLEY, (1.0, math.inf)), InputError),
    (lambda: doubling_ratios(_BUCKLEY, [math.inf]), DomainError),
    (lambda: doubling_ratios(_BUCKLEY, []), InputError),
    (lambda: ad_ratio_trend(_BUCKLEY, [], 1.0), InputError),
    (lambda: DiscreteNetwork(num_vertices=3, edge_i=[0, 1.7], edge_j=[1, 2],
                             lengths=[1.0, 1.0], masses=[1.0, 1.0]), InputError),
    (lambda: DiscreteNetwork(num_vertices=2.5, edge_i=[0], edge_j=[1],
                             lengths=[1.0], masses=[1.0]), InputError),
    (lambda: DiscreteNetwork(num_vertices=np.float64(3.0), edge_i=[0], edge_j=[1],
                             lengths=[1.0], masses=[1.0]), InputError),
    (lambda: DiscreteNetwork(num_vertices=3, edge_i=[0, 1], edge_j=[1],
                             lengths=[1.0, 1.0], masses=[1.0, 1.0]), InputError),
    (lambda: BoundaryCondition(inner=[0.5], outer=[2]), InputError),
    (lambda: solve_p_energy(_series_net([1.0, 1.0], [1.0, 1.0]),
                            BoundaryCondition(inner=[0], outer=[3]), 2.0), InputError),
    (lambda: solve_p_energy(_series_net([1.0, 1.0], [1.0, 1.0]),
                            BoundaryCondition(inner=[-1], outer=[0]), 2.0), InputError),
    (lambda: _unit_chain_with_radii([0.0, 1.0]), InputError),
    (lambda: _unit_chain_with_radii([0.0, 1.0, 2.0, 3.0]), InputError),
    (lambda: _unit_chain_with_radii([0.0, math.nan, 2.0]), InputError),
    (lambda: _unit_chain_with_radii([0.0, -1.0, 2.0]), InputError),
    (lambda: _unit_chain_with_radii([[0.0], [1.0], [2.0]]), InputError),
    (lambda: Snake(k_max=2.5), InputError),
    (lambda: build_snake_network(k_max=2.5), InputError),
    (lambda: Snake(k_max=2000), InputError),
    (lambda: mu_ball(SpaceSpec(Snake(k_max=2000)), 3.0), InputError),
    (lambda: build_snake_network(k_max=1100), InputError),
    (lambda: build_snake_network(8, 1e30), InputError),
    (lambda: _before_any_array(lambda: build_snake_network(k_max=1023)), InputError),
    # an int past the float range compares below inf
    (lambda: build_radial_network(RN2, 1, 10**400, 16), InputError),
    (lambda: cap_auto(_BUCKLEY, 2.0, AnnulusSpec(1, 10**400)), InputError),
    (lambda: mu_ball(RN2, 10**400), DomainError),
    (lambda: check_one_ad(RN2, (1, 10**400)), InputError),
    (lambda: mu_ball(SpaceSpec(object()), 1.0), DomainError),
    (lambda: CapacityResult(-1.0, CapacityMethod.CLOSED_FORM), InputError),
], ids=["bowtie-h0", "bowtie-h-nan", "bowtie-h-negative", "snake-cells-nan", "snake-cells-inf",
        "radial-N-float", "radial-r-hi-inf", "mu-ball-inf", "mu-family-r-past-R",
        "mu-family-bowtie-r-past-R", "mu-family-snake-r-negative", "mu-family-snake-r-nan",
        "mu-annulus-inf",
        "cap-auto-inf", "one-ad-inf", "doubling-inf", "doubling-empty", "ad-trend-empty",
        "network-endpoint-float",
        "network-count-float", "network-count-float64", "network-arrays-ragged", "plate-float",
        "plate-past-last", "plate-negative", "radii-short", "radii-long", "radii-nan",
        "radii-negative", "radii-2d", "snake-k-float", "snake-network-k-float", "snake-k-2000",
        "snake-mu-ball-k-2000", "snake-network-k-1100", "snake-cells-1e30",
        "snake-network-k-1023-unallocated", "radial-r-hi-past-floats", "cap-auto-past-floats",
        "mu-ball-past-floats", "one-ad-past-floats", "mu-ball-unknown-geometry",
        "capacity-negative"])
def test_invalid_inputs_are_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_disconnected_boundary_infeasible():
    net = DiscreteNetwork(num_vertices=4, edge_i=[0, 2], edge_j=[1, 3],
                          lengths=[1.0, 1.0], masses=[1.0, 1.0])
    bc = BoundaryCondition(inner=[0], outer=[3])
    with pytest.raises(InfeasibleError):
        solve_p_energy(net, bc, 2.0)
    # an inner plate with no edge: the search from it reaches nothing
    lone = DiscreteNetwork(num_vertices=3, edge_i=[1], edge_j=[2], lengths=[1.0], masses=[1.0])
    with pytest.raises(InfeasibleError):
        solve_p_energy(lone, BoundaryCondition(inner=[0], outer=[2]), 2.0)
    # no crossing edge: every edge inside one plate, or no edge at all
    inside = DiscreteNetwork(num_vertices=4, edge_i=[0, 2], edge_j=[1, 3],
                             lengths=[1.0, 1.0], masses=[1.0, 1.0])
    empty = DiscreteNetwork(num_vertices=2, edge_i=[], edge_j=[], lengths=[], masses=[])
    for net, bc in ((inside, BoundaryCondition(inner=[0, 1], outer=[2, 3])),
                    (empty, BoundaryCondition(inner=[0], outer=[1]))):
        for p in (1.0, 1.5, 2.0):
            with pytest.raises(InfeasibleError):
                solve_p_energy(net, bc, p)
    with pytest.raises(InfeasibleError):
        BoundaryCondition(inner=[0], outer=[0])
    with pytest.raises(InfeasibleError):
        BoundaryCondition(inner=[], outer=[1])


def _floating_components():
    # vertices 3-4, the ring 5-6-7 and the path 8-9-10-11 touch neither
    # plate, and are left out of the core at u = 0; the path 0-1-2 carries
    # all the energy
    ei, ej = [0, 1, 3, 5, 6, 7, 8, 9, 10], [1, 2, 4, 6, 7, 5, 9, 10, 11]
    net = DiscreteNetwork(num_vertices=12, edge_i=ei, edge_j=ej,
                          lengths=np.ones(len(ei)), masses=np.ones(len(ei)))
    return net, BoundaryCondition(inner=[0], outer=[2])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_floating_component_is_pinned(p):
    if p == 1:  # vertex 1 stays a free vertex of the core
        with pytest.raises(DomainError, match=" 1 free vertices"):
            solve_p_energy(*_floating_components(), p)
        return
    rep = solve_p_energy(*_floating_components(), p)
    assert rep.converged
    assert rep.energy == pytest.approx(2.0 * 0.5**p, rel=1e-8)
    assert np.all(rep.potential[3:] == 0.0)


@pytest.mark.filterwarnings("ignore")  # overflow and singular-matrix warnings
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_non_finite_energy_raises(p):
    # (|du| / l)^p overflows, and so does k = m / l^p, on a patch whose core
    # keeps its free vertices and on a chain whose core is one edge
    chain = _series_net([1e-250, 1e-250], [1.0, 1.0]), BoundaryCondition(inner=[0], outer=[2])
    for net, bc in (_patch_net(3, 5, np.random.default_rng(0), scale=1e-250), chain):
        with pytest.raises(ConvergenceError):
            solve_p_energy(net, bc, p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_infinite_masses_and_lengths_are_input_errors(p):
    # an infinite mass once ended in a NaN energy at p > 1, and in an untyped
    # error at p = 1; the network now refuses it when it is built
    bc = BoundaryCondition(inner=[0], outer=[3])
    for lengths, masses in (([1.0, 1.0, 1.0], [1.0, math.inf, 1.0]),
                            ([1.0, 1.0, 1.0], [math.inf] * 3),
                            ([1.0, math.inf, 1.0], [1.0, 1.0, 1.0])):
        with pytest.raises(InputError, match="finite"):
            solve_p_energy(_series_net(lengths, masses), bc, p)


@pytest.mark.parametrize("p, energy, potential, iterations, reason", [
    (1.5, 0.5740872665756959,
     [1.0, 0.5422552921606194, 0.42821508813143117, 0.42185752274477306, 0.0], 1, "gradient"),
    (2.0, 0.3235185283078712,
     [1.0, 0.7304012264101073, 0.5400962097584183, 0.5176296452925939, 0.0], 1, "linear-solve"),
    (3.0, 0.09001378070536892,
     [1.0, 0.8063360075786663, 0.5762288960678221, 0.5366973991526143, 0.0], 1, "gradient"),
    (1.0, 0.6, [1.0, 0.0, 0.0, 0.0, 0.0], 0, "min-cut"),
])
def test_chain_reports_without_a_free_vertex(p, energy, potential, iterations, reason):
    # a chain's core is one plate-to-plate edge, solved without a min-cut or
    # a linear solve; the reports are those of the min-cut, the banded p = 2
    # solve and the Newton gradient check that ran on it before
    net = _series_net([0.5, 1.0, 0.25, 2.0], [0.3, 1.7, 0.9, 2.5])
    rep = solve_p_energy(net, BoundaryCondition(inner=[0], outer=[4]), p)
    assert (rep.energy, list(rep.potential), rep.iterations, rep.stop_reason) == \
        (energy, potential, iterations, reason)


def test_large_finite_energy_is_a_value():
    # at p = 1.5 neither k = 1e300 nor (0.5 / 1e-200)^1.5 overflows: the
    # energy is the series law's 2^(-1/2) 1e300, though m / l^2 is inf
    rep = solve_p_energy(_series_net([1e-200, 1e-200], [1.0, 1.0]),
                         BoundaryCondition(inner=[0], outer=[2]), 1.5)
    assert rep.energy == pytest.approx(2.0**-0.5 * 1e300, rel=1e-14)
    assert list(rep.potential) == [1.0, 0.5, 0.0]


def test_radial_network_masses_are_the_shared_panel_rule():
    cases = ((SpaceSpec(RadialRn(2), BuckleyEta(0.5)), 1, surface_area(2)),
             (SpaceSpec(HalfLine(), HalfLineCatalog(HalfLineKind.MIN_ONE_OVER_X)), 0, 1.0))
    for space, m, const in cases:
        net = build_radial_network(space, 0.5, 1.5, 64)
        masses = const * _cell_masses(lambda x: space.weight.evaluate(x) * x**m,
                                      net.radii[:-1], net.radii[1:])
        assert np.array_equal(net.masses, masses)


def test_chains_past_the_graded_ratio_have_geometric_cells():
    # at R/r = 1e20 an absolute slack of 1e-12 would put 26 of the 65
    # vertices on the inner plate
    net = build_radial_network(RN2, 1e-20, 1.0, 64)
    assert np.array_equal(net.radii, np.geomspace(1e-20, 1.0, 65))
    bc = condenser_bc(net, 1e-20, 1.0)
    assert (list(bc.inner), list(bc.outer)) == ([0], [64])
    # up to the ratio the cells are of equal width
    net = build_radial_network(RN2, 0.01, 1.0, 64)
    assert np.array_equal(net.radii, np.linspace(0.01, 1.0, 65))


def test_condenser_bc_needs_radii():
    net = _series_net([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(InputError):
        condenser_bc(net, 0.5, 1.5)


def test_plates_must_be_disjoint():
    with pytest.raises(InfeasibleError, match="disjoint"):
        BoundaryCondition(inner=[7, 3], outer=[5, 3, 9])
    with pytest.raises(InfeasibleError, match="disjoint"):
        BoundaryCondition(inner=[-2], outer=[4, -2])
    bc = BoundaryCondition(inner=[0], outer=[10**15])  # a span no table can hold
    assert list(bc.outer) == [10**15]
    net = build_radial_network(SpaceSpec(RadialRn(2), Constant()), 1.0, 2.0, 16)
    with pytest.raises(InputError, match="too coarse"):
        condenser_bc(net, 1.5, 1.5)


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
def test_p_below_one_rejected(p):
    # a NaN p once passed every branch to an UnboundLocalError, and an
    # infinite one ended in a ConvergenceError
    net = _series_net([1.0], [1.0])
    with pytest.raises(DomainError, match="need a finite p >= 1"):
        solve_p_energy(net, BoundaryCondition(inner=[0], outer=[1]), p)


def _pin_network(case):
    """The network and plates of a bit-for-bit pin case."""
    kind, _, arg = case.partition(":")
    if kind == "bowtie":
        net = build_bowtie_grid(float(arg), 1.0 / 64.0)
        return net, condenser_bc(net, 0.875, 1.0)
    if kind in ("rn-2", "buckley-0.5", "summed-buckley-0.5"):
        space = {"rn-2": RN2, "buckley-0.5": make_buckley(0.5).space,
                 "summed-buckley-0.5": make_summed_buckley(0.5).space}[kind]
        net = build_radial_network(space, 0.6, 1.4, 2000)
        return net, condenser_bc(net, 0.6, 1.4)
    if kind == "snake":
        net = build_snake_network(extra_radii=(7.95, 8.05))
        return net, condenser_bc(net, 7.95, 8.05)
    if kind == "multigraph":
        return _random_multigraph(np.random.default_rng(int(arg)))
    return _floating_components()


def _pin_report(case, p):
    rep = solve_p_energy(*_pin_network(case), p)
    return ("%.17g" % rep.energy, "%.17g" % rep.kkt_residual, rep.iterations, rep.stop_reason,
            hashlib.sha256(rep.potential.tobytes()).hexdigest())


# the chain rows recorded before the compact reduction, the bow-tie,
# multigraph and floating rows since their core is the plates' component as
# it is (_TIGHT_ENERGIES bounds how far that moved them). A p = 1 multigraph
# keeps free vertices in its core: its row expects the DomainError
_PINS = [
    # case, p, energy, KKT residual, iterations, stop reason, sha256 of the potential
    ("bowtie:0.5", 1.5, "0.0093467616409008362", "4.2382849078238371e-05", 89, "newton-decrement",
     "8c0b24b0c863b34e8dad4d661a0422d7276540ad93f8b6fe718986098e6085c7"),
    ("bowtie:0.5", 2.0, "0.040503808264309819", "7.0603245472256049e-16", 1, "linear-solve",
     "9fc73eb50aa2102c5928bc89a3ce31f80223379925e02b7b90c79c04cbbb5ef7"),
    ("bowtie:0.5", 2.5, "0.13208185692880986", "1.0904170832382043e-06", 4, "newton-decrement",
     "2768b6d88d70654e6f5e49ec83f6e7694fbaad66eebea28610be14acc60be5bd"),
    ("bowtie:-0.5", 2.0, "1.4640761793848542", "6.6613381477509392e-15", 1, "linear-solve",
     "ba93886cf087a72331e9fba2204e06233e8fa1dc318ae358b11c63fa1827f133"),
    ("bowtie:-0.5", 2.5, "3.839793688453438", "1.2513985403472816e-07", 4, "newton-decrement",
     "2e6765f1c27531eaf670f894f59f12aa3c119df41a58a5f9864a66ce25cc4ab9"),
    ("rn-2", 1.0, "3.7711678213691879", "0", 0, "min-cut",
     "05107d798efdb17ef41e235bca5444081c3deef37882d3dcb1e06cffd4f3c484"),
    ("rn-2", 1.1, "4.9426687478980966", "1.134550231540743e-10", 1, "gradient",
     "9b2341ff4b5523a6057ce4ded36f9753e6d884b70de45e4aafb2161cad3ed41f"),
    ("rn-2", 1.5, "6.4383492418328121", "6.0129679013698478e-12", 1, "gradient",
     "753dc652749dd8309dc8a27feb24bcd16230af99e5a2865486a4f89f02362bd7"),
    ("rn-2", 2.0, "7.415556810695108", "1.4086509736443986e-11", 1, "linear-solve",
     "cdd7284d6f2ba2ad9e2ad2a95d585dc0c9c6d7cd1884abe9b7cfc4e9ecd44d73"),
    ("rn-2", 3.0, "9.4076718080913757", "4.0056846728475648e-11", 1, "gradient",
     "2e5055bd78fbf4cf71f8fed24390ca08db2526433dc4b14e81f069eaeddb5f56"),
    ("buckley-0.5", 1.0, "3.163068625115355", "0", 0, "min-cut",
     "05107d798efdb17ef41e235bca5444081c3deef37882d3dcb1e06cffd4f3c484"),
    ("buckley-0.5", 1.1, "3.8681757768807188", "4.3318620514664854", 1, "gradient",
     "6a0c995f1f204df3702f66489fa873dadacb15c9a68050670a712fac20a174e9"),
    ("buckley-0.5", 1.5, "5.0000032671120209", "2.9971110038218285e-09", 1, "gradient",
     "a7d14f6abb66c65daf9b9186f7eb023720528493fefea56d5f7a161d468500c6"),
    ("buckley-0.5", 2.0, "5.9293211175220328", "9.9111829854336975e-11", 1, "linear-solve",
     "068155831f548ec25d8be9e28a93a18d9df1dc4495e299a9671700cc4d07778e"),
    ("buckley-0.5", 3.0, "7.7206934509193852", "6.5522698378117639e-11", 1, "gradient",
     "e459faf69f3f1024fcafa014c1cde9fdd3b77d68bbd046aebe668506ea11df11"),
    ("summed-buckley-0.5", 1.0, "4.6630686251153559", "0", 0, "min-cut",
     "231d2295cbf8fbae475070ed6d7606a36e045488015fd87dbe1bb995284d50d3"),
    ("summed-buckley-0.5", 1.1, "5.7985060929618868", "6.4150422915256549", 1, "gradient",
     "ee69b0477287dee2fb9ed15bb5c46b72d8b604dc300d0b433cea9a2f8119b7ca"),
    ("summed-buckley-0.5", 1.5, "7.1667507712003546", "1.1737348870610731e-09", 1, "gradient",
     "6f31910cbd89927498992930fed8150f347397d3e14ccbf3afc0301c0dfa2ed1"),
    ("summed-buckley-0.5", 2.0, "8.3234164297969535", "1.070752375653683e-10", 1, "linear-solve",
     "7467d8a66886cafa917dc8bfd6c1a1e0a1a15196b59039876b3c0317b5f2f63b"),
    ("summed-buckley-0.5", 3.0, "10.679172370493417", "7.5537798238656251e-11", 1, "gradient",
     "2f7d5a094eb7f16a2676b3cfffc7a04c283a9aff3b097dae9816c263ac9cc52e"),
    ("snake", 1.5, "0.19907548528109673", "1.0380585280245214e-14", 1, "gradient",
     "3b93dcb39252bdf8cc77aa12518a6f5e505308a008e365916de45de9bb35c92a"),
    ("snake", 3.0, "0.0015706200321508688", "6.600622826091751e-16", 1, "gradient",
     "3b93dcb39252bdf8cc77aa12518a6f5e505308a008e365916de45de9bb35c92a"),
    ("multigraph:0", 1.0, DomainError, None, None, None, None),
    ("multigraph:0", 1.5, "1.4008787230804711", "0.0013780069610694889", 98, "newton-decrement",
     "cfc4e916f3b4d6ad4a7a98a16913ecbcb1ead57e92fd26fa16323741eb9d4a7d"),
    ("multigraph:0", 2.0, "1.0874880741076445", "3.4226986705917313e-15", 1, "linear-solve",
     "269f0709c2c4b7454327c173ba961b4bf6af0b8d39265530153692abb47c4642"),
    ("multigraph:0", 3.0, "0.50339447502485468", "3.4769293678627022e-06", 6, "newton-decrement",
     "5c9eb826f3eae183baaeb3bbdd757aaacb46d7dcabc4a013121592037982bc3e"),
    ("multigraph:3", 1.0, DomainError, None, None, None, None),
    ("multigraph:3", 1.5, "0.99484452254345368", "1.2990841937836721e-05", 4, "newton-decrement",
     "47d1a36e1efe874ca5a9bfd4af6fab7224c69d8c7a085379ced0c2ff93a4c1cc"),
    ("multigraph:3", 2.0, "0.68354734208410417", "2.8307448006503435e-15", 1, "linear-solve",
     "b6394e574aeac799a01aa2ae69cc21bf35e2401a16a9696e96109007b06cc960"),
    ("multigraph:3", 3.0, "0.34562445154524596", "1.4016645486114587e-05", 3, "newton-decrement",
     "9c996a771be3ae46ab102e424979f3068d1a7138520bff765b203aef73853097"),
    ("floating", 1.5, "0.70710678118654746", "2.2204460492503131e-16", 1, "gradient",
     "6e274947e371add44158bbf4fb35f093629ccbed6eaf6b0fcf4926f1808578aa"),
    ("floating", 3.0, "0.24999999999999994", "2.2204460492503131e-16", 1, "gradient",
     "6e274947e371add44158bbf4fb35f093629ccbed6eaf6b0fcf4926f1808578aa"),
]


# the snake at the other p of the radial rows, recorded before a chain's
# series law was read off its edge list
_SNAKE_PINS = [
    ("snake", 1.0, "1", "0", 0, "min-cut",
     "cb30fd1fa7c973147884f1a987727e12a45cbadbca2cea5fcd9c89ea985fba11"),
    ("snake", 1.1, "0.72410835178497446", "5.5511151231257827e-15", 1, "gradient",
     "3b93dcb39252bdf8cc77aa12518a6f5e505308a008e365916de45de9bb35c92a"),
    ("snake", 2.0, "0.039631048839904155", "5.5372373353179682e-15", 1, "linear-solve",
     "3b93dcb39252bdf8cc77aa12518a6f5e505308a008e365916de45de9bb35c92a"),
]


@pytest.mark.parametrize("case, p, energy, kkt, iterations, reason, sha", _PINS + _SNAKE_PINS,
                         ids=[f"{row[0]}-p{row[1]}" for row in _PINS + _SNAKE_PINS])
def test_reports_are_pinned_bit_for_bit(monkeypatch, case, p, energy, kkt, iterations, reason,
                                        sha):
    calls = _spy_series(monkeypatch)
    if energy is DomainError:
        with pytest.raises(DomainError, match="free vertices"):
            _pin_report(case, p)
    else:
        assert _pin_report(case, p) == (energy, kkt, iterations, reason, sha)
    # the builder chains are solved by the series law, once each
    assert len(calls) == (case in ("rn-2", "buckley-0.5", "summed-buckley-0.5", "snake"))


# the energy of each pin case whose core is not a chain's, from a solve that
# stops at a Newton tolerance of 1e-13: a change to how such a core is
# reduced may move the default solve's bits, but not this far
_TIGHT_ENERGIES = [
    ("bowtie:0.5", 1.5, 0.009346761633721836),
    ("bowtie:0.5", 2.0, 0.040503808264309826),
    ("bowtie:0.5", 2.5, 0.13208185692852198),
    ("bowtie:-0.5", 2.0, 1.4640761793848542),
    ("bowtie:-0.5", 2.5, 3.839793688453441),
    ("multigraph:0", 1.5, 1.400878722576184),
    ("multigraph:0", 2.0, 1.0874880741076445),
    ("multigraph:0", 3.0, 0.503394475024337),
    ("multigraph:3", 1.5, 0.9948445225434537),
    ("multigraph:3", 2.0, 0.6835473420841042),
    ("multigraph:3", 3.0, 0.3456244514984529),
    ("floating", 1.5, 0.7071067811865476),
    ("floating", 3.0, 0.25),
]


@pytest.mark.parametrize("case, p, tight", _TIGHT_ENERGIES,
                         ids=[f"{case}-p{p}" for case, p, _ in _TIGHT_ENERGIES])
def test_general_cores_stay_near_a_tight_solve(monkeypatch, case, p, tight):
    net, bc = _pin_network(case)
    assert solve_p_energy(net, bc, p).energy == pytest.approx(tight, rel=1e-9, abs=0)
    monkeypatch.setattr(network, "NEWTON_TOL", 1e-13)
    assert solve_p_energy(net, bc, p).energy == pytest.approx(tight, rel=1e-12, abs=0)


_CHAIN_SPACES = {
    "rn-2": (RN2, 0.6, 1.4),
    "buckley-0.5": (make_buckley(0.5).space, 0.6, 1.4),
    "summed-buckley-0.5": (make_summed_buckley(0.5).space, 0.6, 1.4),
    **{kind.value: (SpaceSpec(HalfLine(), HalfLineCatalog(kind)), 0.45, 1.45)
       for kind in HalfLineKind},
    # constant-weight chains: R^3, R^2 with a power weight folded into the
    # exponent (m = 1.5) and the unweighted half-line (m = 0)
    "rn-3": (SpaceSpec(RadialRn(3), Constant()), 0.6, 1.4),
    "rn-2-power-0.5": (SpaceSpec(RadialRn(2), PowerAlpha(0.5)), 0.6, 1.4),
    "halfline-constant": (SpaceSpec(HalfLine(), Constant()), 0.45, 1.45),
}

# sha256 of a chain's masses, lengths and radii, recorded before the cell
# masses were taken in blocks of 4,096 cells: the sizes straddle one and two
# block boundaries
_CHAIN_PINS = [
    ("rn-2", 4095, "9aff156c1e056f22c27f31926190fa37903cb1a6fc6d72c57e97cd5f9582f8e2"),
    ("rn-2", 4096, "e54983ac82a476e0aadc7616e731e25e9bf289ca51efbcd5efc65962f06b4860"),
    ("rn-2", 4097, "bd0767d62fc00a7a1a7d3a702df2d3466d86b2ed147d99d7ac6e13222d1295c1"),
    ("rn-2", 8193, "d9aff0a40530dc949bb95e96f3d3edb825a6164bb893c3a3be793e3154c89760"),
    ("rn-2", 20000, "8a917ea2533545a22426543e886f8da6307dc2726e3ab7a94d8522a5cc57b515"),
    ("buckley-0.5", 4095, "f2058c3b46919270b9c260fe4681381cd124d742a76c3a52d8539e051871af70"),
    ("buckley-0.5", 4096, "e2f58aafa6df9c36d4a4ad9fdd4831d840bd6b7ac098637840a14f2ea25e1399"),
    ("buckley-0.5", 4097, "c1145d0af769d9471dc6634a63f91bdc3c0f6864e4294830640ac1857d2f8d75"),
    ("buckley-0.5", 8193, "3fbcae324040df4a2dc0fd0bc69a3b3cd95826e4a9880d83714eb07123800895"),
    ("buckley-0.5", 20000, "f48155d73fd57c78e50bce924741153ecfb57f75c77cd7ddde8a0410f17d4c3d"),
    ("summed-buckley-0.5", 4095, "a6f697f4d3f109eee770df02d666bdeb6515df87732559bcbd0a32fc8c082ded"),
    ("summed-buckley-0.5", 4096, "81f438783db82f585441dcba6c233f39c2b99b848679d29529afab36b79c69b0"),
    ("summed-buckley-0.5", 4097, "579fb295843b07d9fceabea6774cfadf134345705d3d6637ad27f97103603f9b"),
    ("summed-buckley-0.5", 8193, "d5e601055943f39dc4f92e2fd454c1a80ad529082e770ac814838dabd9782659"),
    ("summed-buckley-0.5", 20000, "b726ce9d84212894a3ea9d4ea50f138a6a46128a3f72c3f2d1de08810e44764c"),
    ("min-one-over-x", 4095, "acaad77267f1868a63d83cd90b8993b3c5fff49e75ff04836b3fc9f0a038a858"),
    ("min-one-over-x", 4096, "111d238e15bb396322f4424f96845752db37317051a55cc971babd9a4bdf5ce5"),
    ("min-one-over-x", 4097, "5ac60ab6cb39838fac8649a13e42e70d7b5db9120f42f74951aed9eae86ed83c"),
    ("min-one-over-x", 8193, "6dc832b8138ccede1c677988c8365b3ce8bfc2950399e72ad21c467892853aef"),
    ("min-one-over-x", 20000, "2d1e8fe306cdd5aa18cb09f5cec9942d200a6de9b6fe951cc4b0351878d39be0"),
    ("exp-decay", 4095, "ca88692515f8abb9aae073be656dac2fd61f21c27f185c63a83eca95c1d353d8"),
    ("exp-decay", 4096, "d03629e3a4bcfd34adb0dde3a65f732478b2b87eb336ce782601412442f781aa"),
    ("exp-decay", 4097, "8fe0d681105c7938e10ccf68869e8553bbd2426855b13e1bd8d06cf185648d0a"),
    ("exp-decay", 8193, "1210876794da2def93218405e58a7f1213d40dd8455d0f3f02d33a056d371645"),
    ("exp-decay", 20000, "c95b4fc1bfbb6cffa86eecc9f24e84558ae93f6561e9e57d09691ffea113a8c2"),
    ("exp-inv-over-x-sq", 4095, "1c24401afb0cf29fa94c23cee68edb07a9c101774f6e5fbbee81a49b14879aee"),
    ("exp-inv-over-x-sq", 4096, "3ec3a1bc16d575b9cf755be8d59a161e4158f39b1813591329f6fb767b56ef43"),
    ("exp-inv-over-x-sq", 4097, "f69297286b7968c9aefd6edfa57021d4b13d8b894f2f0a93193f0ada642a1e75"),
    ("exp-inv-over-x-sq", 8193, "7ee8ba43d3ee33d0b305ac99fb04ca50d983ed05a32db444a90f5f60a0670d1f"),
    ("exp-inv-over-x-sq", 20000, "5ff7e53ba14f8112ac27373c1678bd39d35da4d4d616b3842d69dd9f3535ba0e"),
    # recorded before a constant weight's density became rho^m alone
    ("rn-3", 4095, "e09d0b7fea55977b6946e67940d530b3c29ee1dcb4d3de14499e5e23fd738fa5"),
    ("rn-3", 4097, "f3bdcf7f8a8678f8b01b76dd38e5d0268be528b3e56f182d675accb35d8548f1"),
    ("rn-3", 20000, "952de2679d28e77d5b8979000a2e7333e902c2cadf45eb511371a64b7722af92"),
    ("rn-2-power-0.5", 4095, "b83acc2ec6b6d1a788f2ca49eb3b83f6d57af6c0fac0e2f2a188ab4369052860"),
    ("rn-2-power-0.5", 4097, "ac0e6f04be5f7d23dc29eeb694c7ef962b903ac52131a6f339bde448d5d43eed"),
    ("rn-2-power-0.5", 20000, "929aff8a8ad1a6cb0f0cc7ed3a1b46525482ed6a19f27b063a5c1e029813df60"),
    ("halfline-constant", 4095, "b0fead1fed64c87091926dac6af997372cff8599e1e8e142195c5cc1cdc0eba2"),
    ("halfline-constant", 4097, "412285331330a5f3a2ae3574e7ae0190125a7b0074a77a2e9c3093122a55fc15"),
    ("halfline-constant", 20000, "1f079f1bc1b40f0e8a293c79087213bbc384bee215d8144bdd7858ac1a51eb8d"),
]


@pytest.mark.parametrize("name, N, sha", _CHAIN_PINS,
                         ids=[f"{name}-N{N}" for name, N, _ in _CHAIN_PINS])
def test_chains_are_pinned_bit_for_bit(name, N, sha):
    space, r, R = _CHAIN_SPACES[name]
    net = build_radial_network(space, r, R, N)
    digest = hashlib.sha256(b"".join(x.tobytes() for x in (net.masses, net.lengths, net.radii)))
    assert digest.hexdigest() == sha


# sha256 of the volume profile on 10,001 equally spaced radii of the chain's
# interval, recorded with _CHAIN_PINS
_PROFILE_PINS = [
    ("rn-2", "4bef9dc4c24da465c89509a3b2a7b3d686b0c1feaa383b7125d2eba5deb7a003"),
    ("buckley-0.5", "43cefab00fecf837c4a6733241867a1ea49c673c701f27296a30f3ebe5acdcfb"),
    ("summed-buckley-0.5", "43e9c60ffbf3798087191fde7b7b7170adc3e676fcf622dfea1c57c4da64d89d"),
    ("min-one-over-x", "06894df4a7b855bdaa9a344204fd36d9c7546dc3d1500de82ddb8824ae8444b3"),
    ("exp-decay", "4d8f6b936011aa669d47614096e79908633d753965c06d5e8d1dd1de6e59b896"),
    ("exp-inv-over-x-sq", "6d8b4fe5911c2e6b7914d29d58bec730f43ce62e21ab928ea02ab0d26b33d139"),
    # recorded before a constant weight's density became rho^m alone
    ("rn-3", "77ec304f3cc6b2cebe55161c7fca9a35788c7e226a1b94732b122a06e90923d0"),
]


@pytest.mark.parametrize("name, sha", _PROFILE_PINS, ids=[name for name, _ in _PROFILE_PINS])
def test_volume_profiles_are_pinned_bit_for_bit(name, sha):
    space, r, R = _CHAIN_SPACES[name]
    profile = volume_profiles(space, [np.linspace(r, R, 10001)])[0]
    assert hashlib.sha256(profile.tobytes()).hexdigest() == sha


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -1000.0, 1000.0])
def test_bowtie_grid_refuses_masses_past_the_float_range(alpha):
    # the refusal DiscreteNetwork's check gave before the builder made its own
    with pytest.raises(InputError, match="^edge masses must be finite and strictly positive$"):
        build_bowtie_grid(alpha, 1.0 / 16.0)


def _assert_rebuilt_unchanged(net):
    """DiscreteNetwork's checks take a builder's network as it is: every
    field keeps its value and dtype."""
    fields = {f.name: getattr(net, f.name) for f in dataclasses.fields(net)}
    again = DiscreteNetwork(**fields)
    assert type(net.num_vertices) is int and again.num_vertices == net.num_vertices
    for name in ("edge_i", "edge_j", "lengths", "masses", "radii"):
        got, want = getattr(net, name), getattr(again, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("name", list(_CHAIN_SPACES))
@pytest.mark.parametrize("r, R, N", [
    (0.6, 1.4, 64),
    (0.01, 1.5, np.int64(2000)),  # past GRADED_RATIO: geometric cells
    (np.float32(0.5), np.float32(1.5), 16),  # float32 radii, float64 nodes
])
def test_radial_network_passes_the_public_checks_unchanged(name, r, R, N):
    _assert_rebuilt_unchanged(build_radial_network(_CHAIN_SPACES[name][0], r, R, N))


@pytest.mark.parametrize("name", list(_CHAIN_SPACES))
def test_float32_radii_build_the_chain_of_their_float64_values(name):
    space = _CHAIN_SPACES[name][0]
    r, R = np.float32(0.6), np.float32(1.4)
    got = build_radial_network(space, r, R, 16)
    want = build_radial_network(space, float(r), float(R), 16)
    for field in ("lengths", "masses", "radii"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("k_max, cells_per_unit, extra_radii", [
    (2, 4.0, ()),
    (8, 0.5, ()),
    (5, 7.3, (math.nan, 3.0, 3.0, 5.5, 8.0, math.inf)),  # NaN, repeats and a node
    (10, 4.0, (3.0, 300.0, 300.0, math.nan)),
])
def test_snake_network_passes_the_public_checks_unchanged(k_max, cells_per_unit, extra_radii):
    _assert_rebuilt_unchanged(build_snake_network(k_max, cells_per_unit, extra_radii))


@pytest.mark.parametrize("alpha", [-1.9, -0.5, 0.5, 1.3])
@pytest.mark.parametrize("h", [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256, np.float32(1 / 16)])
def test_bowtie_grid_passes_the_public_checks_unchanged(alpha, h):
    _assert_rebuilt_unchanged(build_bowtie_grid(alpha, h))


@pytest.mark.parametrize("net, r, R", [
    (build_radial_network(RN2, 0.6, 1.4, 64), 0.6, 1.4),
    (build_radial_network(RN2, 0.6, 1.4, 64), 0.7, 1.3),
    (build_radial_network(RN2, 1e-20, 1.0, 64), 1e-20, 1.0),
    (build_snake_network(8, 4.0, (7.95, 8.05)), 7.95, 8.05),
    (build_bowtie_grid(0.5, 1 / 64), 0.875, 1.0),
    (build_bowtie_grid(-0.5, 1 / 16), 0.0, 3.0),
], ids=["rn-2", "rn-2-inside", "rn-2-graded", "snake", "bowtie", "bowtie-tip-to-rim"])
def test_condenser_bc_plates_pass_the_public_checks_unchanged(net, r, R):
    bc = condenser_bc(net, r, R)
    again = BoundaryCondition(inner=np.flatnonzero(net.radii <= r * (1 + network.PLATE_TOL)),
                              outer=np.flatnonzero(net.radii >= R * (1 - network.PLATE_TOL)))
    for got, want in ((bc.inner, again.inner), (bc.outer, again.outer)):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


def test_condenser_bc_keeps_its_slack_for_float32_radii():
    # float32(0.5) * (1 + PLATE_TOL) would round back to 0.5 in float32
    net = DiscreteNetwork(num_vertices=4, edge_i=[0, 1, 2], edge_j=[1, 2, 3],
                          lengths=[1.0, 1.0, 1.0], masses=[1.0, 1.0, 1.0],
                          radii=[0.5, 0.5 * (1 + 1e-13), 1.0, 2.0])
    for r, R in ((0.5, 2.0), (np.float32(0.5), np.float32(2.0))):
        bc = condenser_bc(net, r, R)
        assert bc.inner.tolist() == [0, 1] and bc.outer.tolist() == [3]


@pytest.mark.parametrize("r, R", [
    (1.0, 1.0),  # r == R at a vertex
    (1.3, 0.7),  # r > R
    (0.5, 1.3),  # an empty inner plate
    (0.7, 1.5),  # an empty outer plate
    (math.nan, 1.3),
    (0.7, math.inf),
    (1.06, 1.052),  # r > R with no vertex in [R, r]; the nearest are 1.05 and 1.0625
    (0.5, 10**400),  # an int past the float range
], ids=["r-equals-R", "r-above-R", "empty-inner", "empty-outer", "nan-r", "inf-R",
        "r-above-R-between-vertices", "R-past-the-floats"])
def test_condenser_bc_still_refuses_plates_it_cannot_separate(r, R):
    net = build_radial_network(RN2, 0.6, 1.4, 64)
    assert 1.0 in net.radii
    with pytest.raises(InputError, match=f"^resolution too coarse to separate r={r} from R={R}$"):
        condenser_bc(net, r, R)


def _padded(net, bc, rng):
    """net with isolated vertices inserted in its numbering, some of them put
    in the plates, and edges inside either plate inserted in its edge list;
    and the new number of each old vertex."""
    n = net.num_vertices
    total = n + 12
    new = np.sort(rng.choice(total, n, replace=False))  # old vertices keep their order
    extra = np.setdiff1d(np.arange(total), new)
    inner, outer = np.r_[new[bc.inner], extra[:3]], np.r_[new[bc.outer], extra[3:6]]
    m = len(net.edge_i)
    inside = [rng.choice(plate, (4, 2)) for plate in (inner, outer)]
    inside = np.concatenate([pair[pair[:, 0] != pair[:, 1]] for pair in inside])
    slots = np.sort(rng.choice(m + len(inside), m, replace=False))
    ei, ej = np.empty(m + len(inside), dtype=np.int64), np.empty(m + len(inside), dtype=np.int64)
    lengths, masses = rng.uniform(0.1, 2.0, (2, m + len(inside)))
    added = np.setdiff1d(np.arange(m + len(inside)), slots)
    ei[slots], ej[slots] = new[net.edge_i], new[net.edge_j]
    ei[added], ej[added] = inside.T
    lengths[slots], masses[slots] = net.lengths, net.masses
    padded = DiscreteNetwork(num_vertices=total, edge_i=ei, edge_j=ej,
                             lengths=lengths, masses=masses)
    return padded, BoundaryCondition(inner=inner, outer=outer), new


def _runs_network(seed):
    rng = np.random.default_rng(seed)
    n, ei, ej, inner, outer = _with_runs(rng)
    lengths, masses = rng.uniform(0.1, 2.0, (2, len(ei)))
    return (DiscreteNetwork(num_vertices=n, edge_i=ei, edge_j=ej, lengths=lengths,
                            masses=masses),
            BoundaryCondition(inner=inner, outer=outer))


@pytest.mark.parametrize("case, p", [
    ("bowtie:0.5", 2.5), ("rn-2", 1.5), ("rn-2", 1.0), ("multigraph:0", 1.0),
    ("multigraph:0", 1.5), ("multigraph:3", 2.0), ("multigraph:3", 3.0), ("floating", 1.5),
    ("runs:1", 1.0), ("runs:2", 1.5), ("runs:5", 2.0), ("runs:7", 3.0),
])
def test_isolated_vertices_and_plate_edges_change_no_bit(monkeypatch, case, p):
    # the reduction drops both before anything is added up, and numbers the
    # vertices it keeps in their order; a padded chain is still a chain
    calls = _spy_series(monkeypatch)
    kind, _, arg = case.partition(":")
    net, bc = _runs_network(int(arg)) if kind == "runs" else _pin_network(case)
    padded, padded_bc, new = _padded(net, bc, np.random.default_rng(len(case)))
    if p == 1 and kind in ("multigraph", "runs"):  # cores with free vertices
        for pair in ((net, bc), (padded, padded_bc)):
            with pytest.raises(DomainError, match="free vertices"):
                solve_p_energy(*pair, p)
        return
    rep, rep_padded = solve_p_energy(net, bc, p), solve_p_energy(padded, padded_bc, p)
    assert (rep.energy, rep.iterations, rep.stop_reason, rep.kkt_residual) == \
        (rep_padded.energy, rep_padded.iterations, rep_padded.stop_reason,
         rep_padded.kkt_residual)
    assert np.array_equal(rep_padded.potential[new], rep.potential)
    assert np.all(rep_padded.potential[padded_bc.inner] == 1.0)
    assert len(calls) == (2 if kind == "rn-2" else 0)
