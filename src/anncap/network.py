"""Discrete p-energy minimization on weighted networks.

This is the independent brute-force verifier: a network discretizes a
space, the edge gradient |u_i - u_j| / length stands in for the upper
gradient, and the discrete p-energy sum m_e (|du|/l_e)^p is minimized over
potentials pinned to 1 on the inner plate and 0 on the outer plate.

p = 2 is an exact sparse linear solve, p in (1, inf) \\ {2} a damped Newton
descent on the strictly convex energy, and p = 1 an exact min-cut.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse import csgraph, linalg as splinalg

from .errors import ConvergenceError, DomainError, InfeasibleError, InputError
from .measure import _cell_masses, _radial_reduction
from .spaces import Snake, SpaceSpec

__all__ = [
    "DiscreteNetwork",
    "BoundaryCondition",
    "SolveReport",
    "build_radial_network",
    "build_snake_network",
    "build_bowtie_grid",
    "solve_p_energy",
    "condenser_bc",
    "network_to_csv",
    "network_from_csv",
    "potential_to_csv",
]

MAX_ITER = 100_000
HESSIAN_EPS = 1e-12  # regularizes the Hessian only, never the energy


@dataclass(frozen=True)
class DiscreteNetwork:
    num_vertices: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    lengths: np.ndarray
    masses: np.ndarray
    radii: np.ndarray | None = None  # distance of each vertex from the center

    def __post_init__(self):
        for name in ("edge_i", "edge_j"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("lengths", "masses"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.radii is not None:
            object.__setattr__(self, "radii", np.asarray(self.radii, dtype=float))
        if np.any(self.edge_i == self.edge_j):
            raise InputError("self-loops are not allowed")
        if np.any(self.lengths <= 0) or np.any(self.masses <= 0):
            raise InputError("edge lengths and masses must be strictly positive")
        if self.edge_i.min(initial=0) < 0 or self.edge_j.min(initial=0) < 0 \
                or max(self.edge_i.max(initial=-1), self.edge_j.max(initial=-1)) >= self.num_vertices:
            raise InputError("edge endpoints out of range")

    @property
    def num_edges(self) -> int:
        return len(self.edge_i)

    def incidence(self) -> sparse.csr_matrix:
        m, n = self.num_edges, self.num_vertices
        rows = np.repeat(np.arange(m), 2)
        cols = np.column_stack([self.edge_i, self.edge_j]).ravel()
        vals = np.tile([1.0, -1.0], m)
        return sparse.csr_matrix((vals, (rows, cols)), shape=(m, n))


@dataclass(frozen=True)
class BoundaryCondition:
    inner: np.ndarray  # u = 1
    outer: np.ndarray  # u = 0

    def __post_init__(self):
        object.__setattr__(self, "inner", np.asarray(self.inner, dtype=np.int64))
        object.__setattr__(self, "outer", np.asarray(self.outer, dtype=np.int64))
        if len(self.inner) == 0 or len(self.outer) == 0:
            raise InfeasibleError("both boundary sets must be nonempty")
        if len(np.intersect1d(self.inner, self.outer)) > 0:
            raise InfeasibleError("boundary sets must be disjoint")


@dataclass
class SolveReport:
    energy: float
    potential: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool = True


def condenser_bc(net: DiscreteNetwork, r: float, R: float,
                 tol: float = 1e-12) -> BoundaryCondition:
    """Boundary sets {radius <= r} and {radius >= R} on a network that
    records vertex radii."""
    if net.radii is None:
        raise InputError("network has no vertex radii")
    inner = np.flatnonzero(net.radii <= r + tol)
    outer = np.flatnonzero(net.radii >= R - tol)
    if len(inner) == 0 or len(outer) == 0 or len(np.intersect1d(inner, outer)) > 0:
        raise InputError(f"resolution too coarse to separate r={r} from R={R}")
    return BoundaryCondition(inner=inner, outer=outer)


# ---------------------------------------------------------------------------
# builders

def build_radial_network(space: SpaceSpec, r_lo: float, r_hi: float, N: int = 2000,
                         grading: str = "uniform") -> DiscreteNetwork:
    """Path network of N cells discretizing the radial energy on [r_lo, r_hi].

    Cell mass is the measure of the radial shell; edge length is the cell
    width, so the discrete energy is a Riemann sum of int |u'|^p dmu.
    """
    if not (0 < r_lo < r_hi):
        raise InputError(f"need 0 < r_lo < r_hi, got {r_lo}, {r_hi}")
    if N < 16:
        raise InputError(f"need N >= 16 cells, got {N}")
    w, m, const = _radial_reduction(space)
    if grading == "uniform":
        nodes = np.linspace(r_lo, r_hi, N + 1)
    elif grading == "geometric-toward-outer":
        t = 1.0 - np.geomspace(1.0, 2.0**-12, N + 1)
        nodes = r_lo + (r_hi - r_lo) * (t - t[0]) / (t[-1] - t[0])
    else:
        raise InputError(f"unknown grading {grading!r}")

    def density(rho):
        return w.evaluate(rho) * rho**m

    masses = const * _cell_masses(density, nodes[:-1], nodes[1:])
    lengths = np.diff(nodes)
    idx = np.arange(N)
    return DiscreteNetwork(
        num_vertices=N + 1, edge_i=idx, edge_j=idx + 1,
        lengths=lengths, masses=masses, radii=nodes,
    )


def _snake_pieces(k_max):
    pieces = [("seg", 0.0, 1.0)]
    for k in range(1, k_max + 1):
        pieces.append(("circ", 2.0 ** (k - 1)))
        pieces.append(("seg", 2.0 ** (k - 1), 2.0**k))
    return pieces


def build_snake_network(k_max: int = 8, cells_per_unit: float = 4.0,
                        extra_radii: tuple[float, ...] = ()) -> DiscreteNetwork:
    """1-D chain following the snake's arclength with vertex radii recorded.

    ``extra_radii`` inserts exact vertices at the given radii inside the
    segments, so condenser plates can be placed without discretization slop.
    """
    geom = Snake(k_max=k_max)
    radii = [0.0]
    lengths, masses = [], []

    def extend(seg_radii):
        # chain along a segment: radius moves monotonically, mass = length
        for a, b in zip(seg_radii[:-1], seg_radii[1:]):
            lengths.append(b - a)
            masses.append(b - a)
            radii.append(b)

    for piece in _snake_pieces(geom.k_max):
        if piece[0] == "seg":
            _, a, b = piece
            cells = max(2, int(math.ceil((b - a) * cells_per_unit)))
            seg = np.linspace(a, b, cells + 1)
            snap = [x for x in extra_radii if a < x < b]
            seg = np.unique(np.concatenate([seg, snap]))
            extend(seg)
        else:
            _, rad = piece
            arclen = math.pi * rad
            cells = max(2, min(64, int(math.ceil(arclen * cells_per_unit))))
            for _ in range(cells):
                lengths.append(arclen / cells)
                masses.append(arclen / cells)
                radii.append(rad)
    n = len(radii)
    idx = np.arange(n - 1)
    return DiscreteNetwork(num_vertices=n, edge_i=idx, edge_j=idx + 1,
                           lengths=np.array(lengths), masses=np.array(masses),
                           radii=np.array(radii))


def build_bowtie_grid(alpha: float, h: float) -> DiscreteNetwork:
    """Axis-aligned grid on the planar bow-tie cone with 4-neighbor edges.

    Edge mass |midpoint|^alpha h^2, edge length h; vertex radii are the
    distances from the tip (-1, 0).
    """
    if h > 1.0 / 16.0:
        raise InputError(f"need mesh size h <= 1/16, got {h}")
    inv = round(1.0 / h)
    if abs(inv * h - 1.0) > 1e-12:
        raise InputError("mesh size h must divide 1 exactly (use h = 2^-m)")
    index = {}
    coords = []

    def in_cone(i1, i2):
        return -inv <= i1 <= 2 * inv and 2 * abs(i2) <= abs(i1)

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
                b = index[nb]
                mx = (i1 + 0.5 * d1) * h
                my = (i2 + 0.5 * d2) * h
                mass.append((mx * mx + my * my) ** (alpha / 2.0) * h * h)
                ei.append(a)
                ej.append(b)
    coords = np.array(coords)
    radii = np.hypot(coords[:, 0] + 1.0, coords[:, 1])
    return DiscreteNetwork(num_vertices=len(coords), edge_i=np.array(ei), edge_j=np.array(ej),
                           lengths=np.full(len(ei), h), masses=np.array(mass), radii=radii)


# ---------------------------------------------------------------------------
# solvers

def _check_connected(net, bc):
    """Component label of each vertex; the plates must share a component."""
    adj = sparse.csr_matrix(
        (np.ones(net.num_edges), (net.edge_i, net.edge_j)),
        shape=(net.num_vertices, net.num_vertices),
    )
    ncomp, labels = csgraph.connected_components(adj, directed=False)
    if len(set(labels[bc.inner]) & set(labels[bc.outer])) == 0:
        raise InfeasibleError("boundary sets lie in different components")
    return ncomp, labels


def _energy(net, u, p):
    d = u[net.edge_i] - u[net.edge_j]
    return float(np.sum(net.masses * (np.abs(d) / net.lengths) ** p))


def _solve_p2(net, bc, u):
    cond = net.masses / net.lengths**2
    A = net.incidence()
    L = (A.T @ sparse.diags(cond) @ A).tocsr()
    fixed = np.zeros(net.num_vertices, dtype=bool)
    fixed[bc.inner] = fixed[bc.outer] = True
    free = ~fixed
    rhs = -L[free][:, fixed] @ u[fixed]
    u = u.copy()
    u[free] = splinalg.spsolve(L[free][:, free].tocsc(), rhs)
    resid = float(np.abs(L[free] @ u - 0.0).max()) if free.any() else 0.0
    return u, resid


def _newton(net, bc, p, tol, u0):
    A = net.incidence()
    k = net.masses / net.lengths**p
    fixed = np.zeros(net.num_vertices, dtype=bool)
    fixed[bc.inner] = fixed[bc.outer] = True
    free = np.flatnonzero(~fixed)
    Af = A[:, free]
    u = u0.copy()
    energy = _energy(net, u, p)
    iterations = 0
    gnorm = math.inf
    for iterations in range(1, MAX_ITER + 1):
        d = A @ u
        grad = Af.T @ (p * k * np.abs(d) ** (p - 1) * np.sign(d))
        gnorm = float(np.abs(grad).max()) if len(grad) else 0.0
        if gnorm <= tol * max(1.0, energy):
            break
        hw = p * (p - 1) * k * (np.abs(d) + HESSIAN_EPS) ** (p - 2)
        H = (Af.T @ sparse.diags(hw) @ Af).tocsc()
        try:
            step = splinalg.spsolve(H, -grad)
        except RuntimeError:
            step = -grad / hw.max()  # gradient fallback on degenerate Hessian
        # backtracking line search; the energy is convex, full steps usually work
        t = 1.0
        slope = float(grad @ step)
        if slope >= 0:
            step = -grad
            slope = -float(grad @ grad)
        # Newton decrement: the quadratic model predicts a -slope/2 decrease,
        # which is affine-invariant and well scaled even for p near 1
        if -slope <= 2.0 * tol * max(energy, tol):
            break
        accepted = False
        for _ in range(60):
            u_try = u.copy()
            u_try[free] += t * step
            e_try = _energy(net, u_try, p)
            if e_try <= energy + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break  # at numerical stationarity
        rel_drop = (energy - e_try) / max(energy, 1e-300)
        u, energy = u_try, e_try
        if rel_drop < tol and gnorm <= math.sqrt(tol) * max(1.0, energy):
            break
    else:
        raise ConvergenceError(
            f"Newton did not converge in {MAX_ITER} iterations", best_energy=energy
        )
    return u, energy, iterations, gnorm


def _min_cut(net, bc):
    g = nx.DiGraph()
    label = {}
    for v in bc.inner:
        label[int(v)] = "S"
    for v in bc.outer:
        label[int(v)] = "T"
    conduct = net.masses / net.lengths
    for a, b, c in zip(net.edge_i, net.edge_j, conduct):
        na, nb = label.get(int(a), int(a)), label.get(int(b), int(b))
        if na == nb:
            continue
        c_old = g.edges[na, nb]["capacity"] if g.has_edge(na, nb) else 0.0
        g.add_edge(na, nb, capacity=c_old + c)
        c_old = g.edges[nb, na]["capacity"] if g.has_edge(nb, na) else 0.0
        g.add_edge(nb, na, capacity=c_old + c)
    cut_value, (source_side, _) = nx.minimum_cut(g, "S", "T")
    u = np.zeros(net.num_vertices)
    for node in source_side:
        if node == "S":
            u[bc.inner] = 1.0
        elif node != "T":
            u[node] = 1.0
    u[bc.outer] = 0.0
    return u, float(cut_value)


def solve_p_energy(net: DiscreteNetwork, bc: BoundaryCondition, p: float,
                   tol: float = 1e-9) -> SolveReport:
    """Minimize the discrete p-energy with u = 1 on inner and u = 0 on outer.

    p = 2 is an exact linear solve; p = 1 an exact min-cut (coarea /
    max-flow duality); other p > 1 use damped Newton with line search.
    Vertices in a component touching neither plate are pinned to u = 0.
    A non-finite energy raises ConvergenceError.
    """
    if p < 1:
        raise DomainError(f"need p >= 1, got {p}")
    if tol <= 0:
        raise InputError("tol must be positive")
    ncomp, labels = _check_connected(net, bc)
    # such a component makes the free system singular, and has energy 0 at
    # any constant
    on_plate = np.zeros(ncomp, dtype=bool)
    on_plate[labels[bc.inner]] = on_plate[labels[bc.outer]] = True
    floating = np.flatnonzero(~on_plate[labels])
    if len(floating):
        bc = BoundaryCondition(inner=bc.inner, outer=np.concatenate([bc.outer, floating]))
    u = np.zeros(net.num_vertices)
    u[bc.inner] = 1.0
    if p == 1:
        u, energy = _min_cut(net, bc)
        u[bc.inner] = 1.0
        iters, resid = 0, 0.0
    else:
        u, resid = _solve_p2(net, bc, u)
        if p == 2:
            energy, iters = _energy(net, u, 2.0), 1
        else:
            u, energy, iters, resid = _newton(net, bc, p, tol, u)
    if not math.isfinite(energy):
        raise ConvergenceError(f"p = {p} solve ended at non-finite energy {energy}")
    return SolveReport(energy=energy, potential=u, iterations=iters, kkt_residual=resid)


# ---------------------------------------------------------------------------
# CSV interchange

def network_to_csv(net: DiscreteNetwork, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "length", "mass"])
        for a, b, l, m in zip(net.edge_i, net.edge_j, net.lengths, net.masses):
            writer.writerow([int(a), int(b), f"{l:.17g}", f"{m:.17g}"])


def network_from_csv(path) -> DiscreteNetwork:
    ei, ej, lengths, masses = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:4]] != ["i", "j", "length", "mass"]:
            raise InputError(f"{path}: expected CSV header 'i,j,length,mass'")
        for row in reader:
            if not row:
                continue
            ei.append(int(row[0]))
            ej.append(int(row[1]))
            lengths.append(float(row[2]))
            masses.append(float(row[3]))
    num = max(max(ei), max(ej)) + 1 if ei else 0
    return DiscreteNetwork(num_vertices=num, edge_i=np.array(ei), edge_j=np.array(ej),
                           lengths=np.array(lengths), masses=np.array(masses))


def potential_to_csv(report: SolveReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "u"])
        for i, val in enumerate(report.potential):
            writer.writerow([i, f"{val:.17g}"])
