"""Discrete p-energy minimization on weighted networks.

This is the independent brute-force verifier: a network discretizes a
space, the edge gradient |u_i - u_j| / length stands in for the upper
gradient, and the discrete p-energy sum m_e (|du|/l_e)^p is minimized over
potentials pinned to 1 on the inner plate and 0 on the outer plate.

The builders' arrays hold by construction what DiscreteNetwork checks:
int64 endpoints in range, no self-loop, and float lengths, masses and
radii, finite, with lengths and masses > 0 and radii >= 0. So they skip
the check, which stays for networks given from outside, broadcast arrays
included; each builder refuses a mass past the float range itself, the
radial one with DomainError (a cell of width 0 has mass 0), the bow-tie
with InputError. The radial builder and condenser_bc take their radii as
Python floats, so a float32 radius gives the float64 nodes and plate slack
of its value. condenser_bc's plates skip BoundaryCondition's checks: it
builds them only when both are non-empty and r (1 + PLATE_TOL) <
R (1 - PLATE_TOL), so that no radius lies in both, and refuses otherwise.

Every solve runs on the network's core. One pass over the edges reads
each end's plate and keeps the crossing edges, those not inside one
plate; when they are one run of edge numbers, as a chain's are, they are
read as views, else gathered. Only the returned potential is written back
at full length.

A chain is told apart next, on the crossing edges as the network numbers
them, before any vertex is renumbered: the first starts on the inner
plate and the last ends on the outer, each other starts where the one
before it ended, and the K free vertices they pass through have strictly
increasing numbers, as every radial and snake chain's have between
condenser plates. Its core is one inner-outer edge of the series
conductance
k_min (sum_e (k_min / k_e)^(1/(p-1)))^-(p-1), k_e = m_e / l_e^p, evaluated
in this scaled form so that nothing overflows as p nears 1; its p -> 1
limit, used at p = 1, is k_min, exact since a min of floats is exact. One
cumsum gives the total and each vertex's drop, split over the edges in
proportion to (k_min / k_e)^(1/(p-1)), the minimizer given the ends; at
p = 1 one cumsum of the edges that tie at k_min puts the cut at the last.

Any other network, such as a chain with a parallel, reversed or floating
edge, is renumbered: the free vertices the crossing edges touch, in their
order, then each plate as one node. On the h = 1/256 bow-tie grid, plates
(0.875, 1), 1,056 of the 327,680 edges cross, on 543 of the 164,609
vertices. Its core keeps the crossing edges of the plates' component as
they are: one breadth-first search from the inner plate must reach the
outer one, and the components touching neither plate are left out, at
u = 0. Parallel edges are summed where the solver scatters them. The
h = 1/256 bow-tie leaves a core of 545 nodes.

On the core, p = 2 is an exact linear solve and p in (1, inf) \\ {2} a
damped Newton descent on the strictly convex energy; a core with no free
vertex, such as a chain's, needs no solve. p = 1 is solved only on such a
core, whose edges are the cut; a p = 1 core with a free vertex raises
DomainError, since on a grid the least cut measures the l1 perimeter of
its stencil, not the 1-capacity. For p > 1 the reported energy and KKT
residual are those of the returned potential on the whole network; for
p = 1 the energy is the core's conductance, which the cut attains.

Every p > 1 linear solve on a core goes through one kernel,
`_FreeLaplacian`: the m free vertices are ordered once per solve by
reverse Cuthill-McKee, each edge's w_e (e_i - e_j)(e_i - e_j)^T is
scattered into LAPACK symmetric band storage by a precomputed index, and
the system is solved by banded Cholesky. At bandwidth b that costs
O(m b^2) time and m (b + 1) floats.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InfeasibleError, InputError
from .measure import _cell_masses, _radial_density, _radial_reduction
from .spaces import Snake, SpaceSpec, _finite

__all__ = [
    "DiscreteNetwork",
    "BoundaryCondition",
    "SolveReport",
    "build_radial_network",
    "build_snake_network",
    "build_bowtie_grid",
    "solve_p_energy",
    "condenser_bc",
]

MAX_ITER = 100_000
MAX_CELLS = 10**7  # radial and snake chain size; about 0.1 GB of arrays per million cells
HESSIAN_EPS = 1e-12  # regularizes the Hessian only, never the energy
PLATE_TOL = 1e-12  # relative slack on the plate radii of condenser_bc
GRADED_RATIO = 100.0  # build_radial_network grades its cells geometrically above this R/r
# Newton stops once its gradient, decrement or relative drop is below this:
# a stopping threshold, not a bound on the energy's error
NEWTON_TOL = 1e-9


def _indices(x, name):
    """``x`` as an int64 array, if it holds integers (or nothing)."""
    x = np.asarray(x)
    if x.size and x.dtype.kind not in "iu":
        raise InputError(f"{name} must hold integers, got dtype {x.dtype}")
    return x.astype(np.int64, copy=False)


@dataclass(frozen=True)
class DiscreteNetwork:
    num_vertices: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    lengths: np.ndarray
    masses: np.ndarray
    radii: np.ndarray | None = None  # distance of each vertex from the center

    def __post_init__(self):
        n = self.num_vertices
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise InputError(f"num_vertices must be an integer >= 0, got {n!r}")
        object.__setattr__(self, "num_vertices", int(n))
        for name in ("edge_i", "edge_j"):
            object.__setattr__(self, name, _indices(getattr(self, name), name))
        for name in ("lengths", "masses"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.radii is not None:
            r = np.asarray(self.radii, dtype=float)
            object.__setattr__(self, "radii", r)
            if r.shape != (n,) or (n and not 0 <= r.min() <= r.max() < math.inf):
                raise InputError(f"radii must be 1-D of length {n}, finite and >= 0")
        i, j = self.edge_i, self.edge_j
        arrays = (i, j, self.lengths, self.masses)
        if any(x.ndim != 1 for x in arrays) or len({len(x) for x in arrays}) > 1:
            raise InputError("edge_i, edge_j, lengths and masses must be 1-D of one length")
        if not len(i):
            return
        if np.any(i == j):
            raise InputError("self-loops are not allowed")
        for name in ("lengths", "masses"):
            x = getattr(self, name)
            if not 0 < x.min() <= x.max() < math.inf:  # a NaN min or max fails too
                raise InputError(f"edge {name} must be finite and strictly positive")
        if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n:
            raise InputError("edge endpoints out of range")


def _unchecked(cls, **fields):
    """A DiscreteNetwork or BoundaryCondition holding fields as given, with
    no __post_init__: for the arrays of this module's builders and of
    condenser_bc, which hold what those checks ask by construction."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class BoundaryCondition:
    inner: np.ndarray  # u = 1
    outer: np.ndarray  # u = 0

    def __post_init__(self):
        object.__setattr__(self, "inner", _indices(self.inner, "inner"))
        object.__setattr__(self, "outer", _indices(self.outer, "outer"))
        if len(self.inner) == 0 or len(self.outer) == 0:
            raise InfeasibleError("both boundary sets must be nonempty")
        # numpy checks membership by a boolean table over the span of the
        # indices, or by sorting when that span is far larger than the sets
        if np.isin(self.outer, self.inner).any():
            raise InfeasibleError("boundary sets must be disjoint")


@dataclass
class SolveReport:
    energy: float
    potential: np.ndarray
    iterations: int
    kkt_residual: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        """False only when the line search stalled."""
        return self.stop_reason != "line-search-stalled"


def condenser_bc(net: DiscreteNetwork, r: float, R: float) -> BoundaryCondition:
    """Boundary sets {radius <= r} and {radius >= R} on a network that
    records vertex radii, each with a slack of PLATE_TOL relative to its
    plate's radius.  Unless both are non-empty and r (1 + PLATE_TOL) <
    R (1 - PLATE_TOL), which r >= R and a non-finite radius fail, the
    network's resolution cannot separate them: an InputError."""
    if net.radii is None:
        raise InputError("network has no vertex radii")
    if _finite(r) and _finite(R):
        r, R = float(r), float(R)
        lo, hi = r * (1.0 + PLATE_TOL), R * (1.0 - PLATE_TOL)
        inner, outer = np.flatnonzero(net.radii <= lo), np.flatnonzero(net.radii >= hi)
        if lo < hi and len(inner) and len(outer):  # no radius is both <= lo and >= hi
            return _unchecked(BoundaryCondition, inner=inner, outer=outer)
    raise InputError(f"resolution too coarse to separate r={r} from R={R}")


# ---------------------------------------------------------------------------
# builders

def build_radial_network(space: SpaceSpec, r_lo: float, r_hi: float,
                         N: int = 2000) -> DiscreteNetwork:
    """Path network of N cells discretizing the radial energy on [r_lo, r_hi].

    Cell mass is the measure of the radial shell; edge length is the cell
    width, so the discrete energy is a Riemann sum of int |u'|^p dmu. The
    cells are of equal width, or of equal ratio where r_hi > GRADED_RATIO
    r_lo: a uniform cell near r_lo would then be far wider than r_lo, and
    the capacity is set at r_lo.
    """
    if not (0 < r_lo < r_hi and _finite(r_hi)):
        raise InputError(f"need 0 < r_lo < r_hi < inf, got {r_lo}, {r_hi}")
    r_lo, r_hi = float(r_lo), float(r_hi)
    if not (isinstance(N, (int, np.integer)) and 16 <= N <= MAX_CELLS):
        raise InputError(f"need an integer 16 <= N <= {MAX_CELLS} cells, got {N}")
    w, m, const = _radial_reduction(space)
    nodes = (np.geomspace if r_hi > GRADED_RATIO * r_lo else np.linspace)(r_lo, r_hi, N + 1)
    with np.errstate(all="ignore"):  # a mass past the float range is refused below
        masses = const * _cell_masses(_radial_density(w, m), nodes[:-1], nodes[1:])
    # a cell of width 0 has mass 0, so this refusal covers the lengths too
    if not 0 < masses.min() <= masses.max() < math.inf:
        raise DomainError(f"cell masses on [{r_lo}, {r_hi}] leave the float range")
    idx = np.arange(N)
    return _unchecked(DiscreteNetwork, num_vertices=int(N) + 1, edge_i=idx, edge_j=idx + 1,
                      lengths=np.diff(nodes), masses=masses, radii=nodes)


def build_snake_network(k_max: int = 8, cells_per_unit: float = 4.0,
                        extra_radii: tuple[float, ...] = ()) -> DiscreteNetwork:
    """1-D chain following the snake's arclength with vertex radii recorded.

    ``extra_radii`` inserts exact vertices at the given radii inside the
    segments, so condenser plates can be placed without discretization slop.
    A chain of more than MAX_CELLS cells is refused before any array is made.
    """
    if not 0 < cells_per_unit < math.inf:
        raise InputError(f"need a finite cells_per_unit > 0, got {cells_per_unit}")
    geom = Snake(k_max=k_max)
    # (a, b, cells of the half-circle at radius a, cells of the segment from a
    # to b) for each k; a segment's count stops just past MAX_CELLS, so that
    # it stays an integer
    plan = []
    for k in range(geom.k_max + 1):
        a, b = 2.0 ** (k - 1) if k else 0.0, 2.0**k
        arc = max(2, math.ceil(min(64.0, math.pi * a * cells_per_unit))) if k else 0
        cells = max(2, math.ceil(min((b - a) * cells_per_unit, MAX_CELLS + 1)))
        plan.append((a, b, arc, cells))
    # each extra radius adds at most one cell
    if sum(arc + cells for *_, arc, cells in plan) + len(extra_radii) > MAX_CELLS:
        raise InputError(f"a snake chain with k_max = {k_max} and {cells_per_unit} cells per "
                         f"unit has more than {MAX_CELLS} cells")
    radii, lengths = [np.zeros(1)], []
    for a, b, arc, cells in plan:
        if arc:  # the half-circle at radius a, before the segment from a to b
            radii.append(np.full(arc, a))
            lengths.append(np.full(arc, math.pi * a / arc))
        # along a segment the radius moves monotonically and mass = length
        seg = np.unique(np.concatenate([np.linspace(a, b, cells + 1),
                                        [x for x in extra_radii if a < x < b]]))
        radii.append(seg[1:])
        lengths.append(np.diff(seg))
    # np.unique leaves distinct, increasing radii, so every length is > 0
    lengths = np.concatenate(lengths)
    idx = np.arange(len(lengths))
    return _unchecked(DiscreteNetwork, num_vertices=len(lengths) + 1, edge_i=idx,
                      edge_j=idx + 1, lengths=lengths, masses=lengths.copy(),
                      radii=np.concatenate(radii))


def build_bowtie_grid(alpha: float, h: float) -> DiscreteNetwork:
    """Axis-aligned grid on the planar bow-tie cone with 4-neighbor edges.

    Edge mass |midpoint|^alpha h^2, edge length h; vertex radii are the
    distances from the tip (-1, 0).
    """
    if not 0 < h <= 1.0 / 16.0:
        raise InputError(f"need mesh size 0 < h <= 1/16, got {h}")
    inv = round(1.0 / h)
    if abs(inv * h - 1.0) > 1e-12:
        raise InputError(f"mesh size h must be 1/k for an integer k, to 1e-12, got {h}")
    # column c (at i1 = c - inv) holds i2 in [-half[c], half[c]]; vertices
    # are numbered column by column, so (i1, i2) is center[c] + i2
    cols = np.arange(-inv, 2 * inv + 1)
    half = np.abs(cols) // 2
    size = 2 * half + 1
    start = np.cumsum(size)  # one past the column's last vertex
    nv = int(start[-1])
    center = start - half - 1
    i2 = np.arange(nv, dtype=float)  # small integers, exact as floats
    i2 -= np.repeat(center.astype(float), size)
    # slot 2 v + d holds vertex v's edge in direction d, (1, 0) then (0, 1),
    # when its far end is in the cone: none leaves the last column or a
    # column's top vertex, nor an end of a column wider than the next. The
    # step to the far end and the mass, from the exact midpoint coordinates,
    # are computed over all slots and read at the slots with an edge; each
    # table is dropped once read, so that later arrays reuse its pages. What
    # depends on i1 alone is computed per column and repeated down it
    has = np.ones((nv, 2), dtype=bool)
    narrow = np.flatnonzero(half[1:] < half[:-1])
    has[start[narrow] - 1, 0] = has[start[narrow] - size[narrow], 0] = False
    has[start[-2]:, 0] = False
    has[start - 1, 1] = False
    f = np.flatnonzero(has)
    step = np.ones((nv, 2), dtype=np.int64)
    step[:, 0] = np.repeat(np.append(np.diff(center), 0), size)
    ej = step.ravel()[f]
    del step
    x, mx = cols * h, (cols + 0.5) * h
    y = i2 * h
    mass = np.empty((nv, 2))  # the squared midpoint radius, then the mass
    np.multiply(y, y, out=mass[:, 0])
    mass[:, 0] += np.repeat(mx * mx, size)
    my = i2  # i2's last use: its buffer holds my, then the squared radius
    my += 0.5
    my *= h
    my *= my
    my += np.repeat(x * x, size)
    mass[:, 1] = my
    del i2, my
    # one pow over the contiguous table: numpy's strided or scalar pow can
    # differ from it by an ulp. A mass past the float range is refused below
    with np.errstate(over="ignore"):
        mass **= alpha / 2.0
    mass *= h
    mass *= h
    masses = mass.ravel()[f]
    del mass
    # no midpoint is the pinch, so a mass is 0, inf or NaN only through the
    # power's under- or overflow or a NaN alpha
    if not 0 < masses.min() <= masses.max() < math.inf:
        raise InputError("edge masses must be finite and strictly positive")
    f >>= 1
    ej += f
    x += 1.0
    # every edge has length h: one read-only value stands for all of them
    return _unchecked(DiscreteNetwork, num_vertices=nv, edge_i=f, edge_j=ej,
                      lengths=np.broadcast_to(float(h), len(f)), masses=masses,
                      radii=np.hypot(np.repeat(x, size), y, out=y))


# ---------------------------------------------------------------------------
# solvers

# the arrays the solvers read, without DiscreteNetwork's checks: a reduced
# core may hold conductances that under- or overflow
_Edges = namedtuple("_Edges", "num_vertices edge_i edge_j lengths masses")


def _energy(net, u, p):
    d = u[net.edge_i] - u[net.edge_j]
    return float(np.sum(net.masses * (np.abs(d) / net.lengths) ** p))


def _divergence(net, flux):
    """Edge fluxes summed into each node, + at edge_i and - at edge_j."""
    n = net.num_vertices
    return np.bincount(net.edge_i, flux, n) - np.bincount(net.edge_j, flux, n)


class _FreeLaplacian:
    """The w-weighted Laplacian of a core on its free nodes, all but the last
    two (the plates), in band storage; the core has at least one.

    ``order`` lists the free nodes in reverse Cuthill-McKee order, the order
    of every free-node vector below. For positive w the matrix is positive
    definite, since every node of a core is joined to a plate.
    """

    def __init__(self, net):
        from scipy.sparse import csgraph, csr_matrix

        self.net = net
        m = net.num_vertices - 2
        a, b = net.edge_i, net.edge_j
        both = (a < m) & (b < m)
        graph = csr_matrix(
            (np.ones(2 * both.sum()), (np.r_[a[both], b[both]], np.r_[b[both], a[both]])),
            shape=(m, m))
        self.order = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
        pos = np.full(m + 2, -1)
        pos[self.order] = np.arange(m)
        a, b = pos[a], pos[b]
        lo, hi = np.minimum(a, b)[both], np.maximum(a, b)[both]
        band = int((hi - lo).max(initial=0))
        # LAPACK lower band storage holds L[i, j], i >= j, at [i - j, j]: each
        # free end adds w_e on row 0, each free-free edge -w_e at [hi - lo, lo]
        self._edges = np.concatenate([np.flatnonzero(a >= 0), np.flatnonzero(b >= 0),
                                      np.flatnonzero(both)])
        self._slots = np.concatenate([a[a >= 0], b[b >= 0], (hi - lo) * m + lo])
        self._signs = np.repeat([1.0, -1.0], [len(self._edges) - len(lo), len(lo)])
        self._shape = (band + 1, m)

    def divergence(self, flux):
        """The edge fluxes' divergence at each free node."""
        return _divergence(self.net, flux)[self.order]

    def solve(self, w, rhs):
        """Solve L_w x = rhs; raises LinAlgError if L_w is not positive
        definite. Non-finite weights are not checked here: they come back
        as a LinAlgError or a non-finite x, and so as a non-finite energy."""
        ab = np.bincount(self._slots, weights=w[self._edges] * self._signs,
                         minlength=self._shape[0] * self._shape[1]).reshape(self._shape)
        from scipy import linalg
        return linalg.solveh_banded(ab, rhs, overwrite_ab=True, lower=True,
                                    check_finite=False)


def _solve_p2(net, lap):
    """The p = 2 potential of a core: 1 on its inner plate, 0 on its outer."""
    cond = net.masses / net.lengths**2
    u = np.zeros(net.num_vertices)
    u[-2] = 1.0
    try:
        u[lap.order] = lap.solve(cond, -lap.divergence(cond * (u[net.edge_i] - u[net.edge_j])))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"p = 2 linear solve failed: {exc}") from exc
    return u


def _newton(net, lap, p, u):
    tol = NEWTON_TOL
    k = net.masses / net.lengths**p
    energy = _energy(net, u, p)
    for iterations in range(1, MAX_ITER + 1):
        d = u[net.edge_i] - u[net.edge_j]
        grad = lap.divergence(p * k * np.abs(d) ** (p - 1) * np.sign(d))
        gnorm = float(np.abs(grad).max(initial=0.0))
        if gnorm <= tol * max(1.0, energy):
            reason = "gradient"
            break
        hw = p * (p - 1) * k * (np.abs(d) + HESSIAN_EPS) ** (p - 2)
        try:
            step = lap.solve(hw, -grad)
        except np.linalg.LinAlgError:
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
            reason = "newton-decrement"
            break
        for _ in range(60):
            u_try = u.copy()
            u_try[lap.order] += t * step
            e_try = _energy(net, u_try, p)
            # a step must lower the energy: once 1e-4 * t * slope is below
            # its rounding, the Armijo test alone passes steps that do not
            if e_try < energy and e_try <= energy + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            reason = "line-search-stalled"
            break
        rel_drop = (energy - e_try) / max(energy, 1e-300)
        u, energy = u_try, e_try
        if rel_drop < tol and gnorm <= math.sqrt(tol) * max(1.0, energy):
            reason = "relative-drop"
            break
    else:
        raise ConvergenceError(f"Newton did not converge in {MAX_ITER} iterations")
    return u, iterations, reason


def _series(k, p):
    """The one-edge core of a chain whose conductances k run in order from
    the inner plate to the outer, and its expand: the series law read off
    the edge list. One cumsum gives the total and every vertex's drop."""
    kmin = k.min(keepdims=True)
    if p == 1:
        w = kmin
        cuts = np.cumsum(k == kmin)  # the least-conductance edges so far
    else:
        # each edge's (kmin / k)^(1/(p-1)), its share of the drop; 1 where k
        # is kmin, so that no 0 / 0 or inf / inf is formed
        ratio = np.divide(kmin, k, out=np.ones(len(k)), where=k != kmin)
        ratio **= 1.0 / (p - 1.0)
        drop = np.cumsum(ratio)
        w = kmin * drop[-1:] ** (1.0 - p)

    def expand(core_u):
        ua, ub = core_u
        if p == 1:  # the inner side up to the last cut, the outer past it
            u = np.where(cuts[:-1] < cuts[-1], ua, ub)
        else:
            u = ua - (ua - ub) * (drop[:-1] / drop[-1])
        return np.r_[u, core_u]

    return _Edges(2, np.array([0]), np.array([1]), np.ones(1), w), expand


def _reduce(net, bc, p):
    """The core (module docstring) of a network. Returns the crossing edges
    on the compact nodes (the vertices they touch, in their order, then the
    inner and the outer plate), their conductances k, the core (its plates
    last, its other nodes in their order), the map from a potential on the
    core to one on the compact nodes, and the vertices of all but the last
    two compact nodes."""
    n = net.num_vertices
    if min(bc.inner.min(), bc.outer.min()) < 0 or max(bc.inner.max(), bc.outer.max()) >= n:
        raise InputError(f"plate vertices must lie in 0..{n - 1}")
    # one pass over the edges reads each end's plate (1 inner, 2 outer, 0
    # none) and drops the edges inside one plate
    plate = np.zeros(n, dtype=np.int8)
    plate[bc.inner], plate[bc.outer] = 1, 2
    pa, pb = plate[net.edge_i], plate[net.edge_j]
    cross = np.flatnonzero((pa != pb) | (pa == 0))
    if len(cross) and cross[-1] - cross[0] == len(cross) - 1:  # one run: read views
        cross = slice(cross[0], cross[-1] + 1)
    a, b, pa, pb = net.edge_i[cross], net.edge_j[cross], pa[cross], pb[cross]
    lengths, masses = net.lengths[cross], net.masses[cross]
    with np.errstate(over="ignore", divide="ignore"):
        k = masses / lengths**p
    # masses and lengths are positive, so a k of 0 is an underflow: through
    # it, plates that are joined would read an energy of 0
    if not k.min(initial=1.0) > 0:
        raise DomainError(f"an edge conductance m / l^p underflows to 0 at p = {p}")
    # a chain: inner plate, free vertices in increasing order, outer plate,
    # each edge starting where the one before it ended. Its free vertices
    # are then the compact nodes 0, ..., K - 1 in order, so its edges there
    # are the path through them, and no vertex is renumbered
    if (len(k) and pa[0] == 1 and pb[-1] == 2 and not pb[:-1].any()
            and np.array_equal(a[1:], b[:-1]) and (b[1:-1] > b[:-2]).all()):
        nodes = len(k) + 1
        path = np.r_[nodes - 2, np.arange(nodes - 2), nodes - 1]
        sub = _Edges(nodes, path[:-1], path[1:], lengths, masses)
        return (sub, k, *_series(k, p), b[:-1])
    # any other network runs on the free vertices the crossing edges touch,
    # numbered in their order, then the inner and the outer plate
    free = np.zeros(n, dtype=bool)
    free[a] = free[b] = True
    free &= plate == 0
    keep = np.flatnonzero(free)
    nodes = len(keep) + 2
    node = np.empty(n, dtype=np.int64)
    node[keep] = np.arange(nodes - 2)
    for x, px in ((a, pa), (b, pb)):  # a plate vertex's node is its plate's
        on = np.flatnonzero(px)
        node[x[on]] = px[on] + np.int64(nodes - 3)
    sub = _Edges(nodes, node[a], node[b], lengths, masses)
    # one search from the inner plate finds its component, which must hold
    # the outer plate; the core is that component's edges as they are
    from scipy.sparse import csgraph, csr_matrix
    graph = csr_matrix((np.ones(len(k)), (sub.edge_i, sub.edge_j)), shape=(nodes, nodes))
    reached = np.zeros(nodes, dtype=bool)
    reached[csgraph.breadth_first_order(graph, nodes - 2, directed=False,
                                        return_predecessors=False)] = True
    if not reached[-1]:
        raise InfeasibleError("boundary sets lie in different components")
    kept = np.flatnonzero(reached)
    on = np.flatnonzero(reached[sub.edge_i])
    at = np.empty(nodes, dtype=np.int64)
    at[kept] = np.arange(len(kept))
    core = _Edges(len(kept), at[sub.edge_i[on]], at[sub.edge_j[on]], np.ones(len(on)), k[on])

    def expand(core_u):
        u = np.zeros(nodes)
        u[kept] = core_u
        return u

    return sub, k, core, expand, keep


def solve_p_energy(net: DiscreteNetwork, bc: BoundaryCondition, p: float) -> SolveReport:
    """Minimize the discrete p-energy with u = 1 on inner and u = 0 on outer.

    The network is first reduced to its core (module docstring). On the
    core, p = 2 is an exact linear solve and other p > 1 use damped Newton
    with line search. p = 1 is solved only where the core has no free
    vertex, as a chain's has not: its edges are the cut, and any other
    p = 1 core raises DomainError.
    The iterations and stop reason are the core solve's.
    Vertices in a component touching neither plate are pinned to u = 0.
    A non-finite energy raises ConvergenceError.
    """
    if not 1 <= p < math.inf:
        raise DomainError(f"need a finite p >= 1, got {p}")
    sub, k, core, expand, keep = _reduce(net, bc, p)
    if core.num_vertices == 2:
        # no free vertex: the potential is the plates'.  No solve runs; at
        # p > 1 the iteration count and stop reason are on purpose the ones
        # a solve gives such a core (one linear solve, or one Newton
        # gradient check), so a report does not show whether it was skipped
        core_u = np.array([1.0, 0.0])
        if p == 1:  # the core's edges are the cut
            energy, iters, reason = float(core.masses.sum()), 0, "min-cut"
        else:
            iters, reason = 1, "linear-solve" if p == 2 else "gradient"
    elif p == 1:
        raise DomainError(
            "p = 1 is solved only when the reduced network is one plate-to-plate edge, "
            f"as a chain's is; this one has {core.num_vertices - 2} free vertices")
    else:
        lap = _FreeLaplacian(core)
        core_u = _solve_p2(core, lap)
        if p == 2:
            iters, reason = 1, "linear-solve"
        else:
            core_u, iters, reason = _newton(core, lap, p, core_u)
    # clipping to [0, 1] never raises the energy, and undoes rounding
    u = np.clip(expand(core_u), 0.0, 1.0)
    if p > 1:  # the crossing edges' differences, read once for E and for dE/du
        d = u[sub.edge_i] - u[sub.edge_j]
        energy = float(np.sum(sub.masses * (np.abs(d) / sub.lengths) ** p))  # as _energy
    if not math.isfinite(energy):
        raise ConvergenceError(f"p = {p} solve ended at non-finite energy {energy}")
    kkt = 0.0
    if p > 1:  # the largest |dE/du| over the free nodes, all but the last two
        grad = _divergence(sub, p * k * np.abs(d) ** (p - 1) * np.sign(d))
        kkt = float(np.abs(grad[:-2]).max(initial=0.0))
    # the vertices no crossing edge touches are 0, the inner plate's 1
    potential = np.zeros(net.num_vertices)
    potential[keep] = u[:-2]
    potential[bc.inner] = 1.0
    return SolveReport(energy=energy, potential=potential, iterations=iters, kkt_residual=kkt,
                       stop_reason=reason)
