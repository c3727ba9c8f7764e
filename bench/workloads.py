"""The benchmark's three workloads: seeded inputs, ops and output checks.

An op is one unit of user-visible work (an acceptance criterion, a gallery
entry, a network solve, a CLI call).  ``Op.run`` is the timed part and
calls anncap only through module attributes, so the tracer's wrappers see
it.  ``Op.check`` runs outside the timed region on the op's output and
raises ``CheckFailed`` when the output is wrong; it uses the functions
bound at import time, before any wrapper is installed, so checks never
appear in the traced layer metrics.

Reference values come, in order of preference, from a closed form
(``cap_rn_unweighted``, ``cap_snake``), from the other computation route
at criterion 1's 1% tolerance, or from ``expected.json``, which records
the verdicts, exit codes and numbers this commit produces
(``record_expected.py`` rewrites it).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from anncap import acceptance, cli, gallery, network
from anncap.capacity import cap_auto, cap_rn_unweighted, cap_snake
from anncap.gallery import (
    default_gallery,
    make_bowtie,
    make_buckley,
    make_halfline,
    make_rn_unweighted,
    make_summed_buckley,
)
from anncap.network import build_radial_network, condenser_bc, solve_p_energy
from anncap.spaces import AnnulusSpec
from anncap.weights import HalfLineKind

EXPECTED_PATH = Path(__file__).with_name("expected.json")

ROUTE_TOL = 1e-2         # criterion 1: formula vs network
CLOSED_FORM_TOL = 1e-9   # engine vs its own closed form
SLOPE_TOL = 1e-2         # absolute, for fitted slopes near 0
REL_ERR_FLOOR = 1e-12    # route errors below this count as this
P_VALUES = (1.0, 1.1, 1.5, 2.0, 2.5, 3.0)


class CheckFailed(Exception):
    """An op produced an output that disagrees with its reference."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]  # details such as {"route_rel_err": x}


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _close(value, ref, tol, what):
    if ref == 0.0:
        _expect(value == 0.0, f"{what}: {value!r} != 0")
    else:
        _expect(math.isfinite(value) and _rel(value, ref) <= tol,
                f"{what}: {value!r} vs reference {ref!r} (tolerance {tol:g})")


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _fmt(x: float) -> str:
    return f"{x:g}" if float(x).is_integer() else repr(float(x))


# ---------------------------------------------------------------------------
# verdicts: the acceptance suite and the gallery, fixed inputs

_CRITERION_ROUTE_ERR = {
    1: re.compile(r"worst relative error ([-+.0-9eE]+)"),
    5: re.compile(r"oracle relative error ([-+.0-9eE]+)"),
    9: re.compile(r"worst relative error vs min-cut ([-+.0-9eE]+)"),
}

SMOKE_CRITERIA = (1, 2, 4, 10)
SMOKE_ENTRIES = ("rn-unweighted-2", "snake")


def verdicts_ops(seed, smoke, expected):
    """The 10 criteria in verify-all order, then every gallery entry.
    The inputs are fixed, so the seed is not used."""
    del seed
    exp = expected["verdicts"]
    ops = []
    for i, (_, fn) in enumerate(acceptance.CRITERIA, start=1):
        if smoke and i not in SMOKE_CRITERIA:
            continue

        def check(out, i=i):
            ok, detail = out
            _expect(("PASS" if ok else "FAIL") == exp["criteria"][str(i)],
                    f"criterion {i}: {'PASS' if ok else 'FAIL'} - {detail}")
            pattern = _CRITERION_ROUTE_ERR.get(i)
            if pattern is None:
                return {}
            match = pattern.search(detail)
            _expect(match is not None, f"criterion {i}: no relative error in {detail!r}")
            return {"route_rel_err": max(float(match.group(1)), REL_ERR_FLOOR)}

        ops.append(Op(f"acceptance.criterion_{i}", fn, check))
    for entry in default_gallery():
        if smoke and entry.name not in SMOKE_ENTRIES:
            continue

        def check(out, name=entry.name):
            got = {v.claim: v.status for v in out}
            _expect(got == exp["gallery"][name], f"gallery {name}: {got}")
            return {}

        ops.append(Op(f"gallery.{entry.name}",
                      lambda e=entry: gallery.verify_expectations(e), check))
    return [ops]


# ---------------------------------------------------------------------------
# network: builders and p-energy solves, no quadrature in the timed path

RADIAL_SPACES = ("rn-2", "buckley-0.5", "summed-buckley-0.5")
# half-widths d of the annuli (1 - d, 1 + d); each straddles the Buckley
# singularity at 1 and gives similar Newton work
ANNULUS_HALF_WIDTHS = (0.375, 0.4, 0.425)
NETWORK_SIZES = (2000, 20000)
SNAKE_P = (1.0, 1.5, 2.0, 3.0)
SNAKE_CASES = ((2, 0.01), (3, 0.05), (5, 0.5))  # (k, delta) as in criterion 5
BOWTIE_INV_H = (64, 128, 256)
BOWTIE_P = (2.0, 2.5)
BOWTIE_ALPHA = 0.5
BOWTIE_DELTA = 0.125


def _radial_space(name):
    return {
        "rn-2": lambda: make_rn_unweighted(2).space,
        "buckley-0.5": lambda: make_buckley(0.5).space,
        "summed-buckley-0.5": lambda: make_summed_buckley(0.5).space,
    }[name]()


@dataclass
class CaseResult:
    energy: float
    iterations: int
    kkt_residual: float
    converged: bool
    build_s: float
    solve_s: float


def _solve_case(build, r, R, p):
    t0 = perf_counter()
    net = build()
    bc = network.condenser_bc(net, r, R)
    t1 = perf_counter()
    rep = network.solve_p_energy(net, bc, p)
    t2 = perf_counter()
    return CaseResult(rep.energy, rep.iterations, rep.kkt_residual, rep.converged,
                      t1 - t0, t2 - t1)


def _case_details(res: CaseResult, rel=None):
    details = {"energy": res.energy, "iterations": res.iterations,
               "kkt_residual": res.kkt_residual, "converged": res.converged,
               "build_s": res.build_s, "solve_s": res.solve_s}
    if rel is not None:
        details["route_rel_err"] = max(rel, REL_ERR_FLOOR)
    return details


def network_ops(seed, smoke, expected):
    rng = random.Random(seed)
    sizes = (200,) if smoke else NETWORK_SIZES
    p_values = (1.0, 2.0, 2.5) if smoke else P_VALUES
    ops = []
    for name in RADIAL_SPACES[:1] if smoke else RADIAL_SPACES:
        space = _radial_space(name)
        for N in sizes:
            for p in p_values:
                d = rng.choice(ANNULUS_HALF_WIDTHS)
                r, R = 1.0 - d, 1.0 + d

                def run(space=space, r=r, R=R, N=N, p=p):
                    return _solve_case(lambda: network.build_radial_network(space, r, R, N), r, R, p)

                def check(res, space=space, r=r, R=R, p=p):
                    exact = cap_auto(space, p, AnnulusSpec(r, R)).value
                    _close(res.energy, exact, ROUTE_TOL, f"network energy, formula {exact!r}")
                    return _case_details(res, _rel(res.energy, exact))

                ops.append(Op(f"radial.{name}.N{N}.p{_fmt(p)}.d{_fmt(d)}", run, check))
    for p in SNAKE_P[:1] if smoke else SNAKE_P:
        for k, delta in SNAKE_CASES:
            r, R = 2.0**k - delta, 2.0**k + delta

            def run(r=r, R=R, p=p):
                return _solve_case(lambda: network.build_snake_network(
                    k_max=8, cells_per_unit=4.0, extra_radii=(r, R)), r, R, p)

            def check(res, k=k, delta=delta, p=p):
                exact = cap_snake(p, k, delta).value
                _close(res.energy, exact, ROUTE_TOL, "snake energy vs path formula")
                return _case_details(res, _rel(res.energy, exact))

            ops.append(Op(f"snake.k{k}.p{_fmt(p)}", run, check))
    for inv_h in BOWTIE_INV_H[:1] if smoke else BOWTIE_INV_H:
        for p in BOWTIE_P:
            key = f"h{inv_h}.p{_fmt(p)}"

            def run(inv_h=inv_h, p=p):
                return _solve_case(lambda: network.build_bowtie_grid(BOWTIE_ALPHA, 1.0 / inv_h),
                                   1.0 - BOWTIE_DELTA, 1.0, p)

            def check(res, key=key):
                _close(res.energy, expected["network"]["bowtie"][key], ROUTE_TOL,
                       f"bow-tie energy {key} vs recorded")
                return _case_details(res)

            ops.append(Op(f"bowtie.{key}", run, check))
    return [ops]


# ---------------------------------------------------------------------------
# queries: a seeded mix of in-process CLI calls

KINDS = ("rn", "buckley", "summed-buckley", "bowtie", "snake", "halfline")
RADIAL_KINDS = ("rn", "buckley", "summed-buckley", "halfline")
RN_DIMS = (2, 3)
BUCKLEY_ETAS = (0.3, 0.5, 0.8)
BOWTIE_ALPHAS = (-0.5, 0.5)
BOWTIE_DELTAS = (0.0625, 0.125, 0.25)
HALFLINE_SWEEP_R = {"min-one-over-x": 64.0, "exp-decay": 8.0, "exp-inv-over-x-sq": 0.4}
# narrow annulus families: a draw changes the inputs, not the amount of work
RADIAL_ANNULI = ((0.625, 1.375), (0.6, 1.4), (0.575, 1.425))
HALFLINE_ANNULI = ((0.45, 1.45), (0.425, 1.425), (0.4, 1.4))
QUERY_PASSES = 8  # generated up front; a run cycles through them while time allows


@dataclass(frozen=True)
class Query:
    command: str
    kind: str
    variant: tuple   # ("n", 2) / ("eta", 0.5) / ("alpha", 0.5) / ("kind", ...) / ()
    p: float | None
    r: float | None
    R: float
    extra: tuple = ()

    @property
    def argv(self):
        argv = [self.command, "--space", self.kind]
        if self.variant:
            name, value = self.variant
            argv += [f"--{name}", value if isinstance(value, str) else _fmt(value)]
        argv += list(self.extra)
        if self.p is not None:
            argv += ["--p", _fmt(self.p)]
        if self.r is not None:
            argv += ["--r", _fmt(self.r)]
        return argv + ["--R", _fmt(self.R)]

    @property
    def key(self):
        return " ".join(self.argv)


def _variants(kind):
    if kind == "rn":
        return [("n", n) for n in RN_DIMS]
    if kind == "buckley":
        return [("eta", e) for e in BUCKLEY_ETAS]
    if kind == "summed-buckley":
        return [("eta", 0.5)]
    if kind == "bowtie":
        return [("alpha", a) for a in BOWTIE_ALPHAS]
    if kind == "halfline":
        return [("kind", k.value) for k in HalfLineKind]
    return [()]


def _annuli(kind):
    if kind == "bowtie":
        return [(1.0 - d, 1.0) for d in BOWTIE_DELTAS]
    if kind == "snake":
        return [(2.0**k - d, 2.0**k + d) for k, d in SNAKE_CASES]
    return list(HALFLINE_ANNULI if kind == "halfline" else RADIAL_ANNULI)


def query_choices(command, kind, variant, p):
    """Every query the mix may draw for one (command, kind, variant, p)."""
    v = variant
    if command == "cap" or (command == "oracle" and kind in RADIAL_KINDS):
        return [Query(command, kind, v, p, r, R) for r, R in _annuli(kind)]
    if command == "sweep":
        if kind == "rn":
            return [Query("sweep", kind, v, p, None, R) for R in (1.0, 2.0)]
        if kind in ("buckley", "summed-buckley"):
            return [Query("sweep", kind, v, p, None, 1.0, ("--bound", "upper-eta")),
                    Query("sweep", kind, v, p, None, 1.0, ("--no-gating",))]
        if kind == "bowtie":
            # at p <= n + alpha every capacity is 0 and the CLI's slope fit
            # takes log(0), so the mix stays above that exponent
            if p > 2.0 + v[1]:
                return [Query("sweep", kind, v, p, None, 1.0, ("--no-gating",))]
            return []
        if kind == "halfline":
            return [Query("sweep", kind, v, p, None, HALFLINE_SWEEP_R[v[1]],
                          ("--bound", "upper-simple"))]
        return []  # snake: sweep families are not symmetric about 2^k
    if command == "ad":
        if kind == "rn":
            return [Query("ad", kind, v, None, None, R) for R in (1.0, 2.0)]
        if kind == "snake":
            return [Query("ad", kind, v, None, None, 48.0)]  # inside the segment (32, 64)
        if kind == "halfline":
            return [Query("ad", kind, v, None, None, HALFLINE_SWEEP_R[v[1]])]
        # the bow-tie's 2-D quadrature is kept to the annuli criterion 6 fits
        extra = ("--thin", "9") if kind == "bowtie" else ()
        return [Query("ad", kind, v, None, None, 1.0, extra)]
    return []


def query_strata():
    """The (command, kind, variant, p) strata of one pass.  Every pass draws
    one query from each, so passes differ only in annuli, radii, bound
    modes and order, not in how much of each kind of work they hold."""
    strata = []
    for p in P_VALUES:
        for command in ("cap", "sweep", "oracle"):
            for kind in KINDS:
                strata += [(command, kind, v, p) for v in _variants(kind)
                           if query_choices(command, kind, v, p)]
    strata += [("ad", kind, v, None) for kind in KINDS for v in _variants(kind)]
    return strata


def query_universe():
    seen = {}
    for stratum in query_strata():
        for q in query_choices(*stratum):
            seen[q.key] = q
    return list(seen.values())


def query_space(q: Query):
    """The SpaceSpec the CLI builds for q, from the same gallery makers."""
    if q.kind == "rn":
        return make_rn_unweighted(q.variant[1]).space
    if q.kind == "buckley":
        return make_buckley(q.variant[1]).space
    if q.kind == "summed-buckley":
        return make_summed_buckley(q.variant[1]).space
    if q.kind == "bowtie":
        return make_bowtie(q.variant[1]).space
    if q.kind == "halfline":
        return make_halfline(HalfLineKind(q.variant[1])).space
    raise ValueError(f"no reference space for {q.kind}")


class QueryChecker:
    """Checks CLI outputs; reference values are memoized per query."""

    def __init__(self, expected):
        self.expected = expected["queries"]
        self._refs = {}

    def capacity_reference(self, q: Query):
        """(value, tolerance, source) for cap_p of q's space and annulus."""
        key = (q.kind, q.variant, q.p, q.r, q.R)
        if key not in self._refs:
            ann = AnnulusSpec(q.r, q.R)
            if q.kind == "rn":
                ref = (cap_rn_unweighted(q.variant[1], q.p, ann).value, CLOSED_FORM_TOL, "closed form")
            elif q.kind == "snake":
                k = round(math.log2(0.5 * (q.r + q.R)))
                ref = (cap_snake(q.p, k, q.R - 2.0**k).value, CLOSED_FORM_TOL, "path formula")
            elif q.kind == "bowtie":
                ref = (self.expected[q.key]["value"], ROUTE_TOL, "recorded")
            else:
                space = query_space(q)
                net = build_radial_network(space, q.r, q.R, 2000)
                rep = solve_p_energy(net, condenser_bc(net, q.r, q.R), q.p)
                ref = (rep.energy, ROUTE_TOL, "network route")
            self._refs[key] = ref
        return self._refs[key]

    def __call__(self, q: Query, out):
        code, stdout, stderr = out
        exp = self.expected.get(q.key)
        _expect(exp is not None, f"{q.key}: no recorded expectation")
        _expect(code == exp["exit"], f"{q.key}: exit {code}, expected {exp['exit']}: {stderr.strip()[-200:]}")
        if q.command == "cap":
            value = float(json.loads(stdout)["value"])
            ref, tol, source = self.capacity_reference(q)
            _close(value, ref, tol, f"{q.key}: capacity vs {source}")
            return {}
        if q.command == "oracle":
            res = json.loads(stdout)
            formula, net = float(res["formula"]), float(res["network"])
            rel = float(res["relative_error"])
            # the network value is the second route; a closed form, where
            # one exists, checks the formula as well
            _close(net, formula, ROUTE_TOL, f"{q.key}: network vs formula")
            if q.kind == "rn":
                ref, tol, source = self.capacity_reference(q)
                _close(formula, ref, tol, f"{q.key}: formula vs {source}")
            _expect(abs(rel - _rel(net, formula)) <= 1e-12 + 1e-9 * rel,
                    f"{q.key}: reported relative error {rel!r}")
            return {"route_rel_err": max(rel, REL_ERR_FLOOR)}
        if q.command == "sweep":
            verdict = json.loads(stderr.strip().splitlines()[-1])
            rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
            _expect(verdict["verdict"] == exp["verdict"], f"{q.key}: verdict {verdict['verdict']}")
            _expect(len(rows) == verdict["rows"] == 11, f"{q.key}: {len(rows)} rows")
            _expect(abs(float(verdict["slope"]) - exp["slope"]) <= SLOPE_TOL,
                    f"{q.key}: slope {verdict['slope']} vs recorded {exp['slope']}")
            if q.kind == "rn":
                for r, R, cap, _, _ in rows:
                    exact = cap_rn_unweighted(q.variant[1], q.p, AnnulusSpec(float(r), float(R))).value
                    _close(float(cap), exact, CLOSED_FORM_TOL, f"{q.key}: capacity row")
            return {}
        if q.command == "ad":
            res = json.loads(stdout)
            _close(float(res["eta_hat"]), exp["eta_hat"], ROUTE_TOL, f"{q.key}: eta_hat vs recorded")
            return {}
        raise CheckFailed(f"unknown command {q.command}")


def run_query(q: Query):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(q.argv)
    return code, out.getvalue(), err.getvalue()


def draw_pass(rng, groups):
    """One query per stratum.  Strata that differ only in p form a group,
    and a group spreads its draws evenly over its choices (annuli, radii,
    bound modes), so every pass holds the same mix of work."""
    queries = []
    for group in groups:
        k = len(query_choices(*group[0]))
        picks = [i % k for i in range(len(group))]
        rng.shuffle(picks)
        queries += [query_choices(*s)[i] for s, i in zip(group, picks)]
    rng.shuffle(queries)
    return queries


def queries_ops(seed, smoke, expected):
    """QUERY_PASSES seeded passes over the strata, each shuffled."""
    rng = random.Random(seed)
    checker = QueryChecker(expected)
    groups = {}
    for stratum in query_strata():
        groups.setdefault(stratum[:3], []).append(stratum)
    passes = []
    for _ in range(2 if smoke else QUERY_PASSES):
        queries = draw_pass(rng, list(groups.values()))
        if smoke:  # three cheap queries per command
            cheap = [q for q in queries if q.p != 1.0 and q.kind != "bowtie"]
            queries = [q for c in ("cap", "sweep", "ad", "oracle")
                       for q in [q for q in cheap if q.command == c][:3]]
        passes.append([Op(q.key, lambda q=q: run_query(q),
                          lambda out, q=q: checker(q, out)) for q in queries])
    return passes


WORKLOADS = {
    "verdicts": verdicts_ops,
    "network": network_ops,
    "queries": queries_ops,
}
