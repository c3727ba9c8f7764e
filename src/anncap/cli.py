"""Command-line front end.

Exit codes: 0 all PASS, 1 any FAIL, 2 usage error, 3 numeric or
convergence error.  All emitted CSV uses '.' decimals with 17 significant
digits; JSON carries numbers as decimal strings where exactness matters,
so identical configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bounds import BoundId, BoundSpec, verify_envelope
from .capacity import cap_auto
from .decay import check_one_ad, fit_annulus_decay
from .errors import (AnncapError, ApplicabilityError, ConvergenceError, DomainError,
                     InputError, QuadratureError)
from .gallery import (
    default_gallery,
    gallery_manifest,
    make_bowtie,
    make_buckley,
    make_halfline,
    make_rn_unweighted,
    make_snake,
    make_summed_buckley,
    verify_expectations,
)
from .network import build_radial_network, condenser_bc, solve_p_energy
from .spaces import AnnulusSpec, SpaceSpec
from .weights import HalfLineKind

__all__ = ["main", "run"]

_BOUND_IDS = {b.value: b for b in BoundId}

USAGE_ERROR = 2
NUMERIC_ERROR = 3


def _space_from_args(ns) -> SpaceSpec:
    kind = ns.space
    if kind == "rn":
        return make_rn_unweighted(ns.n).space
    if kind == "buckley":
        if ns.eta is None:
            raise InputError("--space buckley needs --eta")
        return make_buckley(ns.eta, ns.n if ns.n != 2 else 1).space
    if kind == "summed-buckley":
        if ns.eta is None:
            raise InputError("--space summed-buckley needs --eta")
        return make_summed_buckley(ns.eta).space
    if kind == "bowtie":
        if ns.alpha is None:
            raise InputError("--space bowtie needs --alpha")
        return make_bowtie(ns.alpha).space
    if kind == "snake":
        return make_snake().space
    if kind == "halfline":
        if ns.kind is None:
            raise InputError("--space halfline needs --kind")
        return make_halfline(HalfLineKind(ns.kind)).space
    raise InputError(f"unknown space {kind!r}")


def _thin_annuli(R: float, count: int):
    return [AnnulusSpec(R * (1.0 - 2.0**-j), R) for j in range(2, 2 + count)]


def _cmd_cap(ns) -> int:
    space = _space_from_args(ns)
    res = cap_auto(space, ns.p, AnnulusSpec(ns.r, ns.R))
    print(json.dumps({
        "value": f"{res.value:.17g}",
        "method": res.method.value,
        "quadrature_error": f"{res.quadrature_error:.17g}",
    }, sort_keys=True))
    return 0


def _cmd_sweep(ns) -> int:
    space = _space_from_args(ns)
    spec = BoundSpec(_BOUND_IDS[ns.bound], ns.p, eta=ns.eta, q=ns.q)
    annuli = _thin_annuli(ns.R, ns.thin)
    rep = verify_envelope(space, ns.p, lambda ann: cap_auto(space, ns.p, ann).value, spec,
                          annuli, check_hypotheses=not ns.no_gating)
    if any(row[2] <= 0 for row in rep.rows):
        raise DomainError(f"capacity degenerates to 0 at p = {ns.p}; no decay slope to fit")
    if ns.out:
        rep.to_csv(ns.out)
    else:
        print("r,R,cap,bound,ratio")
        for row in rep.rows:
            print(",".join(f"{x:.17g}" for x in row))
    xs = [math.log(1.0 - a.r / a.R) for a in annuli]
    cap_slope = float(np.polyfit(xs, [math.log(row[2]) for row in rep.rows], 1)[0])
    verdict = json.loads(rep.verdict_json())
    verdict["cap_slope"] = f"{cap_slope:.17g}"
    print(json.dumps(verdict, sort_keys=True), file=sys.stderr)
    return 0 if rep.passed else 1


def _cmd_ad(ns) -> int:
    space = _space_from_args(ns)
    if ns.range:
        lo, hi = (float(x) for x in ns.range.split(":"))
        rep = check_one_ad(space, (lo, hi))
        print(rep.to_json())
        return 0
    if ns.R is None:
        raise InputError("ad needs --range lo:hi or --R")
    rep = fit_annulus_decay(space, ns.R, [a.r for a in _thin_annuli(ns.R, ns.thin)])
    print(rep.to_json())
    return 0


def _cmd_oracle(ns) -> int:
    space = _space_from_args(ns)
    ann = AnnulusSpec(ns.r, ns.R)
    exact = cap_auto(space, ns.p, ann).value
    net = build_radial_network(space, ns.r, ns.R, ns.cells)
    rep = solve_p_energy(net, condenser_bc(net, ns.r, ns.R), ns.p)
    rel = abs(rep.energy - exact) / exact
    print(json.dumps({
        "formula": f"{exact:.17g}",
        "network": f"{rep.energy:.17g}",
        "relative_error": f"{rel:.17g}",
        "cells": ns.cells,
    }, sort_keys=True))
    return 0 if rel <= ns.rel_tol else 1


def _cmd_gallery(ns) -> int:
    if ns.gallery_action == "list":
        print(gallery_manifest())
        return 0
    entries = default_gallery()
    if ns.name:
        entries = [e for e in entries if e.name == ns.name]
        if not entries:
            raise InputError(f"no gallery entry named {ns.name!r}")
    failed = False
    for entry in entries:
        for v in verify_expectations(entry, budget=ns.budget):
            print(f"{entry.name} / {v.claim}: {v.status} - {v.evidence}")
            failed = failed or v.status == "FAIL"
    return 1 if failed else 0


def _cmd_verify_all(ns) -> int:
    from .acceptance import run_all

    return run_all()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anncap")
    parser.add_argument("--config", help="JSON file of default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_args(p):
        p.add_argument("--space", required=True,
                       choices=["rn", "buckley", "summed-buckley", "bowtie", "snake", "halfline"])
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--eta", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--q", type=float)
        p.add_argument("--kind", choices=[k.value for k in HalfLineKind])

    p_cap = sub.add_parser("cap", help="one capacity value")
    add_space_args(p_cap)
    p_cap.add_argument("--p", type=float, required=True)
    p_cap.add_argument("--r", type=float, required=True)
    p_cap.add_argument("--R", type=float, required=True)

    p_sweep = sub.add_parser("sweep", help="envelope verification over a thin family")
    add_space_args(p_sweep)
    p_sweep.add_argument("--p", type=float, required=True)
    p_sweep.add_argument("--R", type=float, required=True)
    p_sweep.add_argument("--thin", type=int, default=11, help="number of thin annuli")
    p_sweep.add_argument("--bound", default="two-sided-nice", choices=sorted(_BOUND_IDS))
    p_sweep.add_argument("--no-gating", action="store_true",
                         help="evaluate the bare bound even when hypotheses fail")
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")

    p_ad = sub.add_parser("ad", help="annular-decay analysis")
    add_space_args(p_ad)
    p_ad.add_argument("--range", help="rho range lo:hi for the 1-AD check")
    p_ad.add_argument("--R", type=float, help="fixed R for an exponent fit")
    p_ad.add_argument("--thin", type=int, default=11)

    p_oracle = sub.add_parser("oracle", help="formula vs discrete network")
    add_space_args(p_oracle)
    p_oracle.add_argument("--p", type=float, required=True)
    p_oracle.add_argument("--r", type=float, required=True)
    p_oracle.add_argument("--R", type=float, required=True)
    p_oracle.add_argument("--cells", type=int, default=2000)
    p_oracle.add_argument("--rel-tol", type=float, default=0.01)

    p_gal = sub.add_parser("gallery", help="list or verify the example gallery")
    p_gal.add_argument("gallery_action", choices=["list", "verify"])
    p_gal.add_argument("--name")
    p_gal.add_argument("--budget", type=float, help="wall-second budget per entry")

    sub.add_parser("verify-all", help="run the acceptance suite")
    return parser


_COMMANDS = {
    "cap": _cmd_cap,
    "sweep": _cmd_sweep,
    "ad": _cmd_ad,
    "oracle": _cmd_oracle,
    "gallery": _cmd_gallery,
    "verify-all": _cmd_verify_all,
}


def _apply_config(parser, argv):
    # peek at --config so file values become defaults, CLI flags still win
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    with open(known.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InputError("--config must contain a JSON object")
    valid = set()
    for action in parser._actions:
        valid.add(action.dest)
    for group in parser._subparsers._group_actions:
        for sp in group.choices.values():
            for action in sp._actions:
                valid.add(action.dest)
    unknown = set(cfg) - valid
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    parser.set_defaults(**cfg)
    for group in parser._subparsers._group_actions:
        for sp in group.choices.values():
            sp.set_defaults(**{k: v for k, v in cfg.items()
                               if any(a.dest == k for a in sp._actions)})


def run(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _apply_config(parser, argv)
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except (QuadratureError, ConvergenceError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (InputError, ApplicabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AnncapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


def main() -> None:
    sys.exit(run())
