"""Command-line front end.

Exit codes: 0 all PASS, 1 any FAIL, 2 usage error, 3 numeric or
convergence error.  ``_plain`` and ``_emit`` are the one serializer of
every artifact: a float is a decimal string of 17 significant digits in
JSON and in the LF-terminated CSV, JSON keys are sorted, so identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import functools
import json
import math
import sys
import time

from .bounds import BoundId, BoundSpec, verify_envelope
from .capacity import cap_auto
from .decay import check_one_ad, fit_annulus_decay
from .errors import (AnncapError, ApplicabilityError, ConvergenceError, DomainError,
                     InputError, QuadratureError)
from .gallery import (
    _cap_slope,
    _thin_annuli,
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


def _finite_float(text: str) -> float:
    """argparse type: a finite float, so NaN and inf end as usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type: a finite float >= 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a number >= 0, got {text!r}")
    return value


def _plain(x):
    """x with every float as its %.17g string, an enum as its value and a
    tuple as a list, recursing into lists and dicts."""
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def _emit(record, file=None, indent=None) -> None:
    """Print a report (a dataclass) or a dict as one JSON document."""
    if dataclasses.is_dataclass(record):
        record = dataclasses.asdict(record)
    print(json.dumps(_plain(record), indent=indent, sort_keys=True), file=file)


def _write_rows(stream, rows) -> None:
    """A sweep's rows as CSV with LF line endings."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["r", "R", "cap", "bound", "ratio"])
    writer.writerows(_plain(rows))


# --space kind: (the option it needs, --n when omitted, its gallery maker of
# (that option's value, n)); a kind without a default --n fixes its dimension
# and rejects --n
_SPACES = {
    "rn": (None, 2, lambda _, n: make_rn_unweighted(n)),
    "buckley": ("eta", 1, make_buckley),
    "summed-buckley": ("eta", None, lambda eta, _: make_summed_buckley(eta)),
    "bowtie": ("alpha", 2, make_bowtie),
    "snake": (None, None, lambda *_: make_snake()),
    "halfline": ("kind", None, lambda kind, _: make_halfline(HalfLineKind(kind))),
}


def _space_from_args(ns) -> SpaceSpec:
    option, default_n, make = _SPACES[ns.space]
    if ns.n is not None and default_n is None:
        dims = ", ".join(kind for kind, row in _SPACES.items() if row[1] is not None)
        raise InputError(f"--n applies to --space {dims}, not {ns.space}")
    value = None if option is None else getattr(ns, option)
    if option is not None and value is None:
        raise InputError(f"--space {ns.space} needs --{option}")
    return make(value, default_n if ns.n is None else ns.n).space


def _thin_annuli_of(ns):
    """The --thin annuli (R(1 - 2^-j), R), j = 2 .. thin + 1, refusing a
    --thin whose last r rounds to R."""
    if ns.R > 0:
        # 1 - 2^-54 rounds to 1, so the search ends by j = 54
        limit = next(j for j in range(2, 55) if ns.R * (1.0 - 2.0**-j) >= ns.R) - 2
        if ns.thin > limit:
            raise InputError(f"--thin {ns.thin} is past float resolution at R = {ns.R}: "
                             f"R(1 - 2^-{limit + 2}) rounds to R; need --thin <= {limit}")
    return _thin_annuli(ns.R, ns.thin + 1)


def _cmd_cap(ns) -> int:
    space = _space_from_args(ns)
    _emit(cap_auto(space, ns.p, AnnulusSpec(ns.r, ns.R)))
    return 0


def _cmd_sweep(ns) -> int:
    space = _space_from_args(ns)
    spec = BoundSpec(_BOUND_IDS[ns.bound], ns.p, eta=ns.eta, q=ns.q)
    rep = verify_envelope(space, spec, _thin_annuli_of(ns),
                          check_hypotheses=not ns.no_gating)
    if any(row[2] <= 0 for row in rep.rows):
        raise DomainError(f"capacity degenerates to 0 at p = {ns.p}; no decay slope to fit")
    if ns.out:
        try:
            fh = open(ns.out, "w", newline="")
        except OSError as exc:
            raise InputError(f"cannot open --out {ns.out!r}: {exc.strerror}") from None
        with fh:
            _write_rows(fh, rep.rows)
    else:
        _write_rows(sys.stdout, rep.rows)
    passed = rep.verdict == "PASS"
    _emit({"verdict": rep.verdict, "passed": passed, "slope": rep.slope,
           "min_ratio": rep.min_ratio, "max_ratio": rep.max_ratio, "rows": len(rep.rows),
           "cap_slope": _cap_slope(rep)}, file=sys.stderr)
    return 0 if passed else 1


def _cmd_ad(ns) -> int:
    space = _space_from_args(ns)
    if ns.range:
        try:
            lo, hi = (float(x) for x in ns.range.split(":"))
        except ValueError:
            lo = hi = math.nan
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InputError(f"--range needs finite lo:hi, got {ns.range!r}")
        _emit(check_one_ad(space, (lo, hi)))
        return 0
    if ns.R is None:
        raise InputError("ad needs --range lo:hi or --R")
    _emit(fit_annulus_decay(space, ns.R, [a.r for a in _thin_annuli_of(ns)]))
    return 0


def _cmd_oracle(ns) -> int:
    space = _space_from_args(ns)
    ann = AnnulusSpec(ns.r, ns.R)
    exact = cap_auto(space, ns.p, ann).value
    if exact == 0.0:
        raise DomainError(f"capacity degenerates to 0 at p = {ns.p}; no relative error")
    net = build_radial_network(space, ns.r, ns.R, ns.cells)
    rep = solve_p_energy(net, condenser_bc(net, ns.r, ns.R), ns.p)
    rel = abs(rep.energy - exact) / exact
    _emit({"formula": exact, "network": rep.energy, "relative_error": rel, "cells": ns.cells,
           "stop_reason": rep.stop_reason, "iterations": rep.iterations,
           "kkt_residual": rep.kkt_residual})
    return 0 if rel <= ns.rel_tol else 1


def _cmd_gallery(ns) -> int:
    if ns.gallery_action == "list":
        _emit(gallery_manifest(), indent=2)
        return 0
    entries = default_gallery()
    if ns.name is not None:
        entries = [e for e in entries if e.name == ns.name]
        if not entries:
            raise InputError(f"no gallery entry named {ns.name!r}")
    failed = False
    for entry in entries:
        for v in verify_expectations(entry):
            print(f"{entry.name} / {v.claim}: {v.status} - {v.evidence}")
            failed = failed or v.status == "FAIL"
    return 1 if failed else 0


def _cmd_verify_all(ns) -> int:
    from .acceptance import CRITERIA

    t0 = time.perf_counter()
    failed = False
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        ok, detail = fn()
        print(f"criterion {i} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
        failed = failed or not ok
    print(f"total wall time {time.perf_counter() - t0:.1f}s")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anncap")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_args(p):
        p.add_argument("--space", required=True, choices=list(_SPACES))
        p.add_argument("--n", type=int, help="dimension (default: rn 2, buckley 1, bowtie 2)")
        p.add_argument("--eta", type=_finite_float)
        p.add_argument("--alpha", type=_finite_float)
        p.add_argument("--kind", choices=[k.value for k in HalfLineKind])

    p_cap = sub.add_parser("cap", help="one capacity value")
    add_space_args(p_cap)
    p_cap.add_argument("--p", type=_finite_float, required=True)
    p_cap.add_argument("--r", type=_finite_float, required=True)
    p_cap.add_argument("--R", type=_finite_float, required=True)

    p_sweep = sub.add_parser("sweep", help="envelope verification over a thin family")
    add_space_args(p_sweep)
    p_sweep.add_argument("--p", type=_finite_float, required=True)
    p_sweep.add_argument("--R", type=_finite_float, required=True)
    p_sweep.add_argument("--q", type=_finite_float)
    p_sweep.add_argument("--thin", type=int, default=11, help="number of thin annuli")
    p_sweep.add_argument("--bound", default="two-sided-nice", choices=sorted(_BOUND_IDS))
    p_sweep.add_argument("--no-gating", action="store_true",
                         help="evaluate the bare bound even when hypotheses fail")
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")

    p_ad = sub.add_parser("ad", help="annular-decay analysis")
    add_space_args(p_ad)
    p_ad.add_argument("--range", help="rho range lo:hi for the 1-AD check")
    p_ad.add_argument("--R", type=_finite_float, help="fixed R for an exponent fit")
    p_ad.add_argument("--thin", type=int, default=11)

    p_oracle = sub.add_parser("oracle", help="formula vs discrete network")
    add_space_args(p_oracle)
    p_oracle.add_argument("--p", type=_finite_float, required=True)
    p_oracle.add_argument("--r", type=_finite_float, required=True)
    p_oracle.add_argument("--R", type=_finite_float, required=True)
    p_oracle.add_argument("--cells", type=int, default=2000)
    p_oracle.add_argument("--rel-tol", type=_nonnegative_float, default=0.01)

    p_gal = sub.add_parser("gallery", help="list or verify the example gallery")
    p_gal.add_argument("gallery_action", choices=["list", "verify"])
    p_gal.add_argument("--name")

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


_shared_parser = functools.cache(_build_parser)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _shared_parser().parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except SystemExit as exc:  # argparse has printed the usage error (2) or --help (0)
        return exc.code
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


if __name__ == "__main__":
    main()
