"""Record the verdicts, exit codes and numbers this commit produces.

    PYTHONPATH=src:bench python3 bench/record_expected.py [--check-only]

Writes bench/expected.json: the status of every acceptance criterion and
gallery claim, the bow-tie network energies (no formula route exists for
them), and, for every query the `queries` mix can draw, the CLI exit code
plus its verdict, fitted slope, exponent or capacity where no closed form
or second route can check it.  Then it runs every query through the same
check the benchmark uses and fails if any query errors or disagrees.
"""

from __future__ import annotations

import argparse
import json
import sys

from anncap import acceptance, gallery, network
from workloads import (
    BOWTIE_ALPHA,
    BOWTIE_DELTA,
    BOWTIE_INV_H,
    BOWTIE_P,
    EXPECTED_PATH,
    QueryChecker,
    _fmt,
    _solve_case,
    load_expected,
    query_universe,
    run_query,
)


def record():
    verdicts = {"criteria": {}, "gallery": {}}
    for i, (_, fn) in enumerate(acceptance.CRITERIA, start=1):
        ok, _ = fn()
        verdicts["criteria"][str(i)] = "PASS" if ok else "FAIL"
    for entry in gallery.default_gallery():
        verdicts["gallery"][entry.name] = {v.claim: v.status
                                           for v in gallery.verify_expectations(entry)}
    bowtie = {}
    for inv_h in BOWTIE_INV_H:
        for p in BOWTIE_P:
            res = _solve_case(lambda: network.build_bowtie_grid(BOWTIE_ALPHA, 1.0 / inv_h),
                              1.0 - BOWTIE_DELTA, 1.0, p)
            bowtie[f"h{inv_h}.p{_fmt(p)}"] = res.energy
    queries = {}
    for q in query_universe():
        code, out, err = run_query(q)
        rec = {"exit": code}
        if code in (0, 1):
            if q.command == "cap" and q.kind == "bowtie":
                rec["value"] = float(json.loads(out)["value"])
            elif q.command == "sweep":
                verdict = json.loads(err.strip().splitlines()[-1])
                rec.update(verdict=verdict["verdict"], slope=float(verdict["slope"]))
            elif q.command == "ad":
                rec["eta_hat"] = float(json.loads(out)["eta_hat"])
        queries[q.key] = rec
    expected = {"verdicts": verdicts, "network": {"bowtie": bowtie}, "queries": queries}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check():
    """Every query the mix can draw must exit as a success and pass its check."""
    expected = load_expected()
    checker = QueryChecker(expected)
    problems = []
    for status in expected["verdicts"]["criteria"].values():
        if status != "PASS":
            problems.append(f"criterion status {status}")
    for q in query_universe():
        out = run_query(q)
        allowed = (0, 1) if q.command == "sweep" else (0,)
        if out[0] not in allowed:
            problems.append(f"{q.key}: exit {out[0]}: {out[2].strip()[-200:]}")
            continue
        try:
            checker(q, out)
        except Exception as exc:
            problems.append(f"{q.key}: {type(exc).__name__}: {exc}")
    for line in problems:
        print(line)
    print(f"{len(query_universe())} queries checked, {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check-only", action="store_true")
    args = parser.parse_args(argv)
    if not args.check_only:
        record()
    return check()


if __name__ == "__main__":
    sys.exit(main())
