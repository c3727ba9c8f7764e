"""Acceptance gate: one test per headline criterion.

Each test prints the same pass/fail line as the CLI's verify-all command
and fails if the criterion does, carrying the evidence string along.  The
line must also match, byte for byte, the one recorded in
tests/golden/verify_all.txt, with the solve wall time masked.
"""

import pathlib
import re
import time

import pytest

from anncap.acceptance import CRITERIA

GOLDEN = (pathlib.Path(__file__).parent / "golden" / "verify_all.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    ("index", "name", "fn"),
    [(i, name, fn) for i, (name, fn) in enumerate(CRITERIA, start=1)],
    ids=[f"criterion-{i}-{name.replace(' ', '-')}" for i, (name, _) in enumerate(CRITERIA, start=1)],
)
def test_criterion(index, name, fn, capsys):
    ok, detail = fn()
    line = f"criterion {index} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line
    masked = re.sub(r"(slowest solve )[0-9.]+s", r"\1…s", line)
    assert masked == GOLDEN.splitlines()[index - 1]


def test_suite_is_complete_and_quick():
    assert len(CRITERIA) == 10
    # re-run the cheapest criterion to confirm the harness stays responsive
    t0 = time.perf_counter()
    ok, _ = CRITERIA[3][1]()  # exact measure identities
    assert ok
    assert time.perf_counter() - t0 < 60.0
