"""The names, keywords and outputs of the package that the benchmark reads.

``bench/`` drives the package from outside: its workloads call builders by
keyword and check outputs against ``bench/expected.json``, and its tracer
wraps functions and weight classes it finds by name.  This runs the smoke
ops of every workload once, and installs and removes the tracer, so that a
change that drops something the benchmark reads fails here.  It writes no
file.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads
    return workloads, tracer


def test_every_workload_runs_its_smoke_ops(bench):
    workloads, _ = bench
    expected = workloads.load_expected()
    for name, make_ops in workloads.WORKLOADS.items():
        for ops in make_ops(1, True, expected):
            for op in ops:
                op.check(op.run())


def test_the_tracer_finds_what_it_wraps(bench):
    _, tracer = bench
    trace = tracer.Tracer()
    try:
        assert trace.install() > 0
    finally:
        trace.uninstall()
