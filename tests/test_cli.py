import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import anncap
from anncap import cli, measure
from anncap.bounds import BoundId
from anncap.capacity import cap_auto
from anncap.cli import run
from anncap.gallery import default_gallery, make_bowtie, make_buckley, make_rn_unweighted
from anncap.spaces import AnnulusSpec
from anncap.weights import HalfLineKind


def test_cap_command(capsys):
    code = run(["cap", "--space", "rn", "--n", "2", "--p", "2", "--r", "1", "--R", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["value"]) == pytest.approx(2.0 * math.pi / math.log(2.0), rel=1e-12)
    assert out["method"] == "closed-form"


def test_cap_across_120_decades(capsys):
    # Buckley eta = 0.18 in R^4 at p = n: the radial integral of (w rho^3)^(-1/3)
    # is rho^-1 far below the pole at 1, so the radii may be 120 decades apart.
    # The closed form is 2 pi^2 (ln(1/r) - psi(1 + a) - gamma)^-3 with a = 0.82/3.
    code = run(["cap", "--space", "buckley", "--eta", "0.18", "--n", "4", "--p", "4",
                "--r", "5e-121", "--R", "1"])
    assert code == 0
    value = float(json.loads(capsys.readouterr().out)["value"])
    assert value == pytest.approx(9.325039573625951e-07, rel=1e-9)


def test_cap_usage_error(capsys):
    # buckley requires --eta
    code = run(["cap", "--space", "buckley", "--p", "2", "--r", "0.5", "--R", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_sweep_verdict_and_cap_slope(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code = run(["sweep", "--space", "rn", "--n", "2", "--p", "2", "--R", "1",
                "--thin", "9", "--out", str(out_csv)])
    assert code == 0
    err = capsys.readouterr().err
    verdict = json.loads(err.strip().splitlines()[-1])
    assert verdict["verdict"] == "PASS"
    # cap ~ (1 - r/R)^(1-p)
    assert float(verdict["cap_slope"]) == pytest.approx(-1.0, abs=0.05)
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "r,R,cap,bound,ratio"
    assert len(lines) == 10


@pytest.mark.parametrize("command", [["sweep", "--space", "rn", "--p", "2"], ["ad", "--space", "rn"]])
def test_a_thin_past_float_resolution_names_the_option(command):
    # 1 - 2^-54 rounds to 1, so at R = 1 the last --thin is 52 (j up to 53)
    assert _outcome(command + ["--R", "1", "--thin", "60"]) == (
        2, "", "error: --thin 60 is past float resolution at R = 1.0: R(1 - 2^-54) rounds to R; "
               "need --thin <= 52\n")
    assert _outcome(command + ["--R", "1", "--thin", "52"])[0] == 0


def test_sweep_gating_failure_is_usage_error(capsys):
    # nice-case bound refuses the Buckley space (ad_eta < 1) unless --no-gating
    code = run(["sweep", "--space", "buckley", "--eta", "0.5", "--n", "1",
                "--p", "2", "--R", "1", "--thin", "9"])
    assert code == 2
    assert "1-annular-decay" in capsys.readouterr().err


def test_sweep_past_the_bowtie_radius_cap_is_usage_error(capsys):
    code = run(["sweep", "--space", "bowtie", "--alpha", "-0.5", "--p", "3", "--R", "1",
                "--bound", "lower-p-base"])
    assert code == 2
    assert capsys.readouterr().err == "error: hypothesis violated: R <= diam X / 2 tau\n"


def test_sweep_no_gating_detects_counterexample(capsys):
    code = run(["sweep", "--space", "buckley", "--eta", "0.5", "--n", "1",
                "--p", "2", "--R", "1", "--thin", "9", "--no-gating"])
    assert code == 1
    verdict = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert verdict["verdict"] == "FAIL"


def test_sweep_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--space", "buckley", "--eta", "0.5", "--n", "1",
            "--p", "2", "--R", "4", "--thin", "9", "--bound", "upper-simple"]
    run(args + ["--out", str(a)])
    first_err = capsys.readouterr().err
    run(args + ["--out", str(b)])
    second_err = capsys.readouterr().err
    assert a.read_bytes() == b.read_bytes()
    assert first_err == second_err


def test_sweep_verdict_line_bytes(capsys):
    # the verdict line a sweep writes to stderr, pinned byte for byte
    code = run(["sweep", "--space", "buckley", "--eta", "0.5", "--p", "2", "--R", "1",
                "--no-gating"])
    assert code == 1
    assert capsys.readouterr().err == (
        '{"cap_slope": "-1.5000000000000007", "max_ratio": "48.000000000000014", '
        '"min_ratio": "1.5000000000000004", "passed": false, "rows": 11, '
        '"slope": "-0.50000000000000011", "verdict": "FAIL"}\n')


def test_ad_range_snake_jump(capsys):
    code = run(["ad", "--space", "snake", "--range", "1.5:64"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["jump_detected"] is True
    assert rep["condition_b"] is False


def test_ad_fit(capsys):
    code = run(["ad", "--space", "rn", "--n", "2", "--R", "1"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert float(rep["eta_hat"]) == pytest.approx(1.0, abs=0.03)


def test_ad_needs_range_or_R(capsys):
    assert run(["ad", "--space", "rn"]) == 2


@pytest.mark.parametrize("argv", [
    ["ad", "--space", "rn", "--range", "1:2:3"],
    ["ad", "--space", "rn", "--range", "a:b"],
    ["ad", "--space", "rn", "--range", "0.5:inf"],
    ["cap", "--space", "buckley", "--eta", "0.5", "--p", "2", "--r", "0.5", "--R", "inf"],
    ["cap", "--space", "rn", "--p", "nan", "--r", "0.5", "--R", "1"],
    ["sweep", "--space", "buckley", "--eta", "nan", "--p", "2", "--R", "1"],
    ["oracle", "--space", "rn", "--p", "2", "--r", "1", "--R", "2", "--rel-tol", "nan"],
    ["oracle", "--space", "rn", "--p", "2", "--r", "1", "--R", "2", "--rel-tol", "inf"],
    ["oracle", "--space", "rn", "--p", "2", "--r", "1", "--R", "2", "--rel-tol", "-0.01"],
    ["gallery", "verify", "--name", "rn-unweighted-2", "--budget", "1"],  # no such option
    ["cap", "--space", "rn", "--p", "2", "--r", "-inf", "--R", "1"],
    ["sweep", "--space", "rn", "--p", "2", "--R", "1e400"],
    ["ad", "--space", "bowtie", "--alpha", "nan", "--R", "1"],
    ["sweep", "--space", "rn", "--p", "2", "--R", "1", "--out", "no-such-dir/s.csv"],
    # only sweep reads --q
    ["cap", "--space", "rn", "--p", "2", "--r", "0.5", "--R", "1", "--q", "1"],
    ["ad", "--space", "rn", "--R", "1", "--q", "1"],
    ["oracle", "--space", "rn", "--p", "2", "--r", "1", "--R", "2", "--q", "1"],
])
def test_malformed_or_non_finite_numbers_are_usage_errors(capsys, argv):
    assert run(argv) == 2
    assert "error" in capsys.readouterr().err


def test_oracle_command(capsys):
    code = run(["oracle", "--space", "rn", "--n", "2", "--p", "2",
                "--r", "1", "--R", "2", "--cells", "500"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert float(rep["relative_error"]) <= 0.01
    # a zero tolerance is valid and passes only an exact match
    code = run(["oracle", "--space", "rn", "--n", "2", "--p", "2",
                "--r", "1", "--R", "2", "--cells", "500", "--rel-tol", "0"])
    rep = json.loads(capsys.readouterr().out)
    assert code == (0 if float(rep["relative_error"]) == 0.0 else 1)


@pytest.mark.parametrize("r", ["1e-3", "1e-6"])
def test_oracle_resolves_radii_decades_apart(capsys, r):
    # the uniform 2,000-cell chain was off by 0.103 at r = 1e-3 and 19.1 at 1e-6
    assert run(["oracle", "--space", "rn", "--n", "2", "--p", "1.5", "--r", r, "--R", "4"]) == 0
    assert float(json.loads(capsys.readouterr().out)["relative_error"]) <= 1e-4


@pytest.mark.parametrize("p, reason", [("1", "min-cut"), ("2", "linear-solve"),
                                       ("1.5", "gradient")])
def test_oracle_reports_the_network_solve(capsys, p, reason):
    argv = ["oracle", "--space", "buckley", "--eta", "0.5", "--p", p,
            "--r", "0.6", "--R", "1.4", "--cells", "500"]
    assert run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out) == ["cells", "formula", "iterations", "kkt_residual", "network",
                           "relative_error", "stop_reason"]
    net = anncap.build_radial_network(make_buckley(0.5).space, 0.6, 1.4, 500)
    rep = anncap.solve_p_energy(net, anncap.condenser_bc(net, 0.6, 1.4), float(p))
    assert (out["stop_reason"], out["iterations"]) == (reason, rep.iterations)
    assert float(out["kkt_residual"]) == rep.kkt_residual
    assert float(out["network"]) == rep.energy


def _cap_value(capsys, argv):
    assert run(["cap", *argv]) == 0
    return float(json.loads(capsys.readouterr().out)["value"])


@pytest.mark.parametrize("argv, space", [
    (["--space", "rn"], make_rn_unweighted(2).space),
    (["--space", "buckley", "--eta", "0.5"], make_buckley(0.5, 1).space),
    (["--space", "buckley", "--eta", "0.5", "--n", "2"], make_buckley(0.5, 2).space),
    (["--space", "bowtie", "--alpha", "0.5"], make_bowtie(0.5, 2).space),
    (["--space", "bowtie", "--alpha", "0.5", "--n", "3"], make_bowtie(0.5, 3).space),
])
def test_n_reaches_the_space_it_names(capsys, argv, space):
    # an omitted --n gives rn 2, buckley 1 and bow-tie 2; a given one is passed as is
    p, r, R = ("4", 0.875, 1.0) if "bowtie" in argv else ("2", 0.5, 1.0)
    value = _cap_value(capsys, argv + ["--p", p, "--r", repr(r), "--R", repr(R)])
    assert value == cap_auto(space, float(p), AnnulusSpec(r, R)).value


@pytest.mark.parametrize("alpha, dims", [("-2", []), ("-3.5", ["--n", "3"])])
def test_bowtie_alpha_at_most_minus_n_is_the_geometry_error(capsys, alpha, dims):
    # the cone's own check comes before the traits that read n + alpha
    argv = ["cap", "--space", "bowtie", "--alpha", alpha, *dims, "--p", "2", "--r", "0.5",
            "--R", "1"]
    assert run(argv) == 2
    assert "BowTie needs alpha > -n" in capsys.readouterr().err


def test_n_zero_is_a_usage_error(capsys):
    for space in (["rn"], ["buckley", "--eta", "0.5"], ["bowtie", "--alpha", "0.5"]):
        argv = ["cap", "--space", *space, "--n", "0", "--p", "2", "--r", "0.5", "--R", "1"]
        assert run(argv) == 2, space
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("space, r, R", [
    (["summed-buckley", "--eta", "0.5"], "0.5", "1"),
    (["snake"], "7.5", "8.5"),
    (["halfline", "--kind", "exp-decay"], "0.5", "1"),
])
def test_n_is_a_usage_error_where_the_dimension_is_fixed(capsys, space, r, R):
    argv = ["cap", "--space", *space, "--p", "2", "--r", r, "--R", R]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + ["--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--n" in captured.err


@pytest.mark.parametrize("argv, code", [
    (["ad", "--space", "bowtie", "--alpha", "0.5", "--n", "400", "--R", "1"], 2),
    (["ad", "--space", "bowtie", "--alpha", "-290", "--n", "300", "--R", "1"], 3),
    (["ad", "--space", "bowtie", "--alpha", "1500", "--R", "1"], 3),
    (["cap", "--space", "bowtie", "--alpha", "0.5", "--p", "1e300", "--r", "0.75", "--R", "1"], 3),
    (["cap", "--space", "bowtie", "--alpha", "-1.9", "--p", "1.0000001", "--r", "0.75",
      "--R", "1"], 3),
    # the p = 1 inf-cut of a radial space, whose least cut cost overflows
    (["cap", "--space", "rn", "--n", "3", "--p", "1", "--r", "7.185790757925412e+240",
      "--R", "5.945303886175348e+241"], 3),
    (["cap", "--space", "buckley", "--eta", "0.9", "--n", "4", "--p", "1", "--r", "1e246",
      "--R", "2e246"], 3),
    # one whose least cut cost e^-800 underflows to 0, as the same annulus does at p = 2
    (["cap", "--space", "halfline", "--kind", "exp-decay", "--p", "1", "--r", "1", "--R", "800"],
     3),
])
def test_bowtie_past_the_float_range_is_a_typed_error(capsys, argv, code):
    assert run(argv) == code
    assert "error" in capsys.readouterr().err


def test_oracle_refuses_a_capacity_of_0():
    # p = 2.5 <= n + alpha on the alpha = 0.5 bow-tie: the sector integral
    # diverges, and a relative error from 0 has no meaning
    assert _outcome(["oracle", "--space", "bowtie", "--alpha", "0.5", "--p", "2.5", "--r", "0.875",
                     "--R", "1"]) == (
        3, "", "error: capacity degenerates to 0 at p = 2.5; no relative error\n")


# radii that AnnulusSpec accepts, far apart or near the ends of the float
# range: each ends in a typed error on one stderr line, with no numpy warning,
# where a traceback, a 0, a nan or a wrong exit code came out before
_PAST_THE_FLOAT_RANGE = [
    # the capacity is finite (test_closed_form_capacity_past_the_range_of_r_a_is_a_value),
    # the chain's cell masses are not
    ("oracle --space rn --n 2 --p 1.001 --r 1e100 --R 1e300",
     "error: cell masses on [1e+100, 1e+300] leave the float range"),
    # L^(1-n) overflows at p = n, about 1e453
    ("cap --space rn --n 30 --p 30 --r 1 --R 1.0000000000000002",
     "error: capacity of (r=1.0, R=1.0000000000000002) at p = 30.0 leaves the float range"),
    # the closed form's capacity, about 1e-600, underflows to 0
    ("cap --space rn --n 2 --p 4 --r 1 --R 1e300",
     "error: capacity of (r=1.0, R=1e+300) at p = 4.0 leaves the float range"),
    # the radial integral's capacity underflows to 0
    ("cap --space buckley --eta 0.5 --p 3 --r 1e-10 --R 1e200",
     "error: capacity of (r=1e-10, R=1e+200) at p = 3.0 leaves the float range"),
    # mu(B_rho) = 1 - e^-rho is 1 in floats past rho = 37
    ("ad --space halfline --kind exp-decay --range 0.5:1e300",
     "error: mu(B_rho) is constant in floats on half the level-0 grid of (0.5, 1e+300) or more; "
     "the ratio rho f'/f has no scale"),
    ("ad --space rn --n 2 --range 1e-320:1e-300",
     "error: mu(B_rho) underflows to 0 on (1e-320, 1e-300); no ratio rho f'/f"),
    ("ad --space rn --n 2 --range 1e-300:1e300", "error: non-finite integrand sample in quadrature"),
    # every panel's mass is finite, their sum is not
    ("ad --space rn --n 2 --range 1e154:1.1e154",
     "error: mu(B_rho) leaves the float range on [1e+154, 1.1e+154]"),
    ("ad --space halfline --kind min-one-over-x --range 1e-320:1e-300",
     "numeric error: tanh-sinh quadrature reached error 4.941e-324 > requested 1.000e-10 "
     "relative to 3.332e-318"),
    ("oracle --space rn --n 2 --p 3 --r 1e200 --R 1e300",
     "error: cell masses on [1e+200, 1e+300] leave the float range"),
    # a graded chain's first cells underflow; a uniform one gave a wrong FAIL
    ("oracle --space rn --n 2 --p 1.5 --r 1e-310 --R 4",
     "error: cell masses on [1e-310, 4.0] leave the float range"),
    # l^p overflows, so the chain's conductances are 0
    ("oracle --space buckley --eta 0.5 --p 2 --r 1e-10 --R 1e200 --cells 64",
     "error: an edge conductance m / l^p underflows to 0 at p = 2.0"),
]


@pytest.mark.parametrize("argv, line", _PAST_THE_FLOAT_RANGE,
                         ids=[argv for argv, _ in _PAST_THE_FLOAT_RANGE])
def test_radii_at_the_float_range_end_in_one_error_line(argv, line):
    assert _outcome(argv.split()) == (3, "", line + "\n")


def test_closed_form_capacity_past_the_range_of_r_a_is_a_value():
    # r^a underflows to 0 at a = -999, or overflows: the closed form takes logs
    for argv, value in [("--p 1.001 --r 1e100 --R 1e300", "5.0255018112204405e+100"),
                        ("--p 1.335 --r 2.5e-303 --R 1.33", "4.6512021475036633e-201"),
                        ("--p 1.5 --r 1e-310 --R 4", "6.283185307179709e-155")]:
        code, out, err = _outcome(f"cap --space rn --n 2 {argv}".split())
        assert (code, json.loads(out)["value"], err) == (0, value, ""), argv


def test_a_range_too_narrow_for_distinct_radii_is_a_usage_error():
    # rho[i + 2] = rho[i] made the difference quotients 0 / 0
    assert _outcome(["ad", "--space", "rn", "--range", "1:1.000000000000001"]) == (
        2, "", "error: range (1.0, 1.000000000000001) is too narrow for 513 distinct radii\n")


@pytest.mark.parametrize("argv, value", [
    # R / r = 1e600 overflows; the values are 40-digit mpmath
    ("cap --space rn --n 2 --p 2 --r 1e-300 --R 1e300", 0.0045479211794728045),
    ("cap --space rn --n 3 --p 3 --r 1e-300 --R 1e300", 6.5837902412532253e-06),
    ("cap --space rn --n 2 --p 1.5 --r 1e-300 --R 1e300", 6.2831853071795865e-150),
])
def test_closed_form_with_radii_far_apart(argv, value):
    code, out, err = _outcome(argv.split())
    assert (code, err) == (0, "")
    assert float(json.loads(out)["value"]) == pytest.approx(value, rel=1e-12)


def test_ad_fit_of_the_3d_bowtie(capsys):
    code = run(["ad", "--space", "bowtie", "--alpha", "0.5", "--n", "3", "--R", "1",
                "--thin", "9"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert float(rep["eta_hat"]) == pytest.approx(3.5, abs=0.1)


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(anncap.__file__).parents[1])}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "anncap.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = cli("oracle", "--space", "rn", "--n", "2", "--p", "2", "--r", "1", "--R", "2",
               "--cells", "500")
    assert done.returncode == 0, done.stderr
    assert float(json.loads(done.stdout)["relative_error"]) <= 0.01
    done = cli("cap", "--space", "rn", "--p", "2", "--r", "1", "--R", "2", "--bogus")
    assert done.returncode == 2
    assert done.stdout == "" and "--bogus" in done.stderr


def test_import_loads_neither_scipy_stats_nor_networkx():
    # scipy.stats costs about a second of import; no solve uses networkx, not
    # even a refused p = 1 grid; no route integrates with scipy.integrate
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import anncap, anncap.cli
        assert "scipy.stats" not in sys.modules
        assert "networkx" not in sys.modules
        assert "scipy.integrate" not in sys.modules
        buckley = anncap.make_buckley(0.5).space
        assert anncap.cap_auto(buckley, 2.0, anncap.AnnulusSpec(0.5, 1.5)).value > 0
        assert "scipy.integrate" not in sys.modules
        net = anncap.build_radial_network(anncap.make_rn_unweighted(1).space, 1.0, 2.0, 16)
        rep = anncap.solve_p_energy(net, anncap.condenser_bc(net, 1.0, 2.0), 1.0)
        assert rep.converged and np.isfinite(rep.energy), rep
        assert "networkx" not in sys.modules
        idx = np.arange(12).reshape(3, 4)  # a 3 x 4 grid patch between its end columns
        net = anncap.network.DiscreteNetwork(
            12, np.r_[idx[:, :-1].ravel(), idx[:-1, :].ravel()],
            np.r_[idx[:, 1:].ravel(), idx[1:, :].ravel()], np.ones(17), np.ones(17))
        bc = anncap.network.BoundaryCondition(idx[:, 0], idx[:, -1])
        try:
            anncap.solve_p_energy(net, bc, 1.0)
        except anncap.DomainError as exc:
            assert "6 free vertices" in str(exc), exc
        else:
            raise AssertionError("p = 1 on a grid patch was not refused")
        assert "networkx" not in sys.modules
        assert "scipy.stats" not in sys.modules
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(anncap.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


# each case runs its calls in a fresh process after `import anncap, anncap.cli`,
# then names the scipy submodules that must be loaded and those that must not
# ("" is scipy itself)
SCIPY_LOAD_CASES = {
    "numpy-routes": ("""
        buckley = anncap.make_buckley(0.5).space
        assert anncap.cap_auto(make_rn(3).space, 2.0, AnnulusSpec(0.5, 1.5)).value > 0
        assert anncap.cap_auto(buckley, 2.0, AnnulusSpec(0.5, 1.5)).value > 0
        assert anncap.mu_ball(buckley, 1.5) > 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert anncap.cli.run(["cap", "--space", "buckley", "--eta", "0.5", "--p", "3",
                                   "--r", "0.5", "--R", "1.5"]) == 0
    """, set(), {""}),
    "bowtie-measure": ("""
        assert anncap.mu_annulus(anncap.make_bowtie(0.5).space, AnnulusSpec(0.5, 1.0)) > 0
    """, {"special"}, {"optimize", "linalg", "sparse"}),
    "p2-network-solve": ("""
        net = anncap.build_radial_network(make_rn(2).space, 1.0, 2.0, 16)
        assert anncap.solve_p_energy(net, anncap.condenser_bc(net, 1.0, 2.0), 2.0).converged
    """, set(), {""}),
    "p2-bowtie-solve": ("""
        net = anncap.build_bowtie_grid(0.5, 1.0 / 16.0)
        assert anncap.solve_p_energy(net, anncap.condenser_bc(net, 0.875, 1.0), 2.0).converged
    """, {"sparse", "linalg"}, {"optimize"}),
    "p1-inf-cut": ("""
        assert anncap.cap_radial_p1(anncap.make_buckley(0.5).space, AnnulusSpec(0.5, 1.5)).value > 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert anncap.cli.run(["cap", "--space", "buckley", "--eta", "0.5", "--p", "1",
                                   "--r", "0.5", "--R", "1.5"]) == 0
    """, set(), {""}),
}


@pytest.mark.parametrize("case", SCIPY_LOAD_CASES)
def test_import_loads_numpy_alone_and_each_call_its_own_scipy_parts(case):
    # a short CLI call is a fresh process, which pays for the scipy submodules
    # its route needs and no others
    calls, loaded, absent = SCIPY_LOAD_CASES[case]
    code = textwrap.dedent("""
        import contextlib, io, sys
        import anncap, anncap.cli
        from anncap import AnnulusSpec, make_rn_unweighted as make_rn

        def scipy_parts():  # "" for scipy itself, "special" for scipy.special, ...
            return {m[6:] for m in sys.modules if m.partition(".")[0] == "scipy"}

        assert not scipy_parts(), sorted(scipy_parts())
    """) + textwrap.dedent(calls) + textwrap.dedent(f"""
        parts = scipy_parts()
        assert {loaded!r} <= parts and not {absent!r} & parts, sorted(parts)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(anncap.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_halfline_cut_past_square_underflow_is_a_numeric_error(capsys):
    # rho * rho underflows below 1.5e-154, where exp(-1/rho) is 0 already:
    # the weight is 0 there, not 0/0, and a cut of cost 0 is an underflow,
    # since every cut of a radial or half-line space costs more than 0
    argv = ["cap", "--space", "halfline", "--kind", "exp-inv-over-x-sq", "--p", "1",
            "--r", "1e-170", "--R", "1e-160"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "leaves the float range" in captured.err


def test_bowtie_measure_past_the_float_range_is_refused_without_a_warning(capsys):
    # 0 * inf in the pinch terms is refused as a non-finite mass, not warned of
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["ad", "--space", "bowtie", "--alpha", "1200", "--R", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bow-tie measure of (r=0.0, R=3.0) at n = 2, "
                            "alpha = 1200.0 leaves the float range\n")


def test_plain_writes_each_float_as_its_17_digit_string():
    record = {"x": 0.1, "n": 3, "ok": True, "none": None, "method": BoundId.UPPER_ETA,
              "pair": (1.0, math.inf), "nested": [{"y": -math.inf, "z": math.nan}]}
    assert cli._plain(record) == {
        "x": "0.10000000000000001", "n": 3, "ok": True, "none": None, "method": "upper-eta",
        "pair": ["1", "inf"], "nested": [{"y": "-inf", "z": "nan"}]}


def test_only_the_cli_writes_json_or_csv():
    # the artifact format, and every line printed (verify-all's too), live in
    # cli.py alone; every other module returns records. No module imports
    # networkx, which the package does not depend on
    for path in Path(anncap.__file__).parent.glob("*.py"):
        imported, prints = set(), False
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
            elif isinstance(node, ast.Name) and node.id == "print" or (
                    isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                prints = True
        assert "networkx" not in imported, path.name
        if path.name != "cli.py":
            assert not imported & {"json", "csv"} and not prints, path.name


def _mask_wall_times(text):
    return re.sub(r"(slowest solve |total wall time )[0-9.]+s", r"\1…s", text)


def test_verify_all_writes_the_golden_lines():
    # all 11 lines, with both wall times masked
    code, out, err = _outcome(["verify-all"])
    out = _mask_wall_times(out)
    golden = (Path(__file__).parent / "golden" / "verify_all.txt").read_text(encoding="utf-8")
    assert (code, out, err) == (0, golden, "")


def test_every_imported_name_is_read():
    # a deletion tends to leave its import behind; __init__.py re-exports
    for path in Path(anncap.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert imported <= read, (path.name, sorted(imported - read))


def test_gallery_list(capsys):
    assert run(["gallery", "list"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["spaces"]) == 9


def test_gallery_verify_one_entry(capsys):
    code = run(["gallery", "verify", "--name", "rn-unweighted-2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rn-unweighted-2 / nice-case-envelope: PASS" in out


def test_gallery_unknown_name(capsys):
    assert run(["gallery", "verify", "--name", "nope"]) == 2
    assert run(["gallery", "verify", "--name", ""]) == 2
    assert capsys.readouterr().out == ""


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _alone(argv):
    """argv's outcome on a freshly built parser."""
    cli._shared_parser.cache_clear()
    return _outcome(argv)


# one call for each artifact the CLI writes; tests/golden/cli_artifacts.txt
# holds the exit code, stdout and stderr of each, byte for byte
ARTIFACT_CALLS = [
    ["cap", "--space", "buckley", "--eta", "0.5", "--p", "2", "--r", "0.5", "--R", "1.5"],
    ["cap", "--space", "buckley", "--eta", "0.5", "--p", "1", "--r", "0.5", "--R", "1.5"],
    ["sweep", "--space", "buckley", "--eta", "0.5", "--p", "2", "--R", "1", "--no-gating"],
    ["ad", "--space", "rn", "--n", "2", "--R", "1"],
    ["ad", "--space", "snake", "--range", "1.5:64"],
    ["ad", "--space", "halfline", "--kind", "exp-decay", "--range", "0.1:30"],
    ["oracle", "--space", "buckley", "--eta", "0.5", "--p", "1.5", "--r", "0.6", "--R", "1.4",
     "--cells", "500"],
    ["sweep", "--space", "summed-buckley", "--eta", "0.5", "--p", "1.5", "--R", "1", "--no-gating"],
    ["sweep", "--space", "halfline", "--kind", "min-one-over-x", "--p", "3", "--R", "64",
     "--bound", "upper-simple"],
    ["ad", "--space", "buckley", "--eta", "0.5", "--R", "1"],
    # two sweeps that stop at a numeric error naming its annulus
    ["sweep", "--space", "summed-buckley", "--eta", "0.3", "--p", "1.001",
     "--R", "5.720134537398934e-125", "--no-gating"],
    ["sweep", "--space", "halfline", "--kind", "exp-inv-over-x-sq", "--p", "1.5", "--R", "0.0025",
     "--bound", "upper-simple"],
    # bow-tie fits in 2-D and 3-D, and one whose thinnest annulus misses the
    # quadrature gate; the 1-AD probe of a Buckley pole and of the snake past
    # several jumps
    ["ad", "--space", "bowtie", "--alpha", "0.5", "--R", "1", "--thin", "9"],
    ["ad", "--space", "bowtie", "--alpha", "-0.5", "--n", "3", "--R", "2"],
    ["ad", "--space", "bowtie", "--alpha", "0.5", "--R", "0.02", "--thin", "30"],
    ["ad", "--space", "buckley", "--eta", "0.5", "--range", "0.25:4"],
    ["ad", "--space", "snake", "--range", "1.5:300"],
]


def _artifact_record(argv):
    code, out, err = _outcome(argv)
    return f"$ anncap {' '.join(argv)}\n[exit {code}]\n[stdout]\n{out}[stderr]\n{err}"


def test_cli_artifacts_match_the_golden_bytes():
    golden = Path(__file__).parent / "golden" / "cli_artifacts.txt"
    text = "".join(_artifact_record(argv) for argv in ARTIFACT_CALLS)
    assert text.encode() == golden.read_bytes()


def _query_pin(argv):
    """'<sha256 of repr((exit code, stdout, stderr))> <argv>', wall times masked."""
    code, out, err = _outcome(argv)
    digest = hashlib.sha256(repr((code, _mask_wall_times(out), err)).encode()).hexdigest()
    return f"{digest} {' '.join(argv)}"


def _query_pins(monkeypatch):
    """The pin of every query the benchmark can draw (bench/workloads.py),
    then of gallery verify, gallery list and verify-all."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    argvs = [q.argv for q in workloads.query_universe()]
    argvs += [["gallery", "verify"], ["gallery", "list"], ["verify-all"]]
    return [_query_pin(argv) for argv in argvs]


def test_every_query_output_matches_its_pin(monkeypatch):
    # tests/golden/query_pins.txt holds one _query_pin line per query; like
    # the other golden files its digests hold for one BLAS and libm
    golden = (Path(__file__).parent / "golden" / "query_pins.txt").read_text().splitlines()
    pins = _query_pins(monkeypatch)
    want = {line.partition(" ")[2]: line for line in golden}
    got = {line.partition(" ")[2]: line for line in pins}
    moved = [argv for argv in want.keys() | got.keys() if want.get(argv) != got.get(argv)]
    assert not moved, "outputs moved or queries changed:\n" + "\n".join(sorted(moved))
    assert pins == golden


@pytest.mark.parametrize("bound, groups", [("upper-eta", [1, 11]), ("upper-simple", [11, 11])])
def test_a_sweep_integrates_its_capacities_in_one_quadrature_call(monkeypatch, bound, groups):
    # the bound's measures are one call, mu(B_1) once (upper-eta) or the 11
    # annuli (upper-simple); then the capacities of the 11 annuli are one
    calls = []
    original = measure._tanh_sinh

    def counted(f, lo, hi, sizes, columns=()):
        calls.append(len(sizes))
        return original(f, lo, hi, sizes, columns)

    monkeypatch.setattr(measure, "_tanh_sinh", counted)
    code, _, _ = _outcome(["sweep", "--space", "buckley", "--eta", "0.5", "--p", "2.5", "--R", "1",
                           "--bound", bound])
    assert code in (0, 1) and calls == groups


# the capacity of the thin annuli of R = 1 at p = 200 overflows from the
# fifth, r = 1 - 2^-6, on; without reverse doubling the nice-case bound
# refuses the first annulus before that
@pytest.mark.parametrize("bound, code, err", [
    ("upper-simple", 3,
     "error: capacity of (r=0.984375, R=1.0) at p = 200.0 leaves the float range\n"),
    ("two-sided-nice", 2, "error: hypothesis violated: reverse-doubling at x0\n"),
])
def test_a_sweep_raises_the_first_error_in_annulus_order(bound, code, err):
    argv = ["sweep", "--space", "halfline", "--kind", "min-one-over-x", "--p", "200", "--R", "1",
            "--bound", bound]
    assert _outcome(argv) == (code, "", err)


def test_reused_parser_never_leaks_state():
    valid = ["cap", "--space", "rn", "--p", "2", "--r", "1", "--R", "2"]
    calls = [["cap", "--space", "rn", "--p", "nan", "--r", "1", "--R", "2"], valid,
             ["--help"], valid,
             ["cap", "--help"], valid]
    expected = [_alone(argv) for argv in calls]
    assert expected[0][0] == 2 and expected[2][0] == 0 and "usage" in expected[2][1]
    cli._shared_parser.cache_clear()
    for argv, want in zip(calls, expected):
        assert _outcome(argv) == want, argv


# anncap has no --config option: bare, abbreviated or given a file, it is
# a usage error from the anncap parser itself
@pytest.mark.parametrize("argv", [["--config"], ["--conf"],
                                  ["--config", "x.json", "gallery", "list"]])
def test_config_without_a_value_prints_the_anncap_usage(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: anncap")
    assert "{cap,sweep,ad,oracle,gallery,verify-all}" in err


_SPACE_OPTIONS = ["--alpha", "--eta", "--help", "--kind", "--n", "--space"]
_OPTION_SURFACE = {  # command -> the long options its --help lists
    (): ["--help"],
    ("cap",): sorted([*_SPACE_OPTIONS, "--R", "--p", "--r"]),
    ("sweep",): sorted([*_SPACE_OPTIONS, "--R", "--bound", "--no-gating", "--out", "--p",
                        "--q", "--thin"]),
    ("ad",): sorted([*_SPACE_OPTIONS, "--R", "--range", "--thin"]),
    ("oracle",): sorted([*_SPACE_OPTIONS, "--R", "--cells", "--p", "--r", "--rel-tol"]),
    ("gallery",): ["--help", "--name"],
    ("verify-all",): ["--help"],
}


@pytest.mark.parametrize("command", _OPTION_SURFACE, ids=lambda c: " ".join(c) or "anncap")
def test_each_command_lists_exactly_its_options(monkeypatch, command):
    # an option added or removed shows here as a one-line diff
    monkeypatch.setenv("COLUMNS", "100")
    code, out, _ = _alone([*command, "--help"])
    assert code == 0
    assert sorted(set(re.findall(r"(?<![\w-])--[\w-]+", out))) == _OPTION_SURFACE[command]


def test_sweep_out_file_equals_stdout(capsys, tmp_path):
    argv = ["sweep", "--space", "buckley", "--eta", "0.5", "--p", "2", "--R", "1",
            "--no-gating"]
    assert run(argv) == 1
    stdout = capsys.readouterr().out
    out_csv = tmp_path / "s.csv"
    assert run(argv + ["--out", str(out_csv)]) == 1
    assert capsys.readouterr().out == ""
    assert out_csv.read_bytes() == stdout.encode()


def test_sweep_degenerate_capacity_is_numeric_error(capsys, tmp_path):
    # at p <= n + alpha every bow-tie capacity is 0, so there is no decay slope
    out_csv = tmp_path / "s.csv"
    code = run(["sweep", "--space", "bowtie", "--alpha", "0.5", "--p", "2", "--R", "1",
                "--no-gating", "--out", str(out_csv)])
    assert code == 3
    assert "capacity degenerates to 0" in capsys.readouterr().err
    assert not out_csv.exists()
    # the sweep's error comes before --out is opened; past it, an --out
    # that cannot be opened is a usage error naming the path
    bad_out = str(tmp_path / "no-such-dir" / "s.csv")
    code = run(["sweep", "--space", "bowtie", "--alpha", "0.5", "--p", "2", "--R", "1",
                "--no-gating", "--out", bad_out])
    assert code == 3
    assert "capacity degenerates to 0" in capsys.readouterr().err
    assert run(["sweep", "--space", "rn", "--p", "2", "--R", "1", "--out", bad_out]) == 2
    assert bad_out in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing: any argv built from the real subcommands and flags ends in an exit
# code, never in an exception escaping run

_JUNK = st.sampled_from(["", " ", "abc", "nan", "-nan", "inf", "-inf", "1e400", "-1", "0", "-0",
                         "1:2", "0x10", "1.5", "400", str(10**400)])


def _number(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), st.integers(-2, 4).map(str))


def _count(lo, hi):
    return st.integers(lo, hi).map(str)


def _choice(values):
    return st.sampled_from(list(values))


_SPACE_FLAGS = {
    "--space": _choice(["rn", "buckley", "summed-buckley", "bowtie", "snake", "halfline"]),
    "--n": _count(0, 4),
    "--eta": _number(-0.2, 1.2),
    "--alpha": _number(-2.5, 1.5),
    "--kind": _choice(k.value for k in HalfLineKind),
}
_RADII = {"--p": _number(0.5, 4.0), "--r": _number(-0.5, 3.0), "--R": _number(0.0, 4.0)}
_FLAGS = {  # flag -> strategy for its value, None for a flag that takes none
    "cap": {**_SPACE_FLAGS, **_RADII},
    "sweep": {**_SPACE_FLAGS, "--p": _RADII["--p"], "--R": _RADII["--R"],
              "--q": _number(0.5, 3.0), "--thin": _count(-2, 12), "--no-gating": None,
              "--bound": _choice(b.value for b in BoundId)},
    "ad": {**_SPACE_FLAGS, "--R": _RADII["--R"], "--thin": _count(-2, 12),
           "--range": st.one_of(
               st.tuples(_number(-0.5, 4.0), _number(0.0, 8.0)).map(":".join),
               _choice(["1:2:3", "a:b", ":", "1", "0.5:inf"]))},
    "oracle": {**_SPACE_FLAGS, **_RADII, "--cells": _count(-5, 200),
               "--rel-tol": _number(-1.0, 1.0)},
    # a verify of the whole gallery takes seconds, so --name is always given
    "gallery": {"--name": _choice(e.name for e in default_gallery())},
}
@st.composite
def _argv(draw):
    # half the draws are clean, so they get past argparse into the engines
    junk_odds = draw(st.sampled_from([0, 0, 10, 4]))

    def value(strategy):
        return draw(_JUNK if junk_odds and draw(st.integers(1, junk_odds)) == 1 else strategy)

    argv = []
    # verify-all is left out: the suite takes seconds
    command = draw(_choice(sorted(_FLAGS)))
    argv.append(value(_choice([command])))
    if command == "gallery":
        argv.append(value(_choice(["list", "verify"])))
    flags = _FLAGS[command]
    required = {"--space"} | ({"--p", "--r", "--R"} if command != "ad" else set())
    for flag in draw(st.permutations(sorted(flags))):
        omit = flag != "--name" and (junk_odds or flag not in required)
        if omit and draw(st.integers(0, 7)) == 0:
            continue
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(value(flags[flag]))
    # the bow-tie 1-AD probe takes about a second: a quadrature at every grid point
    assume(not (command == "ad" and "bowtie" in argv and "--range" in argv))
    return argv


@settings(deadline=None, max_examples=120, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_argv_ends_in_an_exit_code(data):
    # two argvs back to back: the second, on the parser the first used, ends
    # as it does alone on a fresh one
    first, second = data.draw(_argv()), data.draw(_argv())
    alone = _alone(second)
    code = _alone(first)[0]
    after = _outcome(second)
    assert code in (0, 1, 2, 3), first
    assert alone[0] in (0, 1, 2, 3), second
    assert after == alone, (first, second)
