import json
import math

import pytest

from anncap.cli import run


def test_cap_command(capsys):
    code = run(["cap", "--space", "rn", "--n", "2", "--p", "2", "--r", "1", "--R", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["value"]) == pytest.approx(2.0 * math.pi / math.log(2.0), rel=1e-12)
    assert out["method"] == "closed-form"


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


def test_sweep_gating_failure_is_usage_error(capsys):
    # nice-case bound refuses the Buckley space (ad_eta < 1) unless --no-gating
    code = run(["sweep", "--space", "buckley", "--eta", "0.5", "--n", "1",
                "--p", "2", "--R", "1", "--thin", "9"])
    assert code == 2
    assert "1-annular-decay" in capsys.readouterr().err


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


def test_oracle_command(capsys):
    code = run(["oracle", "--space", "rn", "--n", "2", "--p", "2",
                "--r", "1", "--R", "2", "--cells", "500"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert float(rep["relative_error"]) <= 0.01


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


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    code = run(["--config", str(cfg), "gallery", "list"])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_config_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thin": 8}))
    out_csv = tmp_path / "s.csv"
    code = run(["--config", str(cfg), "sweep", "--space", "rn", "--n", "2",
                "--p", "2", "--R", "1", "--out", str(out_csv)])
    assert code == 0
    capsys.readouterr()
    assert len(out_csv.read_text().splitlines()) == 9  # header + 8 rows


def test_sweep_degenerate_capacity_is_numeric_error(capsys, tmp_path):
    # at p <= n + alpha every bow-tie capacity is 0, so there is no decay slope
    out_csv = tmp_path / "s.csv"
    code = run(["sweep", "--space", "bowtie", "--alpha", "0.5", "--p", "2", "--R", "1",
                "--no-gating", "--out", str(out_csv)])
    assert code == 3
    assert "capacity degenerates to 0" in capsys.readouterr().err
    assert not out_csv.exists()
