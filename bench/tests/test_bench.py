"""Tests of the benchmark itself, on tiny inputs (--smoke).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import metrics  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from anncap.gallery import default_gallery  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, trace, cwd=ROOT, seed=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=[(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)],
                ids=lambda p: f"{p[0]}-trace{p[1]}")
def smoke(request):
    workload, trace = request.param
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads((BENCH / "results" / f"{workload}-seed1-trace{trace}.json").read_text())
    return workload, trace, json.loads(proc.stdout.strip().splitlines()[-1]), report


def test_smoke_result_line(smoke):
    workload, trace, result, _ = smoke
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"} and isinstance(value["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_stamp(smoke):
    workload, _, _, report = smoke
    stamp = report["stamp"]
    assert stamp["workload"] == workload and stamp["seed"] == 1
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "networkx", "src_sha256"):
        assert stamp[key]
    assert "git_commit" in stamp


def test_traced_self_times_sum_to_op_wall(smoke):
    _, trace, _, report = smoke
    if not trace:
        pytest.skip("untraced run")
    sums = report["trace"]["op_self_sums"]
    traced = [r for r in report["records"] if r["pass"] == 1]
    assert len(sums) == len(traced) > 0
    for (_, self_sum, root_wall), record in zip(sums, traced):
        assert self_sum == pytest.approx(root_wall, rel=1e-9, abs=1e-9)
        # the root span sits inside the op's own timing, a few calls deep
        assert 0.0 <= record["s"] - root_wall <= 1e-3 + 0.01 * record["s"]


def test_kernels_inside_an_op_are_taken_out_and_set_its_speed():
    kernels = worker.Kernels(periodic=False)
    ref = worker.REF_S
    # kernels start at CPU times 0, 0.5 and 1.0; the op runs from the end of
    # the first to the start of the last, with the middle kernel inside it
    kernels.runs = [(0.0, ref, 0.01), (0.5, ref, 0.01), (1.0, ref, 0.01)]
    k_cpu, k_wall, norm, count = kernels.normalize(ref, 1.0)
    assert (k_cpu, k_wall, count) == (ref, 0.01, 1)
    assert norm == pytest.approx(1.0 - 2 * ref)
    # at half the kernel's reference speed the op counts half its CPU time
    kernels.runs = [(c, 2 * ref, w) for c, _, w in kernels.runs]
    assert kernels.normalize(2 * ref, 1.0)[2] == pytest.approx(0.5 * (1.0 - 4 * ref))
    # an op with no kernel inside takes the speed of the kernels around it
    assert kernels.normalize(0.6, 0.9) == (0.0, 0.0, pytest.approx(0.15), 0)


def test_same_seed_same_inputs():
    expected = workloads.load_expected()
    for name, make in workloads.WORKLOADS.items():
        a = [[op.name for op in ops] for ops in make(7, False, expected)]
        b = [[op.name for op in ops] for ops in make(7, False, expected)]
        assert a == b, name
    # another seed draws other queries, but the same mix of commands and spaces
    q7, q8 = ([op.name for op in workloads.queries_ops(seed, False, expected)[0]] for seed in (7, 8))
    assert q7 != q8
    assert sorted(n.split()[:3] for n in q7) == sorted(n.split()[:3] for n in q8)


def test_every_drawable_query_is_recorded():
    recorded = workloads.load_expected()["queries"]
    universe = workloads.query_universe()
    assert {q.key for q in universe} == set(recorded)
    for q in universe:
        assert recorded[q.key]["exit"] in ((0, 1) if q.command == "sweep" else (0,)), q.key


def test_gallery_names_match_metrics():
    assert tuple(e.name for e in default_gallery()) == metrics.GALLERY_ENTRIES


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][0] == "python3" and len(SPEC["command"]) <= 32
    assert all(not p.startswith("/") and ".." not in p for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_layer_map_covers_every_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]} | {"all"}
    for entry in layers.values():
        assert set(entry["moves"]) <= e2e and entry["workload"] in names


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("queries", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
