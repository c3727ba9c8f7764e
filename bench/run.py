"""Benchmark launcher for anncap.

    python3 bench/run.py --workload {verdicts,network,queries} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a checkout.  Each run starts fresh worker processes
(single-threaded BLAS, no bytecode writes): SETUP_PROBES that only import
anncap and build the inputs, then the measuring worker.  With --trace 0 the
worker runs the workload's passes closed-loop, one op at a time, until the
next pass would end past S seconds (always at least one pass), and the last
stdout line carries the end-to-end metrics.  Times in them are the
worker's CPU times normalized by a reference kernel run around and inside ops
(see worker.py): on a shared virtual machine the wall clock also counts
the time other tenants hold the CPU, and the CPU's speed drifts.  Wall
and raw CPU times stay in the run record.  With --trace 1 it runs one
pass untraced and the same pass traced, and the last line carries the
per-layer metrics.  A JSON record of the run (machine stamp, per-op
latencies, failures, network cases, trace totals) goes to bench/results/.

Exits 2 without a result when the checkout holds no anncap sources, and 1
when the worker fails; a run whose ops fail still exits 0 and reports
"correct": false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("verdicts", "network", "queries")
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(BENCH))
import metrics  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, extra, deadline):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else []) + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "anncap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "networkx": version("networkx"),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "anncap" / "__init__.py").is_file():
        print(f"no anncap sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = 0 if args.smoke else SETUP_PROBES
    setups = [run_worker(args, ["--setup-only"], deadline)["setup"] for _ in range(probes)]
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = ["--spans-out", str(RESULTS / f"{name}.spans.jsonl")] if args.trace else []
    result = run_worker(args, spans, deadline)
    setups.append(result["setup"])

    if args.trace:
        values = metrics.per_layer(result, setups)
    else:
        values = metrics.end_to_end(result, setups)
    records = result["records"]
    failures = [r for r in records if r["error"] is not None]
    report = {
        "stamp": stamp(args),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "setups": setups,
        "runs": {"setup_samples": len(setups),
                 "pass_wall_s": [sum(p) for p in metrics.by_pass(records, "s")],
                 "pass_cpu_s": [sum(p) for p in metrics.by_pass(records, "cpu_s")],
                 "pass_norm_s": [sum(p) for p in metrics.by_pass(records, "norm_s")],
                 "op_latency_norm": metrics.op_latency(records, "norm_s"),
                 "op_latency_wall": metrics.op_latency(records, "s"),
                 "route_errors": len(metrics.route_errors(records))},
        "failures": failures[:50],
        "peak_rss_mb": result["peak_rss_mb"],
        "trace": result.get("trace"),
        "records": records,
    }
    with open(RESULTS / f"{name}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    for f in failures[:10]:
        print(f"FAILED {f['op']}: {f['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
