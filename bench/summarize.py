"""Summarize the run records in bench/results/ into a baseline.

    python3 bench/summarize.py [--out bench/baseline.json]

For each workload: the median, quartiles and spread ((q3 - q1) / median,
quartiles as statistics.quantiles(n=4) gives them) of every end-to-end
metric over the untraced runs, and the per-layer metrics and tracing
overhead of the traced runs (medians when there are several).  Prints a
table; with --out also writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def load(results=RESULTS):
    runs = {}
    for path in sorted(results.glob("*-trace[01].json")):
        report = json.loads(path.read_text())
        if report["stamp"]["smoke"]:
            continue
        runs.setdefault((report["stamp"]["workload"], report["stamp"]["trace"]), []).append(report)
    return runs


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "runs": len(values)}


def summarize(runs):
    out = {"stamp": None, "end_to_end": {}, "per_layer": {}, "tracing": {}}
    for (workload, trace), reports in sorted(runs.items()):
        stamp = reports[-1]["stamp"]
        out["stamp"] = {k: stamp[k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy",
                                              "networkx", "git_commit", "src_sha256")}
        names = reports[0]["metrics"]
        metrics = {}
        for name, first in names.items():
            values = [r["metrics"][name]["value"] for r in reports]
            stats = spread(values) or {"median": values[0], "runs": 1}
            metrics[name] = {"unit": first["unit"], **stats}
        seeds = sorted(r["stamp"]["seed"] for r in reports)
        if trace:
            out["per_layer"][workload] = {"seeds": seeds, "metrics": metrics}
            out["tracing"][workload] = {
                key: statistics.median(r["trace"][key] for r in reports)
                for key in ("untraced_wall_s", "traced_wall_s", "overhead_ratio", "spans")}
        else:
            out["end_to_end"][workload] = {
                "seeds": seeds, "seconds": reports[0]["stamp"]["seconds"],
                "failed_ops": sum(len(r["failures"]) for r in reports),
                "attempted_ops": sum(len(r["records"]) for r in reports),
                "metrics": metrics}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    summary = summarize(load())
    for workload, block in summary["end_to_end"].items():
        print(f"{workload}: {len(block['seeds'])} runs, {block['failed_ops']} of "
              f"{block['attempted_ops']} ops failed")
        for name, m in block["metrics"].items():
            sp = m.get("spread")
            print(f"  {name:22s} median {m['median']:.6g} {m['unit']:6s}"
                  + (f" spread {sp:.4f} ({m['runs']} runs)" if sp is not None else ""))
    for workload, t in summary["tracing"].items():
        print(f"{workload} traced: overhead {t['overhead_ratio']:+.1%}, {t['spans']:.0f} spans")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
