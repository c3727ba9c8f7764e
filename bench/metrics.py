"""End-to-end and per-layer metrics from a worker's result.

Every metric here is named in BENCHMARK.json with the same unit; the
benchmark's tests hold the two lists equal.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from scipy.special import betainc

# the default_gallery() entries, in order
GALLERY_ENTRIES = (
    "rn-unweighted-2", "buckley-0.5", "summed-buckley-0.5", "bowtie-2d-alpha--0.5",
    "bowtie-2d-alpha-0.5", "snake", "halfline-min-one-over-x", "halfline-exp-decay",
    "halfline-exp-inv-over-x-sq",
)
TAIL_BEYOND = 10  # samples a tail percentile must leave above it


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  A pass mixes ops of very different sizes, so the
    single order statistic at p jumps whenever two ops near it swap places;
    this estimate moves smoothly instead."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def tail(values):
    """(value, percentile, samples beyond): the estimate at the highest
    percentile that leaves TAIL_BEYOND samples above it, or the maximum
    when there are too few samples for that to lie above the median."""
    n = len(values)
    if n > 2 * TAIL_BEYOND:
        p = (n - TAIL_BEYOND) / n
        return hd_quantile(values, p), 100.0 * p, TAIL_BEYOND
    return max(values), 100.0, 0


def by_pass(records, key):
    passes = {}
    for r in records:
        passes.setdefault(r["pass"], []).append(r[key])
    return list(passes.values())


def op_latency(records, key="norm_s"):
    """Per-op latency percentiles of each pass, and their medians over the
    passes: every pass holds the same mix, so a run's figures do not
    depend on how many passes fitted in its time."""
    per_pass = []
    for seconds in by_pass(records, key):
        ms = [s * 1e3 for s in seconds]
        value, pct, beyond = tail(ms)
        per_pass.append({"samples": len(ms), "p50_ms": hd_quantile(ms, 0.5), "tail_ms": value,
                         "tail_percentile": pct, "tail_samples_beyond": beyond})
    return {"clock": key, "passes": len(per_pass),
            "p50_ms": statistics.median(p["p50_ms"] for p in per_pass),
            "tail_ms": statistics.median(p["tail_ms"] for p in per_pass),
            "per_pass": per_pass}


def route_errors(records):
    return [r["route_rel_err"] for r in records if "route_rel_err" in r]


def end_to_end(result, setups):
    """The end_to_end metrics of BENCHMARK.json, as name -> (value, unit).
    Times are normalized CPU times (worker.REF_S): the worker is
    single-threaded, so its CPU time is its wall time without the waits
    other tenants of the machine impose, at the machine's current speed."""
    records = result["records"]
    lat = op_latency(records)
    errs = route_errors(records)
    gmean = math.exp(statistics.fmean(math.log(e) for e in errs)) if errs else math.nan
    return {
        "setup_s": (statistics.median(s["norm_s"] for s in setups), "s"),
        "pass_norm_s": (statistics.median(sum(p) for p in by_pass(records, "norm_s")), "s"),
        "op_norm_p50_ms": (lat["p50_ms"], "ms"),
        "op_norm_tail_ms": (lat["tail_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "route_rel_err_gmean": (gmean, "ratio"),
    }


def _cases(records, prefix):
    return [r for r in records if r["op"].startswith(prefix) and r["error"] is None]


def _case_sum(records, prefix, key):
    return float(sum(r[key] for r in _cases(records, prefix)))


def _case_mean(records, prefix, key):
    cases = _cases(records, prefix)
    return float(statistics.fmean(r[key] for r in cases)) if cases else 0.0


def per_layer(result, setups):
    """The per_layer metrics of BENCHMARK.json, from the traced pass."""
    trace = result["trace"]
    totals, counters = trace["totals"], trace["counters"]
    traced = [r for r in result["records"] if r["pass"] == 1]

    def span(name, stat):
        return float(totals.get(name, {}).get(stat, 0.0))

    def evaluate(stat):
        """A Weight.evaluate figure summed over the weight classes."""
        if stat == "self_s":
            return float(sum(t["self_s"] for n, t in totals.items() if n.endswith(".evaluate")))
        return float(sum(v for k, v in counters.items() if k.endswith(f".evaluate.{stat}")))

    out = {
        "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "setup.inputs_s": (statistics.median(s["inputs_s"] for s in setups), "s"),
        "trace.overhead_ratio": (trace["overhead_ratio"], "ratio"),
        "trace.spans": (float(trace["spans"]), "count"),
        "weights.evaluate.scalar_calls": (evaluate("scalar_calls"), "count"),
        "weights.evaluate.array_points": (evaluate("array_points"), "count"),
        "weights.evaluate.self_s": (evaluate("self_s"), "s"),
        "measure.quad.calls": (span("measure.quad", "calls"), "count"),
        "measure.quad.neval": (counters.get("measure.quad.neval", 0.0), "count"),
        "measure.quad.self_s": (span("measure.quad", "self_s"), "s"),
        "measure.mu_ball.calls": (span("measure.mu_ball", "calls"), "count"),
    }
    for name in ("measure.mu_ball", "measure.mu_annulus", "decay.check_one_ad",
                 "decay.fit_annulus_decay", "decay.ad_ratio_trend", "capacity.cap_auto",
                 "capacity.cap_radial_weighted", "capacity.cap_radial_p1",
                 "bounds.verify_envelope", "bounds.blowup_probe",
                 "network.build_radial_network", "network.build_snake_network",
                 "network.build_bowtie_grid.h64", "network.build_bowtie_grid.h128",
                 "network.build_bowtie_grid.h256", "network.solve.mincut",
                 "network.solve.p2", "network.solve.newton"):
        out[f"{name}.total_s"] = (span(name, "total_s"), "s")
    for command in ("cap", "sweep", "ad", "oracle"):
        out[f"cli.run.{command}.self_s"] = (span(f"cli.run.{command}", "self_s"), "s")
    out.update({
        "network.newton.iterations": (counters.get("network.newton.iterations", 0.0), "count"),
        "network.newton.kkt_max": (counters.get("network.newton.kkt_max", 0.0), "1"),
        "network.spsolve.calls": (span("network.spsolve", "calls"), "count"),
        "network.spsolve.self_s": (span("network.spsolve", "self_s"), "s"),
        "network.min_cut.self_s": (span("network.min_cut", "self_s"), "s"),
        "network.case.buckley-N20000-p1.5.solve_s":
            (_case_sum(traced, "radial.buckley-0.5.N20000.p1.5.", "solve_s"), "s"),
        "network.case.buckley-N20000-p1.5.iterations":
            (_case_sum(traced, "radial.buckley-0.5.N20000.p1.5.", "iterations"), "count"),
        "network.case.buckley-N20000-p1.1.kkt_residual":
            (_case_sum(traced, "radial.buckley-0.5.N20000.p1.1.", "kkt_residual"), "1"),
        "network.case.mincut-N20000.solve_s": (_case_mean(
            [r for r in traced if ".N20000.p1.d" in r["op"]], "radial.", "solve_s"), "s"),
        "network.case.bowtie-h256.build_s": (_case_sum(traced, "bowtie.h256.", "build_s"), "s"),
        "network.case.bowtie-h256.solve_s": (_case_sum(traced, "bowtie.h256.", "solve_s"), "s"),
    })
    for i in range(1, 11):
        out[f"acceptance.criterion_{i}.total_s"] = (span(f"acceptance.criterion_{i}", "total_s"), "s")
    for entry in GALLERY_ENTRIES:
        out[f"gallery.{entry}.total_s"] = (span(f"gallery.{entry}", "total_s"), "s")
    return out
