"""One benchmark run in a fresh process; started by run.py, not by hand.

Prints one JSON object on its last stdout line: set-up times, one record
per op (pass, wall, CPU and normalized seconds, error, check details such
as route errors and solver counts), peak RSS and, with --trace 1, the span
totals and counters of a traced pass.

The speed of a shared host drifts: the same ops took from 0.74 to 1.36
times their median CPU time within 100 seconds on a 2-vCPU virtual
machine.  So a fixed reference kernel runs before the first op, after
every op and, in untraced runs, every SAMPLE_S seconds inside an op (from
a SIGALRM handler).  An op's normalized time is its CPU time,
less the kernels run inside it, with each stretch between two kernels
scaled by REF_S over the kernel's time around that stretch: the time the
op would take at the speed where the kernel takes REF_S.  On that machine
the kernels around each op cut the run-to-run spread of the queries pass
from 26% to 7%; the kernels inside ops do the same for ops that run for
seconds, such as the gallery's summed-buckley entry.
"""

from time import perf_counter, process_time

T_START = perf_counter()
C_START = process_time()

import argparse  # noqa: E402
import bisect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REF_S = 2e-3         # the reference kernel's CPU time at the reference speed
# wall time between two kernels inside an op; a CPU-time timer (ITIMER_PROF)
# would do, but while one is armed Linux reads the process CPU clock only
# at scheduler ticks (4 ms), which would swamp the 2 ms kernel
SAMPLE_S = 0.1
SETUP_KERNELS = 7    # kernels right after set-up, for its normalization
# kernels on each side of a stretch of op time whose median gives its speed:
# a single 2 ms kernel run is off by about 10%, and that noise is mostly
# uncorrelated from one run to the next, while the drift is slower
KERNEL_WINDOW = 8


def reference_time():
    """CPU time of a fixed mix of the kinds of work anncap does: a Python
    loop, scalar numpy calls under scipy's quad, and array arithmetic."""
    import numpy as np
    from scipy.integrate import quad  # not the tracer's wrapper of it

    c0 = process_time()
    total = 0
    for i in range(20000):
        total += i * i
    quad(lambda x: float(np.exp(-x)) * x, 0.0, 10.0,
         epsabs=1e-12, epsrel=1e-12, limit=200)
    a = np.arange(20000.0)
    for _ in range(5):
        a = np.sqrt(a * a + 1.0)
    return process_time() - c0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    return parser.parse_args(argv)


class Kernels:
    """The reference kernel's runs of one pass, in order: (process CPU time
    at its start, its CPU time, its wall time).  ``sample`` runs it; with
    ``periodic`` on, SIGALRM also runs it every SAMPLE_S seconds."""

    def __init__(self, periodic):
        self.periodic = periodic
        self.runs = []
        self._busy = False

    def sample(self, signum=None, frame=None):
        if self._busy:  # a signal during a kernel run
            return
        self._busy = True
        try:
            c0, t0 = process_time(), perf_counter()
            cpu_s = reference_time()
            self.runs.append((c0, cpu_s, perf_counter() - t0))
        finally:
            self._busy = False

    def __enter__(self):
        if self.periodic:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def normalize(self, c0, c1):
        """(CPU seconds, wall seconds and normalized seconds of the kernels
        run inside the CPU interval [c0, c1), their count).  A stretch
        between two kernels runs at the speed the median of the
        KERNEL_WINDOW kernel times before it and the KERNEL_WINDOW after
        says: that follows the drift and damps the noise of single kernel
        runs."""
        starts = [run[0] for run in self.runs]
        lo, hi = bisect.bisect_left(starts, c0), bisect.bisect_left(starts, c1)
        inside = self.runs[lo:hi]
        norm, begin = 0.0, c0
        for j, end in zip(range(lo, hi + 1), [run[0] for run in inside] + [c1]):
            ref = statistics.median(r[1] for r in self.runs[max(0, j - KERNEL_WINDOW):j + KERNEL_WINDOW])
            norm += (end - begin) * REF_S / ref
            if j < hi:
                begin = self.runs[j][0] + self.runs[j][1]
        return (sum(r[1] for r in inside), sum(r[2] for r in inside), norm, len(inside))


def run_pass(ops, index, tracer=None, periodic=False):
    """Run ops in order, closed loop; check each output outside its timing.
    With periodic on, the kernel also runs inside ops (see Kernels)."""
    records, spans = [], []
    with Kernels(periodic) as kernels:
        kernels.sample()
        for op in ops:
            error = None
            out = None
            c0 = process_time()
            t0 = perf_counter()
            try:
                out = tracer.run_op(op.name, op.run) if tracer else op.run()
            except Exception as exc:  # a failed op is recorded, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
            c1 = process_time()
            spans.append((c0, c1))
            kernels.sample()
            details = {}
            if error is None:
                try:
                    details = op.check(out) or {}
                except Exception as exc:
                    error = f"check {type(exc).__name__}: {exc}"
            del out
            records.append({"op": op.name, "pass": index, "s": seconds, "error": error, **details})
    for rec, (c0, c1) in zip(records, spans):
        k_cpu, k_wall, norm, count = kernels.normalize(c0, c1)
        rec.update({"s": rec["s"] - k_wall, "cpu_s": c1 - c0 - k_cpu, "norm_s": norm,
                    "kernels_inside": count,
                    "ref_s": kernels.runs[bisect.bisect_left([r[0] for r in kernels.runs], c1)][1]})
    return records


def main(argv=None):
    args = _parse(argv)
    import anncap  # the first import of the package: its cost is set-up
    from workloads import WORKLOADS, load_expected

    src = (ROOT / "src" / "anncap").resolve()
    if Path(anncap.__file__).resolve().parent != src:
        raise SystemExit(f"anncap imported from {anncap.__file__}, not from {src}")
    t_import = perf_counter()
    passes = WORKLOADS[args.workload](args.seed, args.smoke, load_expected())
    t_inputs, c_inputs = perf_counter(), process_time()
    ref_s = statistics.median(reference_time() for _ in range(SETUP_KERNELS))
    setup = {"import_s": t_import - T_START, "inputs_s": t_inputs - t_import,
             "cpu_s": c_inputs - C_START, "ref_s": ref_s,
             "norm_s": (c_inputs - C_START) * REF_S / ref_s}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    result = {"setup": setup}
    if args.trace:
        # one untraced pass, then the same ops traced: the ratio of their
        # normalized times is the tracing overhead
        from tracer import Tracer

        untraced = run_pass(passes[0], 0)
        tracer = Tracer()
        wrapped = tracer.install()
        traced = run_pass(passes[0], 1, tracer)
        tracer.uninstall()
        records = untraced + traced
        result["trace"] = {**trace_summary(tracer, untraced, traced), "wrapped_bindings": wrapped}
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    else:
        records = []
        start = perf_counter()
        for index, ops in enumerate(itertools.cycle(passes)):
            before = perf_counter()
            records += run_pass(ops, index, periodic=True)
            last = perf_counter() - before
            if perf_counter() - start + last > args.seconds:
                break
    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def trace_summary(tracer, untraced, traced):
    """Per-span-name totals, kernel counters, per-op self-time sums and the
    traced-vs-untraced overhead."""
    def total(records, key):
        return sum(r[key] for r in records)

    return {
        "totals": {name: {"calls": c, "total_s": t, "self_s": s}
                   for name, (c, t, s) in tracer.totals.items()},
        "counters": dict(tracer.counters),
        "op_self_sums": [[op, s, w] for op, (s, w) in sorted(tracer.op_self_sums().items())],
        "spans": len(tracer.spans),
        "untraced_wall_s": total(untraced, "s"),
        "traced_wall_s": total(traced, "s"),
        "untraced_norm_s": total(untraced, "norm_s"),
        "traced_norm_s": total(traced, "norm_s"),
        "overhead_ratio": total(traced, "norm_s") / total(untraced, "norm_s") - 1.0,
    }


if __name__ == "__main__":
    sys.exit(main())
