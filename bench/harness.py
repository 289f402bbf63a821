"""
One workload in one process: set up, time round-robin passes over the
workload's verdicts through ``fiberpoisson.cli.main``, check every output,
and write the result (and, when traced, the spans) as JSON.

Started by ``run.py`` with the thread variables pinned; not meant to be
run by hand.  Every timed interval is speed-corrected (see ``Clock``).
"""

import time

_T_START = time.perf_counter()

import argparse
import bisect
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile

import refkernel

TICK = 0.05     # seconds between kernel readings inside an interval
WINDOW = 0.1    # readings this close to an interval also describe its speed
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Clock:
    """Speed-corrected interval timer.

    The reference kernel is read between intervals and on a timer tick every
    TICK seconds inside them.  An interval's raw time excludes the kernel
    runs of its ticks.  Its corrected time is the raw time times REF / r,
    where r is the mean of the readings taken from WINDOW before the interval
    starts to WINDOW after it ends: the readings right before and right after
    it, those inside it, and for a short interval those of its neighbours.
    """

    def __init__(self, t0):
        self.stolen = 0.0
        self.busy = True
        self.times, self.readings = [], []
        self.intervals = []          # (start, end, raw seconds)
        self.start, self.vstart = t0, t0
        self._read()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
        self.busy = False

    def _read(self):
        t = time.perf_counter()
        self.readings.append(refkernel.measure())
        self.times.append(t)

    def _tick(self, signum, frame):
        if self.busy:
            return
        t = time.perf_counter()
        self._read()
        self.stolen += time.perf_counter() - t

    def now(self):
        """Wall time without the kernel runs of the ticks."""
        return time.perf_counter() - self.stolen

    def lap(self):
        """Close the running interval and open the next; the closed one's id."""
        self.busy = True
        end, vend = time.perf_counter(), self.now()
        self.intervals.append((self.start, end, vend - self.vstart))
        self._read()
        self.start, self.vstart = time.perf_counter(), self.now()
        self.busy = False
        return len(self.intervals) - 1

    def raw(self, k):
        return self.intervals[k][2]

    def corrected(self, k):
        start, end, raw = self.intervals[k]
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        near = self.readings[lo:hi]
        return raw * refkernel.REF / (sum(near) / len(near))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_verdict(cli, verdict, workdir):
    """The verdict's calls, timed by the caller; returns their raw results."""
    results = []
    for k, call in enumerate(verdict.calls):
        report = os.path.join(workdir, "report-%d.json" % k)
        argv = call.argv + ["--report", report]
        if call.capture:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            results.append((code, report, buf.getvalue()))
        else:
            results.append((cli.main(argv + ["--quiet"]), report, ""))
    return results


def layer_metrics(clock, samples, passes):
    """Per-pass layer figures from the traced verdicts: counts as counted,
    times speed-corrected with their verdict's factor."""
    layer, counts, maxima = {}, {}, {}
    for k, totals, counters, peaks in samples:
        raw = clock.raw(k)
        factor = clock.corrected(k) / raw if raw > 0 else 1.0
        for name, (calls, secs, self_s) in totals.items():
            acc = layer.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += secs * factor
            acc[2] += self_s * factor
        for name, c in counters.items():
            counts[name] = counts.get(name, 0) + c
        for name, m in peaks.items():
            maxima[name] = max(maxima.get(name, 0), m)
    out = {}
    for name, (calls, secs, self_s) in sorted(layer.items()):
        out[name + ".calls"] = calls / passes
        out[name + ".ms"] = 1000 * secs / passes
        out[name + ".self_ms"] = 1000 * self_s / passes
    for name, c in counts.items():
        out[name] = c / passes
    out.update(maxima)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, default=None,
                    help="perf_counter reading taken just before this process started")
    ap.add_argument("--out", required=True)
    ap.add_argument("--corpus-seed", type=int, default=None)
    ap.add_argument("--setup-reps", type=int, default=3)
    ap.add_argument("--min-passes", type=int, default=None,
                    help="default 2, or 1 when traced")
    ap.add_argument("--limit", type=int, default=None,
                    help="use only the first N verdicts (self-check)")
    ap.add_argument("--oracle-checks", type=int, default=None)
    ap.add_argument("--expect-wrong", type=int, default=None,
                    help="flip the expected exit code of verdict N's first call (self-check)")
    args = ap.parse_args(argv)
    if args.min_passes is None:
        args.min_passes = 1 if args.trace else 2
    # the first interval runs from process start to the end of the imports
    clock = Clock(_T_START if args.t0 is None else args.t0)
    try:
        return run(args, clock)
    finally:
        clock.stop()


def run(args, clock):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import numpy
    import fiberpoisson
    from fiberpoisson import cli
    import workloads
    import_lap = clock.lap()

    build = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(HERE, "out", "tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch)
    try:
        setup_laps = []
        for rep in range(args.setup_reps):
            repdir = os.path.join(workdir, "inputs-%d" % rep)
            os.makedirs(repdir)
            clock.lap()
            verdicts = build(repdir, ROOT, args.seed, args.corpus_seed)
            setup_laps.append(clock.lap())
        if args.limit is not None:
            verdicts = verdicts[:args.limit]
        if args.expect_wrong is not None:
            call = verdicts[args.expect_wrong].calls[0]
            call.expect = 1 - call.expect if call.expect in (0, 1) else 0

        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.install(clock.now)

        rng = random.Random(args.seed)
        oracle = workloads.oracle_subset(verdicts, random.Random(args.seed))
        n = len(verdicts)
        laps = [[] for _ in range(n)]
        traced = []
        jacobi_codes = {}
        failures = []
        attempted = 0
        passes = 0
        t_timed = time.perf_counter()
        while passes < args.min_passes or time.perf_counter() - t_timed < args.seconds:
            order = list(range(n))
            rng.shuffle(order)
            for i in order:
                v = verdicts[i]
                if tracer is not None:
                    tracer.verdict = "%d/%s" % (passes, v.name)
                    tracer.active = True
                clock.lap()
                results = run_verdict(cli, v, workdir)
                k = clock.lap()
                laps[i].append(k)
                if tracer is not None:
                    tracer.active = False
                    traced.append((k,) + tracer.take())
                outcomes = workloads.read_outcomes(results)
                attempted += 1
                why = workloads.judge(v, outcomes)
                if why is not None:
                    failures.append("%s: %s" % (v.name, why))
                if "pi_terms" in v.meta:
                    jacobi_codes[v.name] = outcomes[1].code
            passes += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # independent oracle on a seeded subset of the criterion inputs
        oracle_n = 0
        if args.workload == "criterion":
            for v in oracle[:args.oracle_checks]:
                attempted += 1
                oracle_n += 1
                why = workloads.oracle_agrees(v, jacobi_codes[v.name])
                if why is not None:
                    failures.append("%s (oracle): %s" % (v.name, why))
        clock.stop()

        per_input = [statistics.median(clock.corrected(k) for k in ks) for ks in laps]
        per_input_raw = [statistics.median(clock.raw(k) for k in ks) for ks in laps]
        setup_s = clock.corrected(import_lap) + statistics.median(
            clock.corrected(k) for k in setup_laps)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "corpus_seed": args.corpus_seed,
            "passes": passes,
            "inputs": n,
            "oracle_checks": oracle_n,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:20],
            "metrics": {
                "verdicts_per_s": {"value": n / sum(per_input), "unit": "1/s"},
                "verdict_p50_ms": {"value": 1000 * statistics.median(per_input),
                                   "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            },
            "raw": {
                "verdicts_per_s": n / sum(per_input_raw),
                "verdict_p50_ms": 1000 * statistics.median(per_input_raw),
                "setup_s": clock.raw(import_lap) + statistics.median(
                    clock.raw(k) for k in setup_laps),
                "import_s": clock.raw(import_lap),
                "setup_reps_s": [clock.raw(k) for k in setup_laps],
                "kernel_median_s": statistics.median(clock.readings),
                "kernel_readings": len(clock.readings),
            },
            "per_input_ms": {v.name: round(1000 * t, 4) for v, t in zip(verdicts, per_input)},
            "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "fiberpoisson": fiberpoisson.__version__},
        }
        if tracer is not None:
            result["per_layer"] = layer_metrics(clock, traced, passes)
            trace_path = os.path.splitext(args.out)[0] + ".trace.json"
            with open(trace_path, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "verdict"],
                           "spans": tracer.spans}, fh)
            result["trace_file"] = os.path.relpath(trace_path, ROOT)
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        # every kernel reading and interval, to re-derive the corrected times
        with open(os.path.splitext(args.out)[0] + ".clock.json", "w") as fh:
            json.dump({"times": clock.times, "readings": clock.readings,
                       "intervals": clock.intervals, "import": import_lap,
                       "setup": setup_laps, "inputs": [v.name for v in verdicts],
                       "laps": laps}, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
