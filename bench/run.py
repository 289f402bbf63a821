"""
Benchmark entry point.

    python3 bench/run.py --workload criterion --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh Python process (one closed-loop caller, one
thread, BLAS/OpenMP pools pinned to one thread), prints the raw and
speed-corrected figures with the run's machine information, writes them to
``bench/out/<workload>-seed<seed>-trace<trace>.json``, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

CHILD_TIMEOUT = 170


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_info(args):
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def launch(workload, seed, seconds, trace, extra=(), tag="", timeout=CHILD_TIMEOUT):
    """Run one workload in a fresh process; its result dict, or None."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s%s-seed%d-trace%d.json" % (tag, workload, seed, trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "harness.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out] + list(extra)
    env = dict(os.environ, **PINNED)
    cmd += ["--t0", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("workload process timed out after %d s" % timeout, file=sys.stderr)
        return None
    if code != 0 or not os.path.exists(out):
        print("workload process failed (exit %s)" % code, file=sys.stderr)
        return None
    with open(out) as fh:
        res = json.load(fh)
    res["path"] = out
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["criterion", "equivalence", "numeric-flow"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corpus-seed", type=int, default=None,
                    help="draw the criterion / equivalence corpus from this seed "
                         "instead of the fixed one (102 / 107)")
    args, extra = ap.parse_known_args(argv)

    end_to_end, per_layer_units = declared_metrics()
    extra += ["--corpus-seed", str(args.corpus_seed)] if args.corpus_seed is not None else []
    res = launch(args.workload, args.seed, args.seconds, args.trace, extra)
    if res is None:
        return 1
    res["machine"] = machine_info(args)
    with open(res.pop("path"), "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    m = res["machine"]
    print("machine: sha=%s python=%s numpy=%s nproc=%s affinity=%s" % (
        m["git_sha"], m["python"], res["versions"]["numpy"], m["nproc"], m["affinity"]))
    print("run: workload=%s seed=%s corpus_seed=%s passes=%d inputs=%d "
          "attempted=%d failed=%d" % (args.workload, args.seed, res["corpus_seed"],
                                      res["passes"], res["inputs"], res["attempted"],
                                      res["failed"]))
    for why in res["failures"]:
        print("FAILED %s" % why)
    if args.trace:
        metrics = {name: {"value": res["per_layer"].get(name, 0), "unit": unit}
                   for name, unit in per_layer_units.items()}
        print("trace: %s" % res["trace_file"])
    else:
        metrics = {name: res["metrics"][name] for name in end_to_end}
        for name in end_to_end:
            raw = res["raw"].get(name)
            print("%-16s %12.4f %-4s  (raw %s)" % (
                name, metrics[name]["value"], metrics[name]["unit"],
                "%.4f" % raw if raw is not None else "-"))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
