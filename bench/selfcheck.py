"""
Quick self-check of the benchmark (about a minute):

    python3 bench/selfcheck.py

1. Each workload runs on its first few inputs, one pass, and none fails.
2. A verdict given the wrong expected exit code is counted as failed.
3. The reference kernel imports nothing from ``fiberpoisson``: it runs in a
   fresh interpreter that then holds no module of the program, and its
   source imports only the standard library.

Exits 0 when every check holds.
"""

import ast
import os
import subprocess
import sys

import run

QUICK = ["--limit", "3", "--setup-reps", "1", "--min-passes", "1", "--oracle-checks", "1"]


def check(ok, text):
    print("%s  %s" % ("ok  " if ok else "FAIL", text))
    return ok


def workloads_pass():
    ok = True
    for name in ("criterion", "equivalence", "numeric-flow"):
        res = run.launch(name, 1, 0, 0, QUICK, tag="selfcheck-")
        ok &= check(res is not None and res["attempted"] >= 3 and res["failed"] == 0,
                    "%s: %s attempted, %s failed" % (
                        name, res and res["attempted"], res and res["failed"]))
    res = run.launch("numeric-flow", 1, 0, 1, QUICK, tag="selfcheck-")
    ok &= check(res is not None and res["per_layer"].get("cli.main.calls", 0) > 0,
                "numeric-flow traced: per-layer figures recorded")
    return ok


def wrong_expectation_fails():
    res = run.launch("criterion", 1, 0, 0, QUICK + ["--expect-wrong", "0"],
                     tag="selfcheck-")
    return check(res is not None and res["failed"] == 1
                 and res["failures"][0].startswith("data-000:"),
                 "a wrong expected verdict is counted as failed: %s" % (
                     res and res["failures"]))


def kernel_is_standalone():
    probe = ("import sys, refkernel; refkernel.measure(); "
             "print(any(m.split('.')[0] == 'fiberpoisson' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=run.HERE,
                         capture_output=True, text=True, timeout=60)
    loaded = out.returncode != 0 or out.stdout.strip() != "False"
    with open(os.path.join(run.HERE, "refkernel.py")) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or ".").split(".")[0] if not node.level else ".")
    stdlib = names <= set(sys.stdlib_module_names)
    return check(not loaded and stdlib,
                 "reference kernel imports only %s" % sorted(names))


def main():
    results = [workloads_pass(), wrong_expectation_fails(), kernel_is_standalone()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
