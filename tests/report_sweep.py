"""
Run every CLI command in-process on the shipped problem files and print one
JSON object that maps each argv to its exit code, stdout, stderr and the
text of its ``--report`` file.

Every command in ``cli.COMMANDS`` runs on ``problems/*.problem.json`` and
``tests/data/wong_family.problem.json``, at the file's own order and at
``--order`` 0, 1, 2, 3 and 5; the numeric commands run at ``--steps 40``.
The package is imported from the path, so two versions of it are compared
on this checkout's files by pointing PYTHONPATH at each one's ``src/``:

    PYTHONPATH=src python tests/report_sweep.py > head.json
    PYTHONPATH=../base/src python tests/report_sweep.py > base.json
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

from fiberpoisson import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted("problems/" + p.name for p in (ROOT / "problems").glob("*.problem.json")) + [
    "tests/data/wong_family.problem.json"]
ORDERS = (None, 0, 1, 2, 3, 5)
NUMERIC = ("moser-flow", "holonomy")


def argvs():
    for command in cli.COMMANDS:
        for path in FILES:
            for order in ORDERS:
                argv = [command, path]
                if order is not None:
                    argv += ["--order", str(order)]
                if command in NUMERIC:
                    argv += ["--steps", "40"]
                yield argv


def sweep():
    os.chdir(ROOT)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp, "report.json")
        for argv in argvs():
            report.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv + ["--report", str(report)])
            out[" ".join(argv)] = {"exit": code, "stdout": stdout.getvalue(),
                                   "stderr": stderr.getvalue(),
                                   "report": report.read_text() if report.exists() else None}
    return out


if __name__ == "__main__":
    json.dump(sweep(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
