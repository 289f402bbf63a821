"""
Run every CLI command in-process on the shipped problem files and print one
JSON object that maps each argv to its exit code, stdout, stderr and the
text of its ``--report`` file.

Every command in ``cli.COMMANDS`` runs on ``problems/*.problem.json`` and
``tests/data/wong_family.problem.json``, at the file's own order and at
``--order`` 0, 1, 2, 3 and 5; the numeric commands run at ``--steps 40``.
Each run is repeated on a copy of its file with every expression string
parenthesised, which the parser's token reader reads in place of its flat
split; that run's key is the original's with `` [parenthesised]`` appended.
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
# the sections that hold no expression strings: the chart and the points a command visits
NOT_EXPRESSIONS = ("chart", "points", "path")


def parenthesised(doc):
    """A copy of a problem document with every expression string written as ``(text)``."""
    if isinstance(doc, dict):
        return {k: v if k in NOT_EXPRESSIONS else parenthesised(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [parenthesised(v) for v in doc]
    return "(%s)" % doc if isinstance(doc, str) else doc


def write_parenthesised(path, directory):
    """Write the parenthesised copy of the problem file ``path`` into ``directory``."""
    copy = pathlib.Path(directory, pathlib.Path(path).name)
    copy.write_text(json.dumps(parenthesised(json.loads(pathlib.Path(path).read_text()))))
    return str(copy)


def argvs(path, orders=ORDERS):
    for command in cli.COMMANDS:
        for order in orders:
            argv = [command, path]
            if order is not None:
                argv += ["--order", str(order)]
            if command in NUMERIC:
                argv += ["--steps", "40"]
            yield argv


def run(argv, report):
    """The exit code, stdout, stderr and report text of one command, its report written
    to the path ``report``."""
    report.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--report", str(report)])
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "report": report.read_text() if report.exists() else None}


def sweep():
    os.chdir(ROOT)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp, "report.json")
        for path in FILES:
            copy = write_parenthesised(path, tmp)
            for argv in argvs(path):
                out[" ".join(argv)] = run(argv, report)
                out[" ".join(argv) + " [parenthesised]"] = run([argv[0], copy] + argv[2:],
                                                               report)
    return out


if __name__ == "__main__":
    json.dump(sweep(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
