"""
Golden reports: every command on every shipped problem file, compared with
stored stdout, exit code and ``--report`` JSON.  ``moser-verify`` is also
pinned off its default chart order: on the Wong family of the acceptance
suite (``tests/data/wong_family.problem.json``) at orders 3 and 4, and on
e1 at orders 6, 12 and 18.

Exact commands must match byte for byte.  The two numeric commands
(``moser-flow``, ``holonomy``) run at ``--steps 100``; their ``detail`` and
``residual`` values may differ by 1e-6 relative, because numpy and LAPACK
builds differ in the last digits, and everything else must match exactly.
Deviations below 1e-10 are compared only against that bound: they are
finite-difference round-off (the flow Jacobian divides by 2e-5), whose
leading digits follow the BLAS kernel, and lie far below both default
tolerances (1e-6 and 1e-8).

Regenerate the files (only when a change of output is intended) with

    PYTHONPATH=src python3 tests/test_golden.py --update
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest

from fiberpoisson import parse
from fiberpoisson.cli import main, COMMANDS

import report_sweep
from test_moser import count_calls

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PROBLEMS = ("e1", "wong", "broken_bianchi", "wong_pair")
PROBLEM_FILES = {p: "problems/%s.problem.json" % p for p in PROBLEMS}
PROBLEM_FILES["wong_family"] = "tests/data/wong_family.problem.json"
NUMERIC = ("moser-flow", "holonomy")
REL_TOL = 1e-6
ABS_TOL = 1e-10
# (problem, command, chart order or None for the file's own)
CASES = ([(p, c, None) for p in PROBLEMS for c in COMMANDS]
         + [("wong_family", "moser-verify", n) for n in (3, 4)]
         + [("e1", "moser-verify", n) for n in (6, 12, 18)])


def case_id(problem, command, order):
    return "%s-%s" % (problem, command) + ("" if order is None else "-order-%d" % order)


def argv_of(problem, command, order):
    argv = [command, PROBLEM_FILES[problem]]
    if order is not None:
        argv += ["--order", str(order)]
    return argv + ["--steps", "100"] if command in NUMERIC else argv


def capture(problem, command, order, report_path):
    """Exit code, stdout and report text of one call, run from the repo root."""
    argv = argv_of(problem, command, order)
    argv[1] = str(ROOT / argv[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--report", str(report_path)])
    report = report_path.read_text() if report_path.exists() else None
    return code, out.getvalue(), report


def golden_path(problem, command, order):
    suffix = "" if order is None else ".order-%d" % order
    return GOLDEN / ("%s.%s%s.json" % (problem, command, suffix))


def dump_report(obj):
    # the CLI's own serialisation of a report
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def close(a, b):
    return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)


def assert_numeric_report(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if key != "entries":
            assert got[key] == want[key], key
    assert len(got["entries"]) == len(want["entries"])
    for e_got, e_want in zip(got["entries"], want["entries"]):
        assert e_got.keys() == e_want.keys()
        for key in e_want:
            if key in ("detail", "residual") and e_want.get("detail") is not None:
                assert close(e_got[key], e_want[key]), (key, e_got[key], e_want[key])
            else:
                assert e_got[key] == e_want[key], key


def assert_numeric_stdout(got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        g_head, _, g_val = g.partition("  residual: ")
        w_head, _, w_val = w.partition("  residual: ")
        assert g_head == w_head
        if w_val:
            assert close(g_val, w_val), (g_val, w_val)


@pytest.mark.parametrize("problem,command,order", CASES,
                         ids=[case_id(*case) for case in CASES])
def test_golden(problem, command, order, tmp_path):
    want = json.loads(golden_path(problem, command, order).read_text())
    assert want["argv"] == argv_of(problem, command, order)
    code, stdout, report = capture(problem, command, order, tmp_path / "report.json")
    assert code == want["exit"]
    assert (report is None) == (want["report"] is None)
    if command not in NUMERIC:
        assert stdout == want["stdout"]
        if report is not None:
            assert report == dump_report(want["report"])
        return
    assert_numeric_stdout(stdout, want["stdout"])
    if report is not None:
        assert_numeric_report(json.loads(report), want["report"])


@pytest.mark.parametrize("path", report_sweep.FILES)
def test_a_parenthesised_copy_reads_alike(path, tmp_path, monkeypatch):
    # every expression string in parentheses goes to the parser's token reader
    # in place of its flat split: each command at the file's own order gives
    # the same exit code, stdout, stderr and report on the copy
    monkeypatch.chdir(ROOT)
    copy = report_sweep.write_parenthesised(path, tmp_path)
    report = tmp_path / "report.json"
    tokenized = count_calls(monkeypatch, parse, "_tokenize")
    for argv in report_sweep.argvs(path, orders=(None,)):
        assert report_sweep.run([argv[0], copy] + argv[2:], report) == \
            report_sweep.run(argv, report), argv
    assert tokenized


def update():
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            report_path = pathlib.Path(tmp) / (case_id(*case) + ".json")
            code, stdout, report = capture(*case, report_path)
            doc = {"argv": argv_of(*case), "exit": code, "stdout": stdout,
                   "report": None if report is None else json.loads(report)}
            golden_path(*case).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python3 tests/test_golden.py --update")
    update()
