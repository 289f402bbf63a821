"""
In-process fuzz of the command line's exit-code contract on mutated copies
of ``problems/*.json``: 0 all checks pass, 1 a required check failed, 2 bad
input, 3 an internal invariant violation; never a traceback, never an
uncaught exception reported as ``internal error:``, never a hang.

A case replaces one or two places of a shipped problem file: a coefficient
entry by a generated expression (huge integers, exponents up to 200,
nesting up to 150 levels, unknown names, stray characters) or by a
non-string; a number (points, path breakpoints, chart fields) by a huge
integer, a huge exponent such as ``"1e99999999"``, ``"1/0"``, ``null`` or
text; a list by one of another shape.
Every command runs on it in-process through ``cli.main``, the numeric ones
at ``--steps 20``.

The chart's ``trunc_order`` is not set to huge integers: the truncation
order is the requested precision, and its cost is the open ``--order``
question of the roadmap (item B), not an input fault.

``test_found_faults_exit_two`` pins the inputs that once ended in an
uncaught exception (exit 3), each found by this fuzz or by probing next to
what it found, and the chart fields that were once truncated to integers
(1.5 read as 1) instead of rejected.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import tempfile
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fiberpoisson import assemble, change_connection
from fiberpoisson.cli import COMMANDS, Problem, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
NUMERIC = ("moser-flow", "holonomy")
WALL_SECONDS = 10.0
# the top-level keys each command reads; it is fuzzed only on files that have them
READS = {
    "check-jacobi": ["pi"], "decompose": ["pi"],
    "verify-data": ["connection"], "assemble": ["connection"],
    "linearize": ["connection"], "extract-algebroid": ["connection"],
    "moser-verify": ["connection", "phi"], "moser-flow": ["connection", "phi", "points"],
    "algebroid-check": ["algebroid"], "algebroid-build": ["algebroid"],
    "connection-change": ["algebroid", "mu"], "cocycle": ["algebroid", "algebroid2", "mu"],
    "holonomy": ["algebroid", "mu", "path"],
}


def _rendered(entries):
    return [_rendered(e) if isinstance(e, list) else e.render() for e in entries]


def _problems():
    """The shipped problem files, each completed by the inputs its data
    determines, so that check-jacobi, decompose and cocycle have input: the
    assembled coupling tensor as ``pi`` and the changed algebroid as
    ``algebroid2``."""
    docs = {}
    for path in sorted((ROOT / "problems").glob("*.problem.json")):
        doc = json.loads(path.read_text())
        problem = Problem(doc)
        if "connection" in doc:
            pi = assemble(problem.geometric_data()).pi
            n = range(problem.chart.n_vars)
            doc["pi"] = _rendered([[pi.component((i, j)) for j in n] for i in n])
        if "mu" in doc:
            a2 = change_connection(problem.algebroid(), problem.mu())
            doc["algebroid2"] = {"lambda": _rendered(a2.lam), "theta": _rendered(a2.theta),
                                 "R": _rendered(a2.R)}
        docs[path.name] = doc
    return docs


PROBLEMS = _problems()
PAIRS = [(name, command) for name, doc in PROBLEMS.items()
         for command in sorted(COMMANDS) if all(key in doc for key in READS[command])]

names = st.sampled_from(["xi1", "xi2", "xi3", "xi4", "x1", "x2", "x3",
                         "xi0", "x0", "x9", "xi99", "y1"])
huge = st.integers(10 ** 300, 10 ** 400)
integers = st.one_of(st.integers(0, 20), st.integers(0, 10 ** 60), huge).map(str)
rationals = st.builds("{}/{}".format, integers, st.integers(0, 3))
atoms = st.one_of(names, integers, rationals, names.map("(1 + {})".format))
powers = st.builds("{}^{}".format, atoms, st.integers(0, 200))
terms = st.lists(st.one_of(atoms, powers), min_size=1, max_size=3).map("*".join)
sums = st.lists(terms, min_size=1, max_size=3).map(" - ".join)
nested = st.builds(lambda e, d, paren: "(" * d + e + ")" * d if paren else "-" * d + e,
                   sums, st.integers(0, 150), st.booleans())
garbage = st.text(alphabet="xi0123456789+-*/^() .", max_size=20)
expressions = st.one_of(sums, nested, garbage)
odd_values = st.one_of(st.none(), st.just("1/0"), st.just("0/0"), st.just("abc"),
                       st.just(True), st.just({}), st.just([]), st.floats(allow_nan=True),
                       st.integers(-3, 3), huge, huge.map(lambda n: -n),
                       st.sampled_from(["1e99999999", "-1e-99999999"]))
entries = st.one_of(expressions, odd_values)


def _places(node, path=()):
    """(path, value) of every node below the root, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (key,))


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@st.composite
def _reshaped(draw, value):
    """A value of another shape than the list ``value``."""
    options = [[value], value[:-1], value + value[-1:], "0", 5, None]
    if value:
        options.append(value[0])
    return draw(st.sampled_from(options))


@st.composite
def cases(draw):
    name, command = draw(st.sampled_from(PAIRS))
    doc = copy.deepcopy(PROBLEMS[name])
    for _ in range(draw(st.integers(1, 2))):
        path, value = draw(st.sampled_from(list(_places(doc))))
        if isinstance(value, list):
            new = draw(st.one_of(_reshaped(value), odd_values))
        elif isinstance(value, str):
            new = draw(entries)
        elif path[-1] == "trunc_order":
            new = draw(st.one_of(st.integers(-2, 8), st.none(), st.just("1/0")))
        elif isinstance(value, dict):
            new = draw(odd_values)
        else:
            new = draw(st.one_of(odd_values, expressions))
        _set(doc, path, new)
    return name, doc, command


def _mutated(name, edit):
    doc = copy.deepcopy(PROBLEMS[name])
    edit(doc)
    return doc


# the draws seldom put a huge exponent where a rational is read, so two such
# cases always run
@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cases())
@example(("wong.problem.json", _mutated(
    "wong.problem.json", lambda d: d["path"]["points"][1].__setitem__(0, "1e99999999")),
    "holonomy"))
@example(("e1.problem.json", _mutated(
    "e1.problem.json", lambda d: d["points"][0].__setitem__(0, "-1e-99999999")),
    "algebroid-check"))
def test_exit_code_contract(case):
    name, doc, command = case
    with tempfile.TemporaryDirectory() as tmp:
        problem = pathlib.Path(tmp) / name
        report = pathlib.Path(tmp) / "report.json"
        problem.write_text(json.dumps(doc))
        argv = [command, str(problem), "--report", str(report)]
        if command in NUMERIC:
            argv += ["--steps", "20"]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - t0
        entries = json.loads(report.read_text())["entries"] if report.exists() else None
    text = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert any(e["required"] and not e["passed"] for e in entries)
    assert "Traceback" not in text
    assert "internal error:" not in err.getvalue(), err.getvalue()
    assert elapsed < WALL_SECONDS


HUGE = 10 ** 400  # beyond the float range


@pytest.mark.parametrize("command, doc, message", [
    ("verify-data", _mutated("e1.problem.json", lambda d: d["chart"].update(base_dim=math.inf)),
     "bad chart section"),
    ("algebroid-check", _mutated("wong.problem.json", lambda d: d["chart"].update(base_dim=HUGE)),
     "bad chart section: more than 64 variables"),
    ("verify-data", {"chart": {"base_dim": 0, "fiber_dim": 1, "trunc_order": 2},
                     "connection": [], "vertical": [["0"]], "fform": []}, "base_dim >= 2"),
    ("decompose", {"chart": {"base_dim": 0, "fiber_dim": 1, "trunc_order": 2}, "pi": [["0"]]},
     "base_dim >= 2"),
    ("moser-flow", _mutated("e1.problem.json", lambda d: d["points"][0].__setitem__(0, HUGE)),
     "sample points must be lists of numbers"),
    ("moser-flow", _mutated("e1.problem.json", lambda d: d["phi"].__setitem__(0, "%d*x1" % HUGE)),
     "outside the float range"),
    ("holonomy", _mutated("wong.problem.json",
                          lambda d: d["path"]["points"][1].__setitem__(0, HUGE)),
     "breakpoints must lie within the float range"),
    *[("verify-data", _mutated("e1.problem.json", lambda d, f=field: d["chart"].update(f)),
       "bad chart section: %s must be an integer" % next(iter(field)))
      for field in ({"fiber_dim": 1.5}, {"base_dim": 2.9}, {"trunc_order": 6.7},
                    {"fiber_dim": True}, {"trunc_order": "6"})],
], ids=["infinite-chart-field", "huge-base-dim", "no-base-no-seed", "decompose-no-base",
        "huge-sample-point", "huge-coefficient-in-a-numeric-check", "huge-breakpoint",
        "fractional-fiber-dim", "fractional-base-dim", "fractional-trunc-order",
        "boolean-fiber-dim", "string-trunc-order"])
def test_found_faults_exit_two(command, doc, message, tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(problem)] + (["--steps", "20"] if command in NUMERIC else []))
    assert code == 2
    assert message in err.getvalue()


def test_deeply_nested_file_exits_two(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text('{"chart": %s}' % ("[" * 100000 + "]" * 100000))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify-data", str(problem)])
    assert code == 2
    assert err.getvalue().startswith("input error: problem file is not valid JSON")
