import argparse
import io
import json
import contextlib
import gc
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings
import weakref
from fractions import Fraction

import pytest

from fiberpoisson import cli, ChartSpec, algebroid, coupling
from fiberpoisson.cli import main
from fiberpoisson.report import CheckReport, InternalInvariantError

from test_moser import count_calls

ROOT = pathlib.Path(__file__).resolve().parent.parent
BROKEN_BIANCHI = str(ROOT / "problems" / "broken_bianchi.problem.json")


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def e1_problem():
    return {
        "chart": {"base_dim": 2, "fiber_dim": 1, "trunc_order": 4},
        "connection": [["0"], ["0"]],
        "vertical": [["0"]],
        "fform": [["0", "1 - x1"], ["-1 + x1", "0"]],
        "fform_inv_seed": [["0", "-1"], ["1", "0"]],
    }


def e1_algebroid_problem():
    return {
        "chart": {"base_dim": 2, "fiber_dim": 1, "trunc_order": 4},
        "omega": [["0", "1"], ["-1", "0"]],
        "omega_inv": [["0", "-1"], ["1", "0"]],
        "algebroid": {
            "lambda": [[["0"]]],
            "theta": [[["0"]], [["0"]]],
            "R": [[["0"], ["1"]], [["-1"], ["0"]]],
        },
    }


def broken_bianchi_problem():
    return {
        "chart": {"base_dim": 4, "fiber_dim": 1, "trunc_order": 3},
        "omega": [["0", "1", "0", "0"], ["-1", "0", "0", "0"],
                  ["0", "0", "0", "1"], ["0", "0", "-1", "0"]],
        "omega_inv": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                      ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
        "algebroid": {
            "lambda": [[["0"]]],
            "theta": [[["0"]], [["0"]], [["0"]], [["0"]]],
            "R": [[["0"], ["xi3"], ["0"], ["0"]],
                  [["-xi3"], ["0"], ["0"], ["0"]],
                  [["0"], ["0"], ["0"], ["0"]],
                  [["0"], ["0"], ["0"], ["0"]]],
        },
    }


class TestVerifyData:
    def test_e1_exit_zero(self, tmp_path):
        path = write(tmp_path, "e1.json", e1_problem())
        code, out, err = run(["verify-data", path])
        assert code == 0
        assert "coupling-conditions: PASS" in out
        assert out.count("[PASS]") == 4

    def test_report_file(self, tmp_path):
        path = write(tmp_path, "e1.json", e1_problem())
        report = tmp_path / "report.json"
        code, out, _ = run(["verify-data", path, "--report", str(report),
                            "--quiet"])
        assert code == 0 and out == ""
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        entry = doc["entries"][0]
        assert set(entry) >= {"name", "tag", "certified_order", "passed",
                              "residual"}

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, "e1.json", e1_problem())
        _, out1, _ = run(["verify-data", path])
        _, out2, _ = run(["verify-data", path])
        assert out1 == out2


class TestCheckJacobi:
    def test_constant_symplectic_on_fiberless_chart(self, tmp_path):
        doc = {
            "chart": {"base_dim": 2, "fiber_dim": 0, "trunc_order": 0},
            "pi": [["0", "1"], ["-1", "0"]],
        }
        path = write(tmp_path, "p.json", doc)
        code, out, _ = run(["check-jacobi", path])
        assert code == 0

    def test_nonjacobi_fails(self, tmp_path):
        doc = {
            "chart": {"base_dim": 0, "fiber_dim": 3, "trunc_order": 3},
            "pi": [["0", "x3", "0"], ["-x3", "0", "x2"], ["0", "-x2", "0"]],
        }
        path = write(tmp_path, "p.json", doc)
        code, out, _ = run(["check-jacobi", path])
        assert code == 1


class TestAssembleDecompose:
    def test_assemble_prints_tensor(self, tmp_path):
        path = write(tmp_path, "e1.json", e1_problem())
        code, out, _ = run(["assemble", path])
        assert code == 0
        assert "1 + x1 + x1^2 + x1^3 + x1^4" in out

    def test_order_override(self, tmp_path):
        path = write(tmp_path, "e1.json", e1_problem())
        code, out, _ = run(["assemble", path, "--order", "2"])
        assert code == 0
        assert "1 + x1 + x1^2" in out and "x1^3" not in out

    def test_decompose(self, tmp_path):
        doc = e1_problem()
        n = 3
        doc["chart"]["trunc_order"] = n
        doc["pi"] = [["0", "1 + x1 + x1^2 + x1^3", "0"],
                     ["-1 - x1 - x1^2 - x1^3", "0", "0"],
                     ["0", "0", "0"]]
        path = write(tmp_path, "p.json", doc)
        code, out, _ = run(["decompose", path])
        assert code == 0
        assert "fform: (1 - x1)*dxi1^dxi2" in out


class TestAlgebroidCommands:
    def test_check_passes(self, tmp_path):
        path = write(tmp_path, "a.json", e1_algebroid_problem())
        code, out, _ = run(["algebroid-check", path])
        assert code == 0

    def test_broken_bianchi_fails_with_residual(self, tmp_path):
        path = write(tmp_path, "a.json", broken_bianchi_problem())
        code, out, _ = run(["algebroid-check", path])
        assert code == 1
        assert "[FAIL] bianchi" in out
        assert "residual" in out

    def test_full_dimension_points_give_base_points(self, tmp_path):
        doc = e1_algebroid_problem()
        doc["points"] = [[0.3, -0.2]]
        base = run(["algebroid-check", write(tmp_path, "b.json", doc)])
        doc["points"] = [[0.3, -0.2, 0.08]]
        full = run(["algebroid-check", write(tmp_path, "f.json", doc)])
        assert full == base
        assert "point-3/10,-1/5" in full[1]

    def test_points_of_other_lengths_rejected(self, tmp_path):
        doc = e1_algebroid_problem()
        for bad in ([0.3], [0.3, -0.2, 0.08, 1.0]):
            doc["points"] = [bad]
            code, _, err = run(["algebroid-check", write(tmp_path, "p.json", doc)])
            assert code == 2
            assert "base dimension" in err

    def test_build(self, tmp_path):
        path = write(tmp_path, "a.json", e1_algebroid_problem())
        code, out, _ = run(["algebroid-build", path])
        assert code == 0
        assert "1 + x1 + x1^2 + x1^3 + x1^4" in out

    def test_connection_change(self, tmp_path):
        doc = e1_algebroid_problem()
        doc["mu"] = [["xi2^2"], ["xi1"]]
        path = write(tmp_path, "a.json", doc)
        code, out, _ = run(["connection-change", path])
        assert code == 0
        assert "connection-change-equivalence: PASS" in out

    def test_cocycle_zero_for_defining_relation(self, tmp_path):
        doc = e1_algebroid_problem()
        doc["mu"] = [["xi2^2"], ["xi1"]]
        # R' = R + d(mu) for the abelian fiber: gains 1 - 2 xi2
        doc["algebroid2"] = {
            "lambda": [[["0"]]],
            "theta": [[["0"]], [["0"]]],
            "R": [[["0"], ["2 - 2*xi2"]], [["-2 + 2*xi2"], ["0"]]],
        }
        path = write(tmp_path, "a.json", doc)
        code, out, _ = run(["cocycle", path])
        assert code == 0
        assert "cocycle (fiber pairing): 0" in out

    def test_cocycle_inadmissible_reference_exits_two(self, tmp_path):
        doc = broken_bianchi_problem()
        doc["algebroid2"] = doc["algebroid"]
        doc["mu"] = [["0"]] * 4
        code, out, err = run(["cocycle", write(tmp_path, "c.json", doc)])
        assert (code, out) == (2, "")
        assert "relative_cocycle requires admissible reference data" in err

    def test_cocycle_inadmissible_changed_data_exits_one(self, tmp_path):
        # the Wong pair with a term added to algebroid2 that breaks its
        # curvature and Bianchi identities
        doc = json.loads((ROOT / "problems" / "wong.problem.json").read_text())
        problem = cli.Problem(doc)
        a2 = algebroid.change_connection(problem.algebroid(), problem.mu())
        rendered = [[[x.render() for x in cell] for cell in row] for row in a2.R]
        rendered[0][1][0] = "%s + xi3" % rendered[0][1][0]
        rendered[1][0][0] = "%s - xi3" % rendered[1][0][0]
        doc["algebroid2"] = {"lambda": doc["algebroid"]["lambda"], "R": rendered,
                             "theta": [[[x.render() for x in cell] for cell in row]
                                       for row in a2.theta]}
        code, out, _ = run(["cocycle", write(tmp_path, "w.json", doc)])
        assert code == 1
        assert "[FAIL] covariantly-closed" in out


def test_reading_entries_leaves_no_reference_cycle():
    # a cycle would keep each problem and its document alive until a full
    # garbage collection, which runs rarely in a process that parses a lot
    problem = cli.Problem(e1_problem())
    gc.disable()
    try:
        problem.geometric_data()
        ref = weakref.ref(problem)
        del problem
        assert ref() is None
    finally:
        gc.enable()


class TestMoserCommands:
    def moser_problem(self):
        doc = e1_problem()
        doc["chart"]["trunc_order"] = 6
        doc["phi"] = ["x1*xi2", "0"]
        doc["points"] = [[0.3, -0.2, 0.08]]
        return doc

    def test_moser_verify(self, tmp_path):
        path = write(tmp_path, "m.json", self.moser_problem())
        code, out, _ = run(["moser-verify", path])
        assert code == 0
        assert "reduced-identity-in-t" in out
        assert "deformation-at-t=1/2" in out

    def test_moser_verify_custom_samples(self, tmp_path):
        path = write(tmp_path, "m.json", self.moser_problem())
        code, out, _ = run(["moser-verify", path, "--t-samples", "0,1/3,1"])
        assert code == 0
        assert "deformation-at-t=1/3" in out

    def test_moser_verify_checks_each_sample_once(self):
        code, out, _ = run(["moser-verify", str(ROOT / "problems/e1.problem.json"),
                            "--t-samples", "0,0,1/2,0.5"])
        assert code == 0
        assert re.findall(r"deformation-at-t=\S+", out) == ["deformation-at-t=0",
                                                             "deformation-at-t=1/2"]

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("path", ["tests/data/wong_family.problem.json",
                                      "problems/e1.problem.json"])
    def test_moser_verify_at_low_orders(self, path, order):
        code, out, _ = run(["moser-verify", str(ROOT / path), "--order", str(order)])
        assert code == 0, out
        assert "[FAIL]" not in out

    def test_moser_flow(self, tmp_path):
        path = write(tmp_path, "m.json", self.moser_problem())
        code, out, _ = run(["moser-flow", path, "--steps", "100"])
        assert code == 0

    def test_moser_flow_points_file(self, tmp_path):
        path = write(tmp_path, "m.json", self.moser_problem())
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[0.1, 0.2, 0.02]]))
        code, out, _ = run(["moser-flow", path, "--steps", "50",
                            "--points", str(pts)])
        assert code == 0

    def test_moser_flow_singular_two_form_exits_one(self, tmp_path):
        # F_1 = 1 + 2*xi1 on the zero section vanishes at the first point,
        # where the last step ends; the second point is still checked
        doc = {"chart": {"base_dim": 2, "fiber_dim": 2, "trunc_order": 3},
               "connection": [["0", "0"], ["0", "0"]],
               "vertical": [["0", "-1 + 3*x2 - 1/2*x1"], ["1 - 3*x2 + 1/2*x1", "0"]],
               "fform": [["0", "1"], ["-1", "0"]],
               "phi": ["2*xi1*x1 + 3*xi1*x1^2", "x2"],
               "points": [[-0.5, 0, 0, 0], [0.1, 0.1, 0.05, 0]]}
        code, out, err = run(["moser-flow", write(tmp_path, "p.json", doc), "--steps", "8"])
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[1].startswith("  [FAIL] point-(-0.5,0,0,0) ")
        assert lines[1].endswith("residual: family 2-form singular at step 7")
        assert lines[2].startswith("  [PASS] point-(0.1,0.1,0.05,0) ")


class TestLinearizeCommands:
    def test_linearize(self, tmp_path):
        doc = e1_problem()
        doc["fform"] = [["0", "1 - x1 + 2*x1^2"], ["-1 + x1 - 2*x1^2", "0"]]
        path = write(tmp_path, "l.json", doc)
        code, out, _ = run(["linearize", path])
        assert code == 0
        assert "fform: (1 - x1)*dxi1^dxi2" in out

    def test_extract(self, tmp_path):
        path = write(tmp_path, "l.json", e1_problem())
        code, out, _ = run(["extract-algebroid", path])
        assert code == 0
        assert "omega[1][2] = 1" in out


    @pytest.mark.parametrize("command", ["linearize", "extract-algebroid"])
    def test_input_failing_coupling_conditions_exits_one(self, command, tmp_path):
        out_file = tmp_path / "r.json"
        code, out, err = run([command, BROKEN_BIANCHI, "--report", str(out_file)])
        assert (code, err) == (1, "")
        assert "[FAIL] covariant-closedness" in out
        assert json.loads(out_file.read_text())["title"] == "coupling-conditions"

    @pytest.mark.parametrize("command, target", [("linearize", "linearize_data"),
                                                 ("extract-algebroid", "extract_algebroid")])
    def test_failing_output_of_verified_input_exits_three(self, command, target,
                                                          tmp_path, monkeypatch):
        def broken(data):
            raise InternalInvariantError("derived data fails")
        monkeypatch.setattr(cli, target, broken)
        code, _, err = run([command, write(tmp_path, "l.json", e1_problem())])
        assert code == 3
        assert "internal invariant violation" in err


class TestHolonomyCommand:
    def test_holonomy(self, tmp_path):
        doc = {
            "chart": {"base_dim": 2, "fiber_dim": 3, "trunc_order": 3},
            "omega": [["0", "1"], ["-1", "0"]],
            "omega_inv": [["0", "-1"], ["1", "0"]],
            "algebroid": {
                "lambda": [
                    [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]],
                    [["0", "0", "-1"], ["0", "0", "0"], ["1", "0", "0"]],
                    [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
                ],
                "theta": [[["0"] * 3] * 3, [["0"] * 3] * 3],
                "R": [[["0"] * 3, ["0"] * 3], [["0"] * 3, ["0"] * 3]],
            },
            "mu": [["2", "-1", "1/2"], ["0", "0", "0"]],
            "path": {"points": [["0", "0"], ["1", "0"]]},
        }
        path = write(tmp_path, "h.json", doc)
        code, out, _ = run(["holonomy", path, "--steps", "500"])
        assert code == 0
        assert "holonomy-comparison: PASS" in out

    @pytest.mark.parametrize("steps", ["100", "1000"])
    def test_non_finite_transport_fails(self, steps, tmp_path):
        # the fields overflow along the path: the deviation is NaN, which must
        # fail the comparison rather than drop out of the maximum
        doc = json.loads((ROOT / "problems" / "wong.problem.json").read_text())
        doc["path"] = {"points": [["0"] * 4, ["1e200"] * 4]}
        path = write(tmp_path, "far.json", doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["holonomy", path, "--steps", steps, "--tol", "1"])
        assert code == 1
        assert "holonomy-comparison: FAIL" in out
        assert "residual: transport not finite at step 0" in out
        assert err == "" and caught == []


class TestErrorPaths:
    def test_missing_file(self):
        code, _, err = run(["verify-data", "/nonexistent/problem.json"])
        assert code == 2

    def test_bad_expression(self, tmp_path):
        doc = e1_problem()
        doc["fform"][0][1] = "1 - y1"
        path = write(tmp_path, "bad.json", doc)
        code, _, err = run(["verify-data", path])
        assert code == 2
        assert "input error" in err

    def test_unwritable_report_file(self, tmp_path):
        report = tmp_path / "missing" / "x.json"
        code, _, err = run(["check-jacobi", str(ROOT / "problems" / "wong_pair.problem.json"),
                            "--quiet", "--report", str(report)])
        assert code == 2
        assert err.startswith("input error: cannot write report file: [Errno 2]")
        assert err.count("\n") == 1 and not report.exists()

    def test_check_failure_exit_one(self, tmp_path):
        doc = e1_problem()
        doc["vertical"] = [["0"]]
        doc["connection"] = [["xi2*x1"], ["0"]]
        path = write(tmp_path, "f.json", doc)
        code, out, _ = run(["verify-data", path])
        assert code == 1

    def test_bad_chart(self, tmp_path):
        path = write(tmp_path, "c.json", {"chart": {"base_dim": 3,
                                                    "fiber_dim": 1,
                                                    "trunc_order": 2}})
        code, _, err = run(["verify-data", path])
        assert code == 2

    @pytest.mark.parametrize("argv", [[], ["--order", "4"]])
    def test_malformed_trunc_order_exits_two_under_order_override(self, argv, tmp_path):
        doc = json.loads((ROOT / "problems" / "e1.problem.json").read_text())
        doc["chart"]["trunc_order"] = "six"
        code, _, err = run(["verify-data", write(tmp_path, "six.json", doc)] + argv)
        assert code == 2
        assert "bad chart section: trunc_order must be an integer, got 'six'" in err

    def test_order_override_without_trunc_order(self, tmp_path):
        doc = json.loads((ROOT / "problems" / "e1.problem.json").read_text())
        del doc["chart"]["trunc_order"]
        path = write(tmp_path, "none.json", doc)
        assert run(["verify-data", path])[0] == 2
        assert run(["verify-data", path, "--order", "4"])[0] == 0

    def test_integral_float_chart_fields_accepted(self, tmp_path):
        doc = e1_problem()
        doc["chart"] = {"base_dim": 2.0, "fiber_dim": 1.0, "trunc_order": 4.0}
        assert run(["verify-data", write(tmp_path, "c.json", doc)]) \
            == run(["verify-data", write(tmp_path, "i.json", e1_problem())])


class TestOneVerdictPerObject:
    """Each data set is verified once: commands and library functions read
    the verdict the data object caches."""

    @pytest.mark.parametrize("command, path, admissibility, conditions, changes", [
        ("connection-change", "problems/wong.problem.json", 2, 0, 1),
        ("algebroid-build", "problems/wong.problem.json", 1, 0, 0),
        ("extract-algebroid", "problems/e1.problem.json", 1, 1, 0),
        ("linearize", "problems/e1.problem.json", 0, 2, 0),
        ("moser-verify", "tests/data/wong_family.problem.json", 0, 6, 0),
    ])
    def test_calls_per_command(self, command, path, admissibility, conditions, changes,
                               monkeypatch):
        counts = [count_calls(monkeypatch, algebroid, "check_admissible"),
                  count_calls(monkeypatch, coupling, "verify_coupling_conditions"),
                  count_calls(monkeypatch, algebroid, "change_connection")]
        assert run([command, str(ROOT / path), "--quiet"])[0] == 0
        assert [len(c) for c in counts] == [admissibility, conditions, changes]


class TestParserReuse:
    def test_no_argument_state_leaks_between_calls(self, tmp_path, monkeypatch):
        seen = []

        def spy(problem, args):
            seen.append((args.command, args.steps, args.tol, args.order, args.quiet))
            return CheckReport("spy"), []
        monkeypatch.setitem(cli.COMMANDS, "holonomy", spy)
        monkeypatch.setitem(cli.COMMANDS, "moser-flow", spy)
        path = write(tmp_path, "p.json", e1_problem())
        run(["holonomy", path, "--steps", "7", "--tol", "0.5", "--order", "2", "--quiet"])
        run(["holonomy", path, "--steps", "9", "--tol", "0.25"])
        run(["holonomy", path])
        run(["moser-flow", path])
        assert seen == [("holonomy", 7, 0.5, 2, True),
                        ("holonomy", 9, 0.25, None, False),
                        ("holonomy", 1000, 1e-8, None, False),
                        ("moser-flow", 1000, 1e-6, None, False)]


def readme_examples():
    """(argv, documented exit code) for each example command in the README."""
    text = (ROOT / "README.md").read_text()
    block = text.split("Ready-to-run examples")[1].split("```sh")[1].split("```")[0]
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        documented = re.search(r"exits (\d)", comment)
        yield command.split()[1:], int(documented.group(1)) if documented else 0


@pytest.mark.parametrize("argv, code", list(readme_examples()),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_readme_example(argv, code, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(argv)[0] == code


class TestNumericFlags:
    """Bad --steps and --tol values are rejected by the argument parser
    (exit 2) before any problem file is read."""

    @pytest.mark.parametrize("command", ["moser-flow", "holonomy"])
    @pytest.mark.parametrize("flags", [["--steps", "0"], ["--steps", "-5"],
                                       ["--steps", "abc"], ["--steps", "2.5"],
                                       ["--tol", "nan"], ["--tol", "inf"],
                                       ["--tol", "-inf"], ["--tol", "0"],
                                       ["--tol", "-1e-6"], ["--tol", "abc"]])
    def test_rejected_with_exit_two(self, command, flags, tmp_path):
        path = write(tmp_path, "p.json", e1_problem())
        with pytest.raises(SystemExit) as exc:
            run([command, path] + flags)
        assert exc.value.code == 2

    def test_positive_values_accepted(self):
        args = cli._parser().parse_args(["holonomy", "p.json", "--steps", "1",
                                         "--tol", "1e-300"])
        assert (args.steps, args.tol) == (1, 1e-300)
        assert isinstance(args.steps, int)


class TestFlagSurface:
    """Every command takes problem, --order, --report and --quiet; the other
    flags only where the command reads them, and argparse refuses any other
    flag with exit 2."""

    COMMON = ("--order", "--report", "--quiet")
    DECLARED = {"moser-verify": ("--t-samples",),
                "moser-flow": ("--steps", "--points", "--tol"),
                "holonomy": ("--steps", "--tol")}
    VALUES = {"--order": ["2"], "--report": ["r.json"], "--quiet": [],
              "--t-samples": ["0,1"], "--steps": ["5"], "--points": ["p.json"],
              "--tol": ["0.5"]}

    @pytest.mark.parametrize("flag", sorted(VALUES))
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_a_flag_parses_exactly_when_declared(self, command, flag):
        argv = [command, "p.json", flag] + self.VALUES[flag]
        if flag in self.COMMON or flag in self.DECLARED.get(command, ()):
            assert cli.build_parser().parse_args(argv).command == command
        else:
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_readme_table_matches_the_parser(self):
        # each command's flags besides the common ones, with their defaults
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        parsed = {name: {a.option_strings[-1]: a.default for a in p._actions
                         if set(a.option_strings) - {"-h", "--help", *self.COMMON}}
                  for name, p in subparsers.choices.items()}
        text = (ROOT / "README.md").read_text()
        rows = text.split("| command | flags besides")[1].split("\n\n")[0].splitlines()[2:]
        documented = {}
        for row in rows:
            command, flags = (cell.strip() for cell in row.strip("|").split("|"))
            documented[command.strip("`")] = {
                flag: float(default) if default else None
                for flag, default in re.findall(r"`(--[a-z-]+)`(?: \(default ([^)]+)\))?", flags)}
        assert documented == parsed


class TestConstantBlockInverseCallers:
    """Without a seed, ``block_inverse`` inverts the fiber-constant block."""

    def test_geometric_data_computes_the_file_seed(self):
        data = cli.Problem.load(str(ROOT / "problems" / "e1.problem.json")).geometric_data()
        computed = coupling.GeometricData(data.connection, data.vertical, data.fform, None)
        for seed in (data.fform_inv_seed, computed.fform_inv_seed):
            assert [[s.render() for s in row] for row in seed] == [["0", "-1"], ["1", "0"]]

    @pytest.mark.parametrize("fform, code, message", [
        ([["0", "1 - x1"], ["-1 + x1", "0"]], 0, ""),
        ([["0", "1 + xi1"], ["-1 - xi1", "0"]], 2, "supply fform_inv_seed"),
        ([["0", "x1"], ["-x1", "0"]], 2, "fform: fiber-constant part is singular"),
    ])
    def test_verify_data_without_seed(self, fform, code, message, tmp_path):
        doc = e1_problem()
        del doc["fform_inv_seed"]
        doc["fform"] = fform
        got, _, err = run(["verify-data", write(tmp_path, "p.json", doc)])
        assert got == code
        assert message in err

    @pytest.mark.parametrize("entry, message", [("1 + xi1", "supply fform0"),
                                                ("x1", "is singular")])
    def test_decompose_without_fform0(self, entry, message, tmp_path):
        doc = {"chart": {"base_dim": 2, "fiber_dim": 1, "trunc_order": 3},
               "pi": [["0", entry, "0"], ["-(%s)" % entry, "0", "0"], ["0", "0", "0"]]}
        code, _, err = run(["decompose", write(tmp_path, "p.json", doc)])
        assert code == 2
        assert message in err


class TestMalformedShapes:
    """A value of the wrong shape, type or symmetry is bad input (exit 2),
    never a traceback."""

    @pytest.mark.parametrize("command, key, value, message", [
        ("verify-data", "fform", 5, "'fform' must be a list of shape 2x2"),
        ("verify-data", "fform", [5, 6], "'fform' must be a list of shape 2x2"),
        ("verify-data", "fform", [["0", ["1"]], ["-1", "0"]], "fform[0][1]: expected"),
        ("verify-data", "fform", [["0", 1e400], ["-1", "0"]], "fform[0][1]: expected"),
        ("moser-verify", "phi", 5, "'phi' must be a list of shape 2"),
        ("moser-verify", "phi", ["x1*xi2", "0", "0"], "'phi' must be a list of shape 2"),
        ("moser-flow", "points", [[None, 1, 2]], "sample points must be lists of numbers"),
        ("moser-flow", "points", [5], "sample points must be lists of numbers"),
        ("algebroid-check", "algebroid", 5, "'algebroid' section must be an object"),
        ("algebroid-check", "points", 5, "sample points must be lists of numbers"),
        ("algebroid-check", "points", [[0.3, "1/0", 0.08]], "points[0][1]: not a rational"),
        ("verify-data", "vertical", [["1"]], "vertical: matrix must have zero diagonal"),
        ("verify-data", "fform", [["0", "1"], ["1", "0"]], "fform: matrix must be antisymmetric"),
        ("check-jacobi", "pi", [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
         "pi: matrix must be antisymmetric"),
        ("moser-flow", "points", [[float("nan"), 0.1, 0.1]], "sample point 0 is not finite"),
        ("moser-flow", "points", [[0.1, 0.1, 0.1], [float("inf"), 0.1, 0.1]],
         "sample point 1 is not finite"),
        ("moser-flow", "points", [[0.1, "-inf", 0.1]], "sample point 0 is not finite"),
    ])
    def test_exit_two(self, command, key, value, message, tmp_path):
        doc = json.loads((ROOT / "problems" / "e1.problem.json").read_text())
        doc[key] = value
        steps = ["--steps", "10"] if command in ("moser-flow", "holonomy") else []
        code, _, err = run([command, write(tmp_path, "p.json", doc)] + steps)
        assert code == 2
        assert message in err

    def test_algebroid_cube_shape(self, tmp_path):
        doc = e1_algebroid_problem()
        doc["algebroid"]["theta"] = [[["0"]]]
        code, _, err = run(["algebroid-check", write(tmp_path, "p.json", doc)])
        assert code == 2
        assert "'theta' must be a list of shape 2x1x1" in err

    def test_omega_is_read_at_the_top_level_only(self, tmp_path):
        doc = e1_algebroid_problem()
        doc["algebroid"]["omega"] = doc.pop("omega")
        code, _, err = run(["algebroid-check", write(tmp_path, "p.json", doc)])
        assert code == 2
        assert "problem file needs a 'omega' matrix" in err

    @pytest.mark.parametrize("text", ["(" * 3000 + "0" + ")" * 3000, "-" * 3000 + "0"],
                             ids=["parentheses", "unary-minus"])
    def test_deep_nesting(self, text, tmp_path):
        doc = e1_problem()
        doc["connection"][0][0] = text
        code, _, err = run(["verify-data", write(tmp_path, "p.json", doc)])
        assert code == 2
        assert "connection[0][0]: expression nested deeper than" in err


class TestRationalEntries:
    """Rational entries outside expression strings (path points, base
    points, --t-samples) go through one reader: a bad one, a zero
    denominator included, exits 2 naming the key or flag."""

    def test_t_samples_zero_denominator(self):
        code, _, err = run(["moser-verify", str(ROOT / "problems" / "e1.problem.json"),
                            "--t-samples", "0,1/0"])
        assert code == 2
        assert err.startswith("input error: --t-samples[1]: ")

    def test_path_point_zero_denominator(self, tmp_path):
        doc = json.loads((ROOT / "problems" / "wong.problem.json").read_text())
        doc["path"]["points"][1][1] = "1/0"
        code, _, err = run(["holonomy", write(tmp_path, "p.json", doc), "--steps", "20"])
        assert code == 2
        assert err.startswith("input error: path.points[1][1]: ")

    @pytest.mark.parametrize("closed", ["false", 0, None])
    def test_closed_must_be_a_boolean(self, closed, tmp_path):
        doc = json.loads((ROOT / "problems" / "wong.problem.json").read_text())
        doc["path"]["closed"] = closed
        code, _, err = run(["holonomy", write(tmp_path, "p.json", doc), "--steps", "20"])
        assert code == 2
        assert err.startswith("input error: path.closed must be true or false")

    def test_closed_false_accepted(self, tmp_path):
        doc = json.loads((ROOT / "problems" / "wong.problem.json").read_text())
        doc["path"]["closed"] = False
        code, _, _ = run(["holonomy", write(tmp_path, "p.json", doc), "--steps", "20",
                          "--tol", "1"])
        assert code == 0


def _breakpoint(tmp_path, value):
    doc = json.loads((ROOT / "problems" / "wong.problem.json").read_text())
    doc["path"]["points"][1][0] = value
    return ["holonomy", write(tmp_path, "p.json", doc), "--steps", "20"]


def _base_point(tmp_path, value):
    doc = json.loads((ROOT / "problems" / "e1.problem.json").read_text())
    doc["points"][0][0] = value
    return ["algebroid-check", write(tmp_path, "p.json", doc)]


def _t_sample(tmp_path, value):
    return ["moser-verify", str(ROOT / "problems" / "e1.problem.json"), "--t-samples",
            "0," + value]


class TestDigitBound:
    """A rational entry outside the grammar whose numerator or denominator
    would have more than parse.MAX_DIGITS digits is refused before it is
    built: an exponent is no way around the grammar's bound."""

    @pytest.mark.parametrize("value", ["1e10000000", "1e999999999", "-1e-99999999",
                                       "0E99999999"])
    @pytest.mark.parametrize("argv_with, where", [(_breakpoint, "path.points[1][0]"),
                                                  (_base_point, "points[0][0]"),
                                                  (_t_sample, "--t-samples[1]")],
                             ids=["breakpoint", "base-point", "t-sample"])
    def test_exit_two_fast(self, argv_with, where, value, tmp_path):
        argv = argv_with(tmp_path, value)
        t0 = time.perf_counter()
        code, _, err = run(argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert err == "input error: %s: numerator or denominator past 4300 digits\n" % where

    def test_the_bound_itself_is_read(self):
        values = ["1e4299", "-1e-4299", "9" * 4300, "1/" + "9" * 4300, "0.5e-4299"]
        assert cli._rationals(values, "x") == [Fraction(v) for v in values]
        for value in ("1e4300", "-1e-4300", "10e4299"):
            with pytest.raises(cli.InputError, match=r"^x\[0\]: numerator or denominator past"):
                cli._rationals([value], "x")

    @pytest.mark.parametrize("points_file", [False, True], ids=["problem-file", "points-file"])
    def test_json_integer_past_the_digit_limit(self, points_file, tmp_path):
        path, big = tmp_path / "f.json", "1" * 5000
        if points_file:
            path.write_text("[[%s, 0, 0]]" % big)
            argv = ["moser-flow", str(ROOT / "problems" / "e1.problem.json"), "--points", str(path)]
            message = "input error: cannot read points file: "
        else:
            path.write_text('{"chart": {"base_dim": %s}}' % big)
            argv = ["verify-data", str(path)]
            message = "input error: problem file is not valid JSON: "
        code, _, err = run(argv)
        assert code == 2
        assert err.startswith(message)


class TestParserBounds:
    """Exponents above parse.MAX_EXPONENT and products above parse.MAX_TERMS
    are bad input, refused before the work is done."""

    @pytest.mark.parametrize("text", ["1 + xi1^100000000", "(1+x1+xi1)^2000",
                                      "((1+xi1)^64)^64"],
                             ids=["huge-exponent", "trinomial-power", "nested-power"])
    def test_exit_two_fast(self, text, tmp_path):
        doc = json.loads((ROOT / "problems" / "e1.problem.json").read_text())
        doc["connection"][0][0] = text
        path = write(tmp_path, "p.json", doc)
        t0 = time.perf_counter()
        code, _, err = run(["verify-data", path])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert "connection[0][0]: " in err and "(at position" in err


class TestExactRing:
    def test_exponent_overflow_exits_two(self, tmp_path):
        # the Neumann inverse of this 2-form holds xi1^(99 m) x1^m at fiber
        # degree m: past the ring's 16-bit exponent field from m = 662 on
        doc = e1_problem()
        doc["fform"] = [["0", "1 + xi1^99*x1"], ["-1 - xi1^99*x1", "0"]]
        path = write(tmp_path, "p.json", doc)
        assert run(["assemble", path, "--order", "600"])[0] == 0
        code, out, err = run(["assemble", path, "--order", "700"])
        assert (code, out) == (2, "")
        assert err == "input error: a product's exponent would exceed 65535\n"

    def test_each_neumann_seed_checked_once(self, monkeypatch):
        # one check per data set built (the base data and five samples); the
        # Neumann expansions reuse those checks
        from fiberpoisson import series
        calls = []
        original = series.mat_is_inverse
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("fiberpoisson")
                    and getattr(mod, "mat_is_inverse", None) is original):
                monkeypatch.setattr(mod, "mat_is_inverse",
                                    lambda A, B: calls.append(1) or original(A, B))
        path = str(ROOT / "tests" / "data" / "wong_family.problem.json")
        assert run(["moser-verify", path])[0] == 0
        assert len(calls) == 6


class TestCatchAll:
    def test_unexpected_exception_exits_three(self, monkeypatch):
        def boom(problem, args):
            raise RuntimeError("boom")
        monkeypatch.setitem(cli.COMMANDS, "verify-data", boom)
        code, out, err = run(["verify-data", str(ROOT / "problems" / "e1.problem.json")])
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(problem, args):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli.COMMANDS, "verify-data", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(["verify-data", str(ROOT / "problems" / "e1.problem.json")])


def test_numeric_commands_evaluate_no_single_series(monkeypatch, tmp_path):
    # both numeric checks go through compiled evaluators, never the
    # one-series evaluate_float
    from fiberpoisson import FiberSeries
    calls = []
    original = FiberSeries.evaluate_float
    monkeypatch.setattr(FiberSeries, "evaluate_float",
                        lambda self, point: calls.append(point) or original(self, point))
    points = write(tmp_path, "points.json", [[0.1, -0.2, 0.1, 0.2, -0.1, 0.05, 0.1]])
    for argv in (["moser-flow", str(ROOT / "problems" / "e1.problem.json"), "--steps", "20"],
                 ["moser-flow", str(ROOT / "tests" / "data" / "wong_family.problem.json"),
                  "--points", points, "--steps", "5", "--tol", "1"],
                 ["holonomy", str(ROOT / "problems" / "wong.problem.json"), "--steps", "50",
                  "--tol", "1"]):
        assert run(argv)[0] == 0
    assert calls == []
    FiberSeries.constant(ChartSpec(2, 1, 2), 3).evaluate_float([0.0, 0.0, 0.0])
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["moser-verify", str(ROOT / "tests" / "data" / "wong_family.problem.json")],
    ["algebroid-check", BROKEN_BIANCHI],
], ids=["passing", "failing"])
def test_a_closed_stdout_pipe_stops_the_printing_only(argv, tmp_path):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails: no traceback, the report is still written, and
    # the exit code is the verdict's, as in a --quiet run
    read_end, write_end = os.pipe()
    os.close(read_end)
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        proc = subprocess.run([sys.executable, "-m", "fiberpoisson.cli", *argv,
                               "--report", str(report)], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == run(argv + ["--quiet"])[0]
    assert json.loads(report.read_text())["passed"] == (proc.returncode == 0)
