"""
Command-line front end: problem-file ingestion, command dispatch, and
report emission.

A problem file is a single JSON document.  Every coefficient entry is an
expression string in the input grammar (see ``parse``).  Exit codes:
0 all requested checks pass, 1 a check failed, 2 input or parse error,
3 internal invariant violation.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import combinations, product

from .series import ChartSpec
from .parse import parse_series, ParseError, MAX_DIGITS
from .multivector import Multivector, HForm, jacobiator
from .connection import Connection
from .coupling import GeometricData, assemble, decompose
from .algebroid import (AlgebroidData, ConnectionChange, check_admissible,
                        build_coupling, change_connection,
                        verify_connection_equivalence, relative_cocycle,
                        cocycle_hform, coisotropy_check)
from .moser import (PhiForm, build_family, verify_deformation_equation,
                    numeric_pullback_check, DEFAULT_T_SAMPLES)
from .linearize import linearize_data, extract_algebroid
from .holonomy import BasePath, holonomy_compare
from .report import CheckReport, InternalInvariantError

MAX_VARS = 64  # chart variables: every monomial stores one exponent per variable


class InputError(ValueError):
    pass


@contextlib.contextmanager
def _naming(key):
    """Report a ValueError raised for the entries at ``key`` as an input
    error that names the key; input errors pass through unchanged."""
    try:
        yield
    except InputError:
        raise
    except ValueError as exc:
        raise InputError("%s: %s" % (key, exc))


def _read_json(path, unreadable, invalid):
    """The JSON document at ``path``, or the input error ``unreadable`` or ``invalid``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(unreadable % exc)
    except (ValueError, RecursionError) as exc:  # a number past CPython's digit limit too
        raise InputError(invalid % exc)


def _rationals(values, where):
    """A list of JSON numbers or strings such as "-3/4" or "1.5e-3" as exact rationals;
    anything else, a zero denominator or a numerator or denominator past
    parse.MAX_DIGITS digits (refused before it is built), is an input error naming ``where``."""
    if not isinstance(values, list):
        raise InputError("%s: expected a list of numbers, got %r" % (where, values))
    out = []
    for k, v in enumerate(values):
        mantissa, _, exp = str(v).lower().partition("e")  # Fraction would build 10**exp
        try:
            # first counted on the text, numerator, denominator and exponent apart,
            # so no integer past the bound is built whatever the interpreter's
            # integer-string limit; then on the reduced fraction and the exponent
            past = max(sum(map(str.isdecimal, part))
                       for part in (*mantissa.split("/", 1), exp)) > MAX_DIGITS
            if not past:
                q, exp = Fraction(mantissa), int(exp or 0)
                past = max(len(str(abs(q.numerator))) + max(exp, 0),
                           len(str(q.denominator)) - min(exp, 0)) > MAX_DIGITS
            if past:
                raise OverflowError("numerator or denominator past %d digits" % MAX_DIGITS)
            out.append(Fraction(str(v)))
        except OverflowError as exc:
            raise InputError("%s[%d]: %s" % (where, k, exc))
        except (ValueError, ZeroDivisionError):
            raise InputError("%s[%d]: not a rational number: %r" % (where, k, v))
    return out


def _chart_int(chart, key):
    """A chart field: a JSON integer, or an integral float such as 4.0."""
    value = chart[key]
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError("%s must be an integer, got %r" % (key, value))


def _fits(value, dims):
    return not dims or (isinstance(value, list) and len(value) == dims[0]
                        and all(_fits(v, dims[1:]) for v in value))


class Problem:
    def __init__(self, doc, order_override=None):
        if not isinstance(doc, dict) or "chart" not in doc:
            raise InputError("problem file has no 'chart' section")
        c = doc["chart"]
        try:
            # the file's order is checked even when --order overrides it
            if order_override is None or "trunc_order" in c:
                trunc = _chart_int(c, "trunc_order")
            if order_override is not None:
                trunc = int(order_override)
            self.chart = ChartSpec(_chart_int(c, "base_dim"), _chart_int(c, "fiber_dim"), trunc)
            if self.chart.n_vars > MAX_VARS:
                raise ValueError("more than %d variables" % MAX_VARS)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError("bad chart section: %s" % exc)
        self.doc = doc
        self.terms = {}  # parse memo: each distinct whole term of the file, on this chart

    @classmethod
    def load(cls, path, order_override=None):
        return cls(_read_json(path, "cannot read problem file: %s",
                              "problem file is not valid JSON: %s"), order_override)

    # -- entry readers -------------------------------------------------

    def _expr(self, text, where):
        if type(text) is int or (isinstance(text, float) and text.is_integer()):
            text = str(int(text))
        if not isinstance(text, str):
            raise InputError("%s: expected an expression string, got %r" % (where, text))
        try:
            return parse_series(text, self.chart, self.terms)
        except ParseError as exc:
            raise InputError("%s: %s" % (where, exc))

    def array(self, key, shape, doc=None, missing="problem file needs a %r matrix"):
        """
        The entries at ``key``: nested lists of exactly ``shape``, checked
        before any entry is parsed.  An absent key raises ``missing``
        (formatted with the key), or gives None when ``missing`` is None.
        """
        doc = self.doc if doc is None else doc
        if key not in doc:
            if missing is None:
                return None
            raise InputError(missing % key)
        if not _fits(doc[key], shape):
            raise InputError("%r must be a list of shape %s"
                             % (key, "x".join(str(d) for d in shape)))
        return self._entries(doc[key], shape, key)

    def _entries(self, value, dims, where):
        # not a recursive closure, whose reference cycle would keep the
        # problem and its document alive until a full garbage collection
        if not dims:
            return self._expr(value, where)
        return [self._entries(v, dims[1:], "%s[%d]" % (where, k)) for k, v in enumerate(value)]

    def geometric_data(self):
        b, r = self.chart.base_dim, self.chart.fiber_dim
        gamma = self.array("connection", (b, r))
        with _naming("vertical"):
            vertical = Multivector.from_matrix(self.chart, self.array("vertical", (r, r)),
                                               offset=b)
        fmat = self.array("fform", (b, b))
        with _naming("fform"):
            return GeometricData(Connection(self.chart, gamma), vertical,
                                 HForm.from_matrix(self.chart, fmat),
                                 self.array("fform_inv_seed", (b, b), missing=None))

    def bivector(self):
        n = self.chart.n_vars
        with _naming("pi"):
            return Multivector.from_matrix(self.chart, self.array("pi", (n, n)))

    def algebroid(self, key="algebroid"):
        if key not in self.doc:
            raise InputError("problem file has no %r section" % key)
        sec = self.doc[key]
        if not isinstance(sec, dict):
            raise InputError("%r section must be an object" % key)
        b, r = self.chart.base_dim, self.chart.fiber_dim
        cube = "algebroid section needs %r"
        lam = self.array("lambda", (r, r, r), sec, cube)
        theta = self.array("theta", (b, r, r), sec, cube)
        R = self.array("R", (b, b, r), sec, cube)
        return AlgebroidData(self.chart, lam, theta, R, self.array("omega", (b, b)),
                             self.array("omega_inv", (b, b)))

    def phi(self):
        comps = self.array("phi", (self.chart.base_dim,),
                           missing="problem file has no %r section")
        return PhiForm(self.chart, comps)

    def mu(self):
        b, r = self.chart.base_dim, self.chart.fiber_dim
        return ConnectionChange(self.chart, self.array("mu", (b, r)))

    def path(self):
        if "path" not in self.doc:
            raise InputError("problem file has no 'path' section")
        sec = self.doc["path"]
        if not isinstance(sec, dict) or not isinstance(sec.get("points"), list):
            raise InputError("bad path section: it needs a 'points' list")
        closed = sec.get("closed", False)
        if not isinstance(closed, bool):
            raise InputError("path.closed must be true or false, got %r" % (closed,))
        pts = [_rationals(p, "path.points[%d]" % k) for k, p in enumerate(sec["points"])]
        try:
            return BasePath(pts, closed)
        except ValueError as exc:
            raise InputError("bad path section: %s" % exc)

    def float_points(self, points_file):
        pts = (self.doc.get("points") if points_file is None
               else _read_json(points_file, *["cannot read points file: %s"] * 2))
        if not pts:
            raise InputError("no sample points given (problem 'points' or --points)")
        # float() would take a string point character by character, and true as 1
        if not isinstance(pts, list) or not all(
                isinstance(p, list) and not any(isinstance(v, bool) for v in p) for p in pts):
            raise InputError("sample points must be lists of numbers")
        try:
            pts = [[float(v) for v in p] for p in pts]
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError("sample points must be lists of numbers: %s" % exc)
        for k, p in enumerate(pts):
            if not all(map(math.isfinite, p)):
                raise InputError("sample point %d is not finite: %r" % (k, p))
        return pts


# -- commands -----------------------------------------------------------


def cmd_check_jacobi(problem, args):
    pi = problem.bivector()
    report = CheckReport("jacobi")
    report.add_residuals("jacobiator-vanishes", "jacobi", [jacobiator(pi)], None)
    return report, []


def cmd_verify_data(problem, args):
    return problem.geometric_data().conditions, []


def cmd_assemble(problem, args):
    tensor = assemble(problem.geometric_data())
    report = CheckReport("assemble")
    report.add("assembled", "assemble", tensor.certified_order, True, "0")
    return report, ["coupling tensor: %s" % tensor.pi.render()]


def cmd_decompose(problem, args):
    pi = problem.bivector()
    b = problem.chart.base_dim
    data = decompose(pi, problem.array("fform0", (b, b), missing=None))
    lines = ["connection:"]
    for i, row in enumerate(data.connection.gamma):
        for s, g in enumerate(row):
            lines.append("  gamma[%d][%d] = %s" % (i + 1, s + 1, g.render()))
    lines.append("vertical: %s" % data.vertical.render())
    lines.append("fform: %s" % data.fform.render())
    report = CheckReport("decompose")
    report.add("decomposed", "decompose", data.valid_order(), True, "0")
    return report, lines


def cmd_algebroid_check(problem, args):
    a = problem.algebroid()
    report = check_admissible(a)
    if "points" in problem.doc:
        # full-dimension points (shared with moser-flow) give their base coordinates
        b, n = problem.chart.base_dim, problem.chart.n_vars
        pts = problem.doc["points"]
        if not isinstance(pts, list):
            raise InputError("sample points must be lists of numbers, got %r" % (pts,))
        pts = [_rationals(p, "points[%d]" % k) for k, p in enumerate(pts)]
        report.extend(coisotropy_check(a, [p[:b] if len(p) == n else p for p in pts]))
    return report, []


def cmd_algebroid_build(problem, args):
    a = problem.algebroid()
    report = CheckReport("algebroid-build", a.admissibility.entries)
    lines = []
    if a.admissibility.passed:
        tensor = build_coupling(a)
        report.add_residuals("built-tensor-jacobiator", "jacobi",
                             [jacobiator(tensor.pi)], None)
        lines.append("coupling tensor: %s" % tensor.pi.render())
    return report, lines


def cmd_connection_change(problem, args):
    a = problem.algebroid()
    m = problem.mu()
    a2 = change_connection(a, m)
    b, r = problem.chart.base_dim, problem.chart.fiber_dim
    lines = ["theta'[%d][%d][%d] = %s" % (i + 1, s + 1, t + 1, a2.theta[i][s][t].render())
             for i, s, t in product(range(b), range(r), range(r))
             if not a2.theta[i][s][t].is_zero()]
    lines += ["R'[%d][%d][%d] = %s" % (i + 1, j + 1, s + 1, a2.R[i][j][s].render())
              for (i, j), s in product(combinations(range(b), 2), range(r))
              if not a2.R[i][j][s].is_zero()]
    return verify_connection_equivalence(a, a2, m), lines


def cmd_cocycle(problem, args):
    a = problem.algebroid()
    a2 = problem.algebroid("algebroid2")
    m = problem.mu()
    C, report = relative_cocycle(a, a2, m)
    lines = ["cocycle (fiber pairing): %s" % cocycle_hform(a, C).render()]
    return report, lines


def cmd_moser_verify(problem, args):
    data = problem.geometric_data()
    phi = problem.phi()
    t_samples = (DEFAULT_T_SAMPLES if args.t_samples is None
                 else tuple(_rationals(args.t_samples.split(","), "--t-samples")))
    fam = build_family(data, phi, t_samples)
    report = verify_deformation_equation(fam)
    uncertified = fam.uncertified_samples
    singular = [t for t in fam.degenerate_samples if t not in uncertified]
    lines = ["degenerate samples: %s" % (", ".join(map(str, singular)) or "none")]
    if uncertified:
        lines.append("uncertified samples: %s" % ", ".join(map(str, uncertified)))
    return report, lines


def cmd_moser_flow(problem, args):
    data = problem.geometric_data()
    fam = build_family(data, problem.phi())
    points = problem.float_points(args.points)
    return numeric_pullback_check(fam, points, args.steps), []


def cmd_linearize(problem, args):
    data = problem.geometric_data()
    if not data.conditions.passed:
        return data.conditions, []
    out = linearize_data(data)
    lines = ["vertical: %s" % out.vertical.render(),
             "fform: %s" % out.fform.render()]
    for i, row in enumerate(out.connection.gamma):
        for s, g in enumerate(row):
            if not g.is_zero():
                lines.append("gamma[%d][%d] = %s" % (i + 1, s + 1, g.render()))
    return out.conditions, lines


def cmd_extract_algebroid(problem, args):
    data = problem.geometric_data()
    if not data.conditions.passed:
        return data.conditions, []
    a = extract_algebroid(data)
    r, b = problem.chart.fiber_dim, problem.chart.base_dim
    lines = ["lambda[%d][%d][%d] = %s" % (s + 1, t + 1, n + 1, a.lam[s][t][n].render())
             for (s, t), n in product(combinations(range(r), 2), range(r))
             if not a.lam[s][t][n].is_zero()]
    lines += ["omega[%d][%d] = %s" % (i + 1, j + 1, a.omega[i][j].render())
              for i, j in combinations(range(b), 2)]
    return a.admissibility, lines


def cmd_holonomy(problem, args):
    a = problem.algebroid()
    m = problem.mu()
    path = problem.path()
    return holonomy_compare(a, m, path, args.steps), []


COMMANDS = {
    "check-jacobi": cmd_check_jacobi,
    "verify-data": cmd_verify_data,
    "assemble": cmd_assemble,
    "decompose": cmd_decompose,
    "algebroid-check": cmd_algebroid_check,
    "algebroid-build": cmd_algebroid_build,
    "connection-change": cmd_connection_change,
    "cocycle": cmd_cocycle,
    "moser-verify": cmd_moser_verify,
    "moser-flow": cmd_moser_flow,
    "linearize": cmd_linearize,
    "extract-algebroid": cmd_extract_algebroid,
    "holonomy": cmd_holonomy,
}


def _positive(kind):
    """argparse type: a finite, positive ``kind`` (bad values exit 2)."""
    def convert(text):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError("must be finite and positive, got %r" % text)
        return value
    convert.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return convert


# the flags each command reads besides problem, --order, --report and --quiet
_STEPS = ("--steps", _positive(int), 1000, "integrator step budget")
FLAGS = {
    "moser-verify": [("--t-samples", str, None, "comma-separated rational homotopy samples")],
    "moser-flow": [_STEPS, ("--points", str, None, "JSON file with float sample points"),
                   ("--tol", _positive(float), 1e-6, "pass/fail tolerance")],
    "holonomy": [_STEPS, ("--tol", _positive(float), 1e-8, "pass/fail tolerance")],
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fiberpoisson",
        description="exact verification pipelines for coupling Poisson tensors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("problem", help="JSON problem file")
        p.add_argument("--order", type=int, default=None,
                       help="override the chart truncation order")
        for flag, kind, default, text in FLAGS.get(name, ()):
            p.add_argument(flag, type=kind, default=default, help=text)
        p.add_argument("--report", default=None,
                       help="write the structured report to this JSON file")
        p.add_argument("--quiet", action="store_true")
    return parser


@functools.cache
def _parser():
    # parsing leaves the parser unchanged, so one instance serves every call
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        problem = Problem.load(args.problem, args.order)
        report, lines = COMMANDS[args.command](problem, args)
    except InternalInvariantError as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    # a numeric entry carries its deviation; the tolerance decides it here
    for entry in report.entries:
        if entry.detail is not None:
            entry.passed = entry.detail < args.tol
    if not args.quiet:
        try:
            for line in lines:
                print(line)
            print(report.render())
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: print no more, and let the flush at exit
            # write to os.devnull instead of raising again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            print("input error: cannot write report file: %s" % exc, file=sys.stderr)
            return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
