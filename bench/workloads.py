"""
The three workloads: each builds a fixed list of verdicts from generated
problem files and says how to check every verdict's outputs.

A verdict is one or more command-line calls timed as one interval.  Every
call has an expected exit code; ``check`` then inspects the calls' reports
and captured output for a property the method must have.  Expectations
come from how the inputs were built (valid data versus mutated data, a
closed form, a theorem), never from a stored copy of earlier output.
"""

import json
import math
import os
import random
from fractions import Fraction

import problems as P

from fiberpoisson import (PhiForm, ConnectionChange, build_geometric_data,
                          change_connection, assemble, build_family,
                          verify_coupling_conditions)
from fixtures import (S, rng, e1_algebroid, e1_data, wong_algebroid,
                      rand_valid_data, mutate_data, rand_phi)

# Corpus seeds: those of the test suite's criterion (test_02) and
# deformation-equation (test_07) acceptance tests.
CRITERION_SEED = 102
FAMILY_SEED = 107

CRITERION_VALID = 50
CRITERION_MUTATED = 50
RANDOM_FAMILIES = 20
WONG_ORDERS = (3, 4)
E1_ORDERS = tuple(range(6, 19))
E1_BUILD_ORDERS = (6, 10, 14)

FLOW_POINTS = 3
FLOW_STEPS = 100
# Seeded sample points are drawn from [-FLOW_BOX, FLOW_BOX]^7.  Farther out
# the Wong family's coupling form nears degeneracy along some flows and 100
# RK4 steps no longer resolve them: (0.42, -0.2, 0.26, 0.42, -0.33, 0.04,
# 0.43) deviates by 2.5e-5, 1.7e-6 and 1.9e-7 at 50, 100 and 200 steps.
# Inside the box no deviation seen exceeded 1.4e-9 at 100 steps (the four
# worst-conditioned corners) or 2e-9 at 16 steps (40 random points).
FLOW_BOX = 0.25
# The order check needs a flow whose RK4 error dwarfs the finite-difference
# error (about 1e-10), so it runs at this fixed point, where the deviation is
# 3.9e-6, 2.5e-7 and 1.5e-8 at 16, 32 and 64 steps.  Near the leaf it would
# be noise: at (0.01, ..., 0.01) it is 5e-13 at both step counts.
ORDER_POINT = [0.5] * 7
HOLONOMY_PATHS = 3
HOLONOMY_STEPS = 1000
ORDER_STEPS = (16, 32)
ORDER_RANGE = (3.6, 4.4)
ABELIAN_BOUND = 1e-14

ORACLE_CHECKS = 4
ORACLE_MAX_TERMS = 60


class Call:
    """One command-line call: argv after the program name, and the exit
    code the inputs were built to give.  ``capture`` keeps stdout (the call
    then runs without ``--quiet``)."""

    def __init__(self, argv, expect, capture=False):
        self.argv = list(argv)
        self.expect = expect
        self.capture = capture


class Verdict:
    def __init__(self, name, calls, check=None, meta=None):
        self.name = name
        self.calls = calls
        self.check = check
        self.meta = meta or {}


class Outcome:
    """What one call gave: exit code, parsed ``--report`` and stdout."""

    def __init__(self, code, report, stdout):
        self.code = code
        self.report = report
        self.stdout = stdout


def read_outcomes(results):
    """Outcomes of a verdict's calls from (exit code, report path, stdout);
    each report file is read and removed."""
    out = []
    for code, path, stdout in results:
        try:
            with open(path) as fh:
                report = json.load(fh)
            os.remove(path)
        except OSError:
            report = None
        out.append(Outcome(code, report, stdout))
    return out


def judge(verdict, outcomes):
    """None when the verdict's outputs are right, else a one-line reason."""
    for call, out in zip(verdict.calls, outcomes):
        if out.code != call.expect:
            return "%s exited %s, expected %s" % (call.argv[0], out.code, call.expect)
    if verdict.check is not None:
        return verdict.check(outcomes)
    return None


# -- shared inputs ------------------------------------------------------------


def wong_family_data():
    """The so(3) Wong data with the phi of the acceptance suite's Wong family."""
    data = build_geometric_data(wong_algebroid(4))
    ch = data.chart
    phi = PhiForm(ch, [S("3*x1*xi4", ch), S("-3*x1*xi3", ch),
                       S("2*x2*xi2", ch), S("-2*x2*xi1", ch)])
    return data, phi


def wong_mu(chart):
    """The change of splitting stored in problems/wong.problem.json."""
    z = "0"
    rows = [["xi1", "xi2", "2"], ["xi2^2", "1", "xi1*xi2"], [z, z, z], [z, z, z]]
    return ConnectionChange(chart, [[S(t, chart) for t in row] for row in rows])


def _detail(outcome):
    return outcome.report["entries"][0]["detail"]


def _order_check(outcomes):
    e_h, e_h2 = _detail(outcomes[0]), _detail(outcomes[1])
    if not (e_h > 0 and e_h2 > 0):
        return "zero deviation, no observed order"
    order = math.log2(e_h / e_h2)
    lo, hi = ORDER_RANGE
    if not lo <= order <= hi:
        return "observed RK4 order %.3f outside [%s, %s]" % (order, lo, hi)
    return None


def _order_verdict(name, argv):
    """The same numeric check at two low step counts, passed at any deviation;
    the verdict is the observed convergence order log2(e_h / e_{h/2})."""
    calls = [Call(argv + ["--steps", str(s), "--tol", "1"], 0) for s in ORDER_STEPS]
    return Verdict(name, calls, _order_check)


# -- criterion ----------------------------------------------------------------


def criterion_corpus(corpus_seed):
    """50 valid and 50 mutated data sets, drawn as in test_02: a mutation
    that leaves the coupling conditions intact is drawn again."""
    r = rng(corpus_seed)
    valid = [rand_valid_data(r) for _ in range(CRITERION_VALID)]
    mutated = []
    while len(mutated) < CRITERION_MUTATED:
        bad = mutate_data(r, rand_valid_data(r))
        if not verify_coupling_conditions(bad).passed:
            mutated.append(bad)
    return [(d, 0) for d in valid] + [(d, 1) for d in mutated]


def _codes_agree(outcomes):
    codes = [o.code for o in outcomes]
    if len(set(codes)) != 1:
        return "verify-data and check-jacobi disagree: %s" % codes
    return None


def _e1_bracket_check(order):
    expect = " + ".join(["1", "x1"] + ["x1^%d" % k for k in range(2, order + 1)])
    want = "coupling tensor: (%s)*d1^d2" % expect

    def check(outcomes):
        lines = outcomes[0].stdout.splitlines()
        if want not in lines:
            return "e1 bracket at order %d is not 1 + x1 + ... + x1^%d" % (order, order)
        return None
    return check


def build_criterion(workdir, root, seed, corpus_seed=None):
    corpus = criterion_corpus(CRITERION_SEED if corpus_seed is None else corpus_seed)
    verdicts = []
    for k, (data, expect) in enumerate(corpus):
        tensor = assemble(data)
        doc = P.geometric_doc(data)
        doc["pi"] = P.bivector_doc(tensor.pi)
        path = P.write(workdir, "criterion-%03d" % k, doc)
        order = str(tensor.certified_order)
        calls = [Call(["verify-data", path], expect),
                 Call(["check-jacobi", path, "--order", order], expect)]
        terms = sum(len(s.terms) for s in tensor.pi.comps.values())
        verdicts.append(Verdict("data-%03d" % k, calls, _codes_agree,
                                {"path": path, "order": tensor.certified_order,
                                 "pi_terms": terms}))
    shipped = os.path.join(root, "problems")
    e1 = os.path.join(shipped, "e1.problem.json")
    wong = os.path.join(shipped, "wong.problem.json")
    broken = os.path.join(shipped, "broken_bianchi.problem.json")
    verdicts += [
        Verdict("verify-data-e1", [Call(["verify-data", e1], 0)]),
        Verdict("verify-data-broken", [Call(["verify-data", broken], 1)]),
        Verdict("algebroid-check-wong", [Call(["algebroid-check", wong], 0)]),
        Verdict("algebroid-check-broken", [Call(["algebroid-check", broken], 1)]),
        Verdict("algebroid-build-wong", [Call(["algebroid-build", wong], 0)]),
    ]
    for n in E1_BUILD_ORDERS:
        verdicts.append(Verdict("algebroid-build-e1-%d" % n,
                                [Call(["algebroid-build", e1, "--order", str(n)], 0,
                                      capture=True)],
                                _e1_bracket_check(n)))
    return verdicts


def oracle_subset(verdicts, r):
    """A seeded choice of criterion inputs whose pi is small enough for the
    brute-force oracle."""
    small = [v for v in verdicts if v.meta.get("pi_terms", math.inf) <= ORACLE_MAX_TERMS]
    return r.sample(small, min(ORACLE_CHECKS, len(small)))


def oracle_agrees(verdict, jacobi_code):
    """check-jacobi's exit code against the permutation-expansion oracle."""
    from fiberpoisson.cli import Problem
    from oracle import oracle_jacobiator
    with open(verdict.meta["path"]) as fh:
        doc = json.load(fh)
    pi = Problem(doc, verdict.meta["order"]).bivector()
    poisson = oracle_jacobiator(pi).is_zero()
    if poisson != (jacobi_code == 0):
        return "oracle says Poisson=%s, check-jacobi exited %s" % (poisson, jacobi_code)
    return None


# -- equivalence --------------------------------------------------------------


def _all_entries_pass(outcomes):
    for out in outcomes:
        bad = [e["name"] for e in out.report["entries"]
               if e["required"] and not e["passed"]]
        if bad:
            return "failed entries: %s" % ", ".join(bad)
    return None


def _cocycle_zero(outcomes):
    if "cocycle (fiber pairing): 0" not in outcomes[0].stdout.splitlines():
        return "cocycle of a pure change of splitting is not zero"
    return None


def random_families(corpus_seed):
    """Non-degenerate seeded families, drawn as in test_07."""
    r = rng(corpus_seed)
    out = []
    while len(out) < RANDOM_FAMILIES:
        data = rand_valid_data(r)
        phi = rand_phi(r, data)
        if not build_family(data, phi).degenerate_samples:
            out.append((data, phi))
    return out


def build_equivalence(workdir, root, seed, corpus_seed=None):
    data, phi = wong_family_data()
    doc = P.geometric_doc(data)
    doc["phi"] = P.phi_doc(phi)
    wong_fam = P.write(workdir, "wong-family", doc)

    e1 = e1_data(max(E1_ORDERS))
    doc = P.geometric_doc(e1)
    doc["phi"] = ["x1*xi2", "0"]
    e1_fam = P.write(workdir, "e1-family", doc)

    a = wong_algebroid(4)
    mu = wong_mu(a.chart)
    doc = P.algebroid_doc(a)
    doc["mu"] = P.mu_doc(mu)
    doc["algebroid2"] = P.algebroid_doc(change_connection(a, mu))["algebroid"]
    wong_pair = P.write(workdir, "wong-pair", doc)

    verdicts = []
    for n in WONG_ORDERS:
        verdicts.append(Verdict("moser-verify-wong-%d" % n,
                                [Call(["moser-verify", wong_fam, "--order", str(n)], 0)],
                                _all_entries_pass))
    for n in E1_ORDERS:
        verdicts.append(Verdict("moser-verify-e1-%d" % n,
                                [Call(["moser-verify", e1_fam, "--order", str(n)], 0)],
                                _all_entries_pass))
    seed = FAMILY_SEED if corpus_seed is None else corpus_seed
    for k, (d, ph) in enumerate(random_families(seed)):
        doc = P.geometric_doc(d)
        doc["phi"] = P.phi_doc(ph)
        path = P.write(workdir, "family-%02d" % k, doc)
        verdicts.append(Verdict("moser-verify-family-%02d" % k,
                                [Call(["moser-verify", path], 0)], _all_entries_pass))
    verdicts += [
        Verdict("connection-change-wong", [Call(["connection-change", wong_pair], 0)],
                _all_entries_pass),
        Verdict("cocycle-wong", [Call(["cocycle", wong_pair], 0, capture=True)],
                _cocycle_zero),
        Verdict("linearize-wong", [Call(["linearize", wong_fam], 0)], _all_entries_pass),
    ]
    return verdicts


# -- numeric-flow -------------------------------------------------------------


def _point(r, n):
    return [round(r.uniform(-FLOW_BOX, FLOW_BOX), 2) for _ in range(n)]


def _points_file(workdir, name, points):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(points, fh)
    return path


def _base_path(r, dim):
    """Two random segments, every coordinate positive and growing by 1/4 or
    1/2 along each.  No velocity or change-of-splitting component is ever
    zero on such a path, so every path costs the same number of field
    evaluations and the traced call counts do not depend on the seed."""
    steps = [Fraction(1, 4), Fraction(1, 2)]
    pts = [[r.choice(steps) for _ in range(dim)]]
    for _ in range(2):
        pts.append([v + r.choice(steps) for v in pts[-1]])
    return [[str(v) for v in p] for p in pts]


def _abelian_check(outcomes):
    dev = _detail(outcomes[0])
    if not dev < ABELIAN_BOUND:
        return "abelian holonomy deviation %.3e is not below %g" % (dev, ABELIAN_BOUND)
    return None


def build_numeric_flow(workdir, root, seed, corpus_seed=None):
    r = random.Random(seed)
    data, phi = wong_family_data()
    doc = P.geometric_doc(data)
    doc["phi"] = P.phi_doc(phi)
    wong_fam = P.write(workdir, "wong-family", doc)
    n = data.chart.n_vars

    verdicts = []
    for k in range(FLOW_POINTS):
        pts = _points_file(workdir, "points-%d" % k, [_point(r, n)])
        verdicts.append(Verdict("moser-flow-%d" % k,
                                [Call(["moser-flow", wong_fam, "--points", pts,
                                       "--steps", str(FLOW_STEPS)], 0)]))
    pts = _points_file(workdir, "order-point", [ORDER_POINT])
    verdicts.append(_order_verdict("moser-flow-order",
                                   ["moser-flow", wong_fam, "--points", pts]))

    wong = os.path.join(root, "problems", "wong.problem.json")
    verdicts.append(Verdict("holonomy-wong",
                            [Call(["holonomy", wong, "--steps", str(HOLONOMY_STEPS)], 0)]))
    verdicts.append(_order_verdict("holonomy-wong-order", ["holonomy", wong]))
    a = wong_algebroid(4)
    for k in range(HOLONOMY_PATHS):
        doc = P.algebroid_doc(a)
        doc["mu"] = P.mu_doc(wong_mu(a.chart))
        doc["path"] = {"points": _base_path(r, a.chart.base_dim), "closed": False}
        path = P.write(workdir, "wong-path-%d" % k, doc)
        verdicts.append(Verdict("holonomy-path-%d" % k,
                                [Call(["holonomy", path, "--steps", str(HOLONOMY_STEPS)], 0)]))

    ab = e1_algebroid(3)
    doc = P.algebroid_doc(ab)
    doc["mu"] = [["xi1"], ["2"]]
    doc["path"] = {"points": [[0, 0], [1, 0]], "closed": False}
    abelian = P.write(workdir, "e1-abelian", doc)
    verdicts.append(Verdict("holonomy-abelian",
                            [Call(["holonomy", abelian, "--steps", "200"], 0)],
                            _abelian_check))
    return verdicts


WORKLOADS = {
    "criterion": build_criterion,
    "equivalence": build_equivalence,
    "numeric-flow": build_numeric_flow,
}
