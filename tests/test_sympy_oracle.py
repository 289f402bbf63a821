"""
moser-verify against ``sympy_oracle``, which checks the deformation equation
and part 1's reduced identity for every t in sympy's polynomial ring from the
problem file's strings alone: on e1 at order 6, on the Wong family at order 2,
on five random families on ChartSpec(2, 2, 3) and, for part 2, on ten families
with a nonzero {phi ^ phi}_V.  Part 2 is checked whole and broken as
``BREAKINGS``, part 1 whole and tampered as ``TAMPERINGS``.
"""

import json
import pathlib

import pytest

pytest.importorskip("sympy")

import sympy_oracle
from fiberpoisson import (DEFAULT_T_SAMPLES, ChartSpec, HomotopyFamily, build_family, cli,
                          verify_deformation_equation)

from test_moser import BREAKINGS, quad_data_phi, random_data_phi, tamper

ROOT = pathlib.Path(__file__).resolve().parent.parent


def problem_doc(data, phi):
    """The problem document of data and phi, each entry rendered as a string."""
    chart = data.chart
    b, r = chart.base_dim, chart.fiber_dim

    def strings(M):
        return [[s.render() for s in row] for row in M]

    return {"chart": {"base_dim": b, "fiber_dim": r, "trunc_order": chart.trunc_order},
            "connection": strings(data.connection.gamma),
            "vertical": strings([[data.vertical.component((b + s, b + u)) for u in range(r)]
                                 for s in range(r)]),
            "fform": strings(data.fform.matrix()),
            "fform_inv_seed": strings(data.fform_inv_seed),
            "phi": [p.render() for p in phi.phi]}


def random_docs(count=5):
    """The first ``count`` families of seed 42 on ChartSpec(2, 2, 3) with a
    nonzero vertical part and a member at every sample, as documents."""
    docs = []
    for data, phi in random_data_phi(42, 20):
        if (data.chart == ChartSpec(2, 2, 3) and not data.vertical.is_zero()
                and not build_family(data, phi).degenerate_samples):
            docs.append(problem_doc(data, phi))
    return docs[:count]


def cases():
    load = lambda path: json.loads((ROOT / path).read_text())
    yield "e1", load("problems/e1.problem.json"), 6
    yield "wong", load("tests/data/wong_family.problem.json"), 2
    for k, doc in enumerate(random_docs()):
        yield "random-%d" % k, doc, 3


# the breakings of BREAKINGS, as the oracle's family takes them: the doubled
# corrections move Gamma_t as well as its t-derivative, so they are doubled in
# the members too
BROKEN = {
    None: ({}, None),
    "moves-doubled": ({"moves": 2}, lambda fam: (
        BREAKINGS["moves-doubled"](fam),
        setattr(fam, "gamma_t", [[[g, c.scale(2)] for g, c in row] for row in fam.gamma_t]))),
    "fform-t-tripled": ({"t_terms": 3}, BREAKINGS["fform-t-tripled"]),
}


def part2_caught(breaking, families):
    """Check that each part-2 entry on the (name, doc, order) ``families``,
    broken as ``BROKEN[breaking]``, passes exactly where the oracle's residual
    vanishes at its sample and certified order; the names of the families whose
    residual is nonzero."""
    kwargs, brake = BROKEN[breaking]
    caught = []
    for name, doc, order in families:
        problem = cli.Problem(doc, order)
        data, phi = problem.geometric_data(), problem.phi()
        if breaking is None:
            fam = build_family(data, phi)
        else:
            # built with no verdict, and broken before it forms its coefficients in t
            fam = HomotopyFamily(data, phi, DEFAULT_T_SAMPLES)
            brake(fam)
        entries = [e for e in verify_deformation_equation(fam).entries if e.tag == "part-2"]
        residual = sympy_oracle.deformation_residual(doc, order, **kwargs)
        for t, e in zip(fam.t_samples, entries):
            assert e.passed == (not sympy_oracle.at(doc, residual, t, e.certified_order)), (name, t)
        if residual:
            caught.append(name)
    return caught


@pytest.mark.parametrize("breaking", BROKEN)
def test_verdicts_agree(breaking):
    # whole, every family's residual is zero for every t.  e1 has no vertical
    # part, hence no corrections to double, and three of the random families
    # have F_t = F, with no terms in t to triple
    assert part2_caught(breaking, cases()) == {
        None: [],
        "moves-doubled": ["wong"] + ["random-%d" % k for k in range(5)],
        "fform-t-tripled": ["e1", "wong", "random-0", "random-1"]}[breaking]


@pytest.mark.parametrize("breaking", BROKEN)
def test_verdicts_agree_with_quad(breaking):
    # the families of test_moser.quad_data_phi, whose F_t has a t^2 term and whose
    # residuals have t^2 and t^3 coefficients: whole, every residual is zero for
    # every t, and broken either way, none is
    families = [("quad-%d" % k, problem_doc(data, phi), data.chart.trunc_order)
                for k, (data, phi) in enumerate(quad_data_phi(5, 10))]
    assert part2_caught(breaking, families) == ([] if breaking is None else
                                                [name for name, _, _ in families])


# the tamperings of test_moser.TAMPERINGS that move part 1, as the oracle's
# reduced identity takes them
TAMPERED = {None: {}, "quad-doubled": {"quad": 2}, "corrections-doubled": {"moves": 2}}


@pytest.mark.parametrize("tampering", TAMPERED)
def test_part1_verdicts_agree(tampering, monkeypatch):
    # part 1 passes exactly where the oracle's reduced identity vanishes below
    # its certified order, for every t, on the cases and on the family of seed 42
    # with a nonzero {phi ^ phi}_V.  Whole, it vanishes on every family;
    # tampered, only where {phi ^ phi}_V is nonzero: not on e1, which has no
    # vertical part, nor on the five random cases, whose phi has no pairing.
    # The families are chosen before the tampering, which build_family rejects
    families = list(cases()) + [
        ("quad-%d" % k, problem_doc(data, phi), data.chart.trunc_order)
        for k, (data, phi) in enumerate(random_data_phi(42, 20))
        if not HomotopyFamily(data, phi, DEFAULT_T_SAMPLES).quad.is_zero()]
    if tampering:
        tamper(monkeypatch, tampering)
    caught = []
    for name, doc, order in families:
        problem = cli.Problem(doc, order)
        fam = HomotopyFamily(problem.geometric_data(), problem.phi(), DEFAULT_T_SAMPLES)
        entry = verify_deformation_equation(fam).entries[0]
        assert entry.tag == "part-1"
        residual = sympy_oracle.reduced_identity(doc, order, **TAMPERED[tampering])
        assert entry.passed == (not sympy_oracle.below(doc, residual, entry.certified_order)), name
        if residual:
            caught.append(name)
    assert caught == {None: []}.get(tampering, ["wong", "quad-18"])
