"""
Part 2 of moser-verify against ``sympy_oracle``, which checks the deformation
equation for every t in sympy's polynomial ring from the problem file's
strings alone: on e1 at order 6, on the Wong family at order 2 and on five
random families on ChartSpec(2, 2, 3), whole and broken as ``BREAKINGS``.
"""

import json
import pathlib

import pytest

pytest.importorskip("sympy")

import sympy_oracle
from fiberpoisson import ChartSpec, build_family, cli, verify_deformation_equation

from test_moser import BREAKINGS, random_data_phi

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
    None: ({}, lambda fam: None),
    "moves-doubled": ({"moves": 2}, lambda fam: (
        BREAKINGS["moves-doubled"](fam),
        setattr(fam, "gamma_t", [[[g, c.scale(2)] for g, c in row] for row in fam.gamma_t]))),
    "fform-t-tripled": ({"t_terms": 3}, BREAKINGS["fform-t-tripled"]),
}


@pytest.mark.parametrize("breaking", BROKEN)
def test_verdicts_agree(breaking):
    # each part-2 entry passes exactly where the oracle's residual vanishes at
    # its sample and certified order.  Whole, every family's residual is zero
    # for every t.  e1 has no vertical part, hence no corrections to double,
    # and three of the random families have F_t = F, with no terms in t to
    # triple
    kwargs, brake = BROKEN[breaking]
    caught = []
    for name, doc, order in cases():
        problem = cli.Problem(doc, order)
        fam = build_family(problem.geometric_data(), problem.phi())
        brake(fam)
        entries = [e for e in verify_deformation_equation(fam).entries if e.tag == "part-2"]
        residual = sympy_oracle.deformation_residual(doc, order, **kwargs)
        for t, e in zip(fam.t_samples, entries):
            assert e.passed == (not sympy_oracle.at(doc, residual, t, e.certified_order)), (name, t)
        if residual:
            caught.append(name)
    assert caught == {None: [],
                      "moves-doubled": ["wong"] + ["random-%d" % k for k in range(5)],
                      "fform-t-tripled": ["e1", "wong", "random-0", "random-1"]}[breaking]
