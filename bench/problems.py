"""
Problem-file writers: turn in-memory data sets into the JSON documents the
command line reads.  Every coefficient is written with ``render()``, whose
output is in the input grammar.
"""

import json
import os


def _mat(M):
    return [[s.render() for s in row] for row in M]


def _cube(C):
    return [[[s.render() for s in cell] for cell in row] for row in C]


def _chart(chart):
    return {"base_dim": chart.base_dim, "fiber_dim": chart.fiber_dim,
            "trunc_order": chart.trunc_order}


def geometric_doc(data):
    """connection / vertical / fform / fform_inv_seed of geometric data."""
    chart = data.chart
    b, r = chart.base_dim, chart.fiber_dim
    vmat = [["0"] * r for _ in range(r)]
    for (i, j), s in data.vertical.comps.items():
        vmat[i - b][j - b] = s.render()
        vmat[j - b][i - b] = (-s).render()
    return {"chart": _chart(chart),
            "connection": _mat(data.connection.gamma),
            "vertical": vmat,
            "fform": _mat(data.fform.matrix()),
            "fform_inv_seed": _mat(data.fform_inv_seed)}


def bivector_doc(pi):
    """The full antisymmetric matrix of a bivector, for the ``pi`` key."""
    n = pi.chart.n_vars
    M = [["0"] * n for _ in range(n)]
    for (i, j), s in pi.comps.items():
        M[i][j] = s.render()
        M[j][i] = (-s).render()
    return M


def algebroid_doc(a):
    """``algebroid`` section plus the top-level omega / omega_inv."""
    return {"chart": _chart(a.chart),
            "omega": _mat(a.omega),
            "omega_inv": _mat(a.omega_inv),
            "algebroid": {"lambda": _cube(a.lam), "theta": _cube(a.theta),
                          "R": _cube(a.R)}}


def mu_doc(m):
    return _mat(m.mu)


def phi_doc(phi):
    return [s.render() for s in phi.phi]


def write(directory, name, doc):
    path = os.path.join(directory, name + ".problem.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path
