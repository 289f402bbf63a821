"""
First approximations at the zero section: the linearized data, extraction
of the underlying algebroid data, and the second-order agreement check.

The linearized Poisson structure over the leaf is the coupling tensor
that the leaf's transitive Lie algebroid induces on the dual of its
isotropy.  So linearization reads the algebroid data off the fiber-linear
parts of the data (``extract_algebroid``) and builds the induced data from
them (``build_geometric_data``): a homogeneous connection, a fiber-linear
vertical bivector and a fiber-affine 2-form.  Extraction inverts that
construction exactly, so the linearized data are the fiber-linear parts of
the connection and the vertical bivector and the fiber-affine part of the
2-form.
"""

from .coupling import assemble
from .algebroid import AlgebroidData, build_geometric_data
from .report import CheckReport, InternalInvariantError


def _check_input(data):
    """Zero-section compatibility, then the coupling conditions."""
    if not data.connection.is_zero_on_section():
        raise ValueError("connection does not vanish on the zero section "
                         "(horizontal spaces not tangent to the leaf)")
    if not data.vertical.fiber_part(0, 0).is_zero():
        raise ValueError("vertical part has nonzero rank on the zero section")
    data.conditions.require(ValueError, "input data fails the coupling conditions")


def linearize_data(data):
    """
    The data induced by the algebroid of zero-section-compatible geometric
    data: ``build_geometric_data(extract_algebroid(data))``.  For a chart
    order >= 2 the output is verified to satisfy the coupling conditions.
    Raises ValueError if the input fails them.
    """
    out = build_geometric_data(extract_algebroid(data))
    if data.chart.trunc_order >= 2:
        out.conditions.require(InternalInvariantError,
                               "linearized data fails the coupling conditions")
    return out


def extract_algebroid(data):
    """
    Read the algebroid data off the fiber-linear parts of geometric data.

    Inverse of the build convention: structure functions from the
    vertical part, linear-connection coefficients from the connection,
    curvature from minus the fiber-linear part of the 2-form, base form
    from its fiber-constant part.  ValueError if the input fails the
    coupling conditions; the result is validated admissible, which for
    compatible verified data is forced.
    """
    _check_input(data)
    chart = data.chart
    b, r = chart.base_dim, chart.fiber_dim

    def unit(s):
        e = [0] * r
        e[s] = 1
        return tuple(e)

    lam = [[[data.vertical.component((b + s, b + s2)).xi_coefficient(unit(n))
             for n in range(r)] for s2 in range(r)] for s in range(r)]
    theta = [[[data.connection.gamma[i][s].xi_coefficient(unit(t))
               for t in range(r)] for s in range(r)] for i in range(b)]
    omega = [[data.fform.component((i, j)).xi_coefficient((0,) * r)
              for j in range(b)] for i in range(b)]
    R = [[[-data.fform.component((i, j)).xi_coefficient(unit(s))
           for s in range(r)] for j in range(b)] for i in range(b)]
    out = AlgebroidData(chart, lam, theta, R, omega, data.fform_inv_seed)
    out.admissibility.require(InternalInvariantError,
                              "extracted algebroid data is not admissible")
    return out


def first_approx_check(full, approx):
    """
    Assert that two data sets assemble to tensors agreeing up to terms of
    fiber degree >= 2 (the first-approximation contract).
    """
    if full.chart != approx.chart:
        raise ValueError("first_approx_check needs a shared chart")
    delta = assemble(full).pi - assemble(approx).pi
    report = CheckReport("first-approximation")
    report.add_residuals("agreement-to-second-order", "first-approx",
                         [delta.fiber_part(0, 1)], None)
    return report
