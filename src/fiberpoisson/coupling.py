"""
The correspondence between geometric data and horizontally nondegenerate
bivector fields, and the four-condition Poisson verifier.

Geometric data is a triple (connection, vertical bivector, base 2-form
with function values) together with a certified inverse of the
fiber-constant part of the 2-form matrix.  ``assemble`` produces the
coupling bivector

    Pi = 1/2 sum_ij H^{ij} hor(d_i) ^ hor(d_j)  +  V,
    sum_s H^{is} F_{sj} = -delta^i_j,

``decompose`` inverts the construction, and ``verify_coupling_conditions`` checks
the four conditions equivalent to [[Pi, Pi]] = 0:

  1. the vertical part is Poisson,
  2. every horizontal lift preserves the vertical part,
  3. the 2-form is covariantly closed,
  4. the connection curvature is the vertical Hamiltonian field of the
     corresponding 2-form value (the curvature identity).

Sign conventions are pinned once here: H is minus the Neumann inverse of
the 2-form matrix, and the vertical sharp map contracts the differential
into the first slot, (V# dg)^t = sum_n V^{nt} d_n g.  The Lie-algebroid
fixtures exercise every sign.
"""

import functools

from .series import (FiberSeries, block_inverse, dot, mat_fiber_zero_part, mat_neg,
                     mat_valid_order, matrix_invert)
from .multivector import HForm, Multivector, _collect, _sorted, interior, jacobiator
from .connection import Connection
from .report import CheckReport


class GeometricData:
    """
    The triple (connection, vertical, fform) plus the inverse seed for
    the fiber-constant part of the 2-form matrix; ``fform_inverse`` is
    the full inverse that the seed certifies.

    Invariants checked at construction: the vertical bivector has no
    base-direction components; ``block_inverse`` certifies the seed, or
    computes it when that fiber-constant part is constant in the base.
    """

    def __init__(self, connection, vertical, fform, fform_inv_seed=None):
        self._set_parts(connection, vertical, fform)
        self.fform_inv_seed = block_inverse(fform.matrix(), fform_inv_seed, "fform_inv_seed")

    @classmethod
    def _with_certified_seed(cls, connection, vertical, fform, fform_inv_seed):
        """Data whose seed the caller has already certified: ``decompose`` checks the
        inverse of the bivector's base block, the same product, and a homotopy-family
        member whose block is its data's shares the data's seed."""
        data = cls.__new__(cls)
        data._set_parts(connection, vertical, fform)
        data.fform_inv_seed = fform_inv_seed
        return data

    def _set_parts(self, connection, vertical, fform):
        chart = connection.chart
        if vertical.chart != chart or fform.chart != chart:
            raise ValueError("geometric data parts live on different charts")
        if vertical.degree != 2:
            raise ValueError("vertical part must be a bivector")
        if not vertical.is_vertical():
            raise ValueError("vertical part has base-direction components")
        if fform.degree != 2:
            raise ValueError("fform must be a 2-form")
        if chart.base_dim < 2:
            raise ValueError("a declared 2-form needs base_dim >= 2")
        self.chart = chart
        self.connection = connection
        self.vertical = vertical
        self.fform = fform

    @functools.cached_property
    def fform_inverse(self):
        """Neumann inverse of the 2-form matrix, certified by the seed that
        the constructor checked; computed once per data set."""
        return matrix_invert(self.fform.matrix(), self.fform_inv_seed)

    @functools.cached_property
    def conditions(self):
        """The ``verify_coupling_conditions`` report; computed once per data set."""
        return verify_coupling_conditions(self)

    def valid_order(self):
        return min(self.connection.valid_order(), self.vertical.valid_order,
                   self.fform.valid_order)


class CouplingTensor:
    def __init__(self, pi, certified_order):
        self.pi = pi
        self.certified_order = certified_order


def assemble(data):
    """Coupling bivector of geometric data.  Raises ValueError when the
    2-form matrix is singular at fiber degree 0."""
    H = mat_neg(data.fform_inverse)
    vo = min(mat_valid_order(H), data.vertical.valid_order, data.connection.valid_order())
    pi = data.connection.horizontal_bivector(H, vo) + data.vertical
    return CouplingTensor(pi, pi.valid_order)


def decompose(pi, fform0=None):
    """
    Split a horizontally nondegenerate bivector into geometric data.

    ``fform0`` certifies the inversion of the base block at fiber degree
    0: it is the fiber-constant part of the 2-form being recovered, and
    its negative must be an exact inverse of the degree-0 base block.
    It may be omitted when the degree-0 base block is constant in the
    base variables (the inverse is then computed by exact elimination).
    """
    chart = pi.chart
    b = chart.base_dim
    if pi.degree != 2 or b < 2:
        raise ValueError("decompose expects a bivector on a chart with base_dim >= 2")
    Q = [[pi.component((i, j)) for j in range(b)] for i in range(b)]
    try:
        seed = block_inverse(Q, None if fform0 is None else mat_neg(fform0), "fform0",
                             pi.valid_order)
    except ValueError as exc:
        raise ValueError("base block of the bivector: %s" % exc)
    C = matrix_invert(Q, seed)
    gamma = [[-dot(C[j], [pi.component((i, b + s)) for i in range(b)])
              for s in range(chart.fiber_dim)] for j in range(b)]
    connection = Connection(chart, gamma)
    fmat = mat_neg(C)
    fform = HForm.from_matrix(chart, fmat, mat_valid_order(fmat))
    hor_part = connection.horizontal_bivector(Q, pi.valid_order)
    vertical = pi.truncate(hor_part.valid_order) - hor_part
    if not vertical.is_vertical():
        raise ValueError("bivector is not horizontally nondegenerate "
                         "(remainder after removing the horizontal part is not vertical)")
    # fform's fiber-constant part is -seed, so -Q0 is its inverse by the check above
    return GeometricData._with_certified_seed(connection, vertical, fform,
                                              mat_neg(mat_fiber_zero_part(Q)))


def v_sharp(vertical, f):
    """Vertical Hamiltonian field of a function: (V# df)^t = sum_n V^{nt} d_n f.  Only the
    directions n of V's components are differentiated; a zero of the order that its
    derivative would certify stands for each other one, so the field keeps its order."""
    chart = vertical.chart
    used = {n for idx in vertical.comps for n in idx}
    zeros = [FiberSeries.zero(chart, f.valid_order - k) for k in (0, 1)]
    df = [f.diff(n) if n in used else zeros[n >= chart.base_dim] for n in range(chart.n_vars)]
    return interior(df, vertical)


def lift_brackets(lifts, V, valid_order):
    """
    [X_i, V] for the vector fields X_i of terms ``lifts[i]`` (as
    ``Connection.lifts``) and a bivector V, by the coordinate formula

        [X, V]^{ab} = X(V^{ab}) - sum_c (V^{cb} d_c X^a + V^{ac} d_c X^b),

    the terms of the Schouten bracket.  Each derivative of a component of V is
    taken once for all the fields, and of a coefficient once per field; every
    bracket is certified at ``valid_order``.
    """
    dV = functools.cache(lambda ab, v: V.comps[ab].diff(v))
    for lift in lifts:
        dX = functools.cache(lambda n, c, lift=lift: lift[n][1].diff(c))
        terms = []
        for ab, u in V.comps.items():
            terms += [(ab, w, g, d) for v, g, w in lift if (d := dV(ab, v))]
            for n, (v, _, w) in enumerate(lift):
                for m in (0, 1):
                    K, sign = _sorted((v, ab[1 - m]))
                    if sign and (d := dX(n, ab[m])):
                        terms.append((K, -sign * w if m == 0 else sign * w, u, d))
        yield Multivector(V.chart, 2, _collect(terms), valid_order)


def coupling_residuals(data):
    """The residuals of conditions 2 to 4, each zero where its condition holds: the
    list of [hor(d_i), V], dGamma F and {(i, j): Curv_ij - V# dF_ij}, i < j."""
    V, conn = data.vertical, data.connection
    return (list(lift_brackets(conn.lifts(), V, min(conn.valid_order(), V.valid_order) - 1)),
            conn.cov_ext_deriv(data.fform),
            {ij: c - v_sharp(V, data.fform.component(ij)) for ij, c in conn.curvature().items()})


def verify_coupling_conditions(data):
    """
    Verify the four coupling conditions on geometric data.

    Failures are report entries, not errors.  A fifth, informational
    entry reports whether the closedness defect of the 2-form is
    Casimir-valued for the vertical structure (a strictly weaker
    property implied by the curvature identity alone).
    """
    report = CheckReport("coupling-conditions")
    V = data.vertical
    brackets, dF, curvature = coupling_residuals(data)

    report.add_residuals("vertical-jacobi", "cond-1", [jacobiator(V)], None)
    report.add_residuals("horizontal-lifts-preserve-vertical", "cond-2", brackets,
                         V.valid_order - 1)
    report.add_residuals("covariant-closedness", "cond-3", [dF], None)
    report.add_residuals("curvature-identity", "cond-4", curvature.values(),
                         data.valid_order() - 1)
    report.add_residuals("closedness-defect-casimir-valued", "cond-3-weak",
                         (v_sharp(V, s) for s in dF.comps.values()),
                         dF.valid_order - 1, required=False)
    return report
