"""
Transitive Lie-algebroid data over a symplectic chart and the induced
coupling structures.

The data is carried in a fixed frame: structure functions
``lam[s][s'][n]`` for the fiberwise bracket, linear-connection
coefficients ``theta[i][s][t]`` (the covariant derivative of the s-th
coframe element along the i-th base direction is ``-theta[i][s][t]``
times the t-th coframe element), curvature coefficients ``R[i][j][s]``
antisymmetric in (i, j), and the base symplectic matrix with its exact
polynomial inverse.  All entries are base polynomials; the admissibility
checks are decidable polynomial identities.

The induced geometric data uses the dual homogeneous connection, whose
coefficient of the s-th fiber direction along the i-th base direction is
``sum_t theta[i][s][t] * x_t`` — the sign is pinned by requiring the
induced data to pass the coupling conditions, which the test suite
enforces on randomized admissible inputs.  A change of splitting by mu
moves the induced data by the gauge action of the 1-form l(mu), so
``verify_connection_equivalence`` is ``data_equivalence_check`` at g = id.
"""

import functools
from fractions import Fraction
from itertools import combinations

from .series import FiberSeries, block_inverse, dot
from .multivector import Multivector, HForm
from .connection import Connection
from .coupling import GeometricData, assemble
from .moser import PhiForm, data_equivalence_check
from .report import CheckReport, InternalInvariantError
from . import linalg


def _require_xi_polynomial(entries, what):
    for s in entries:
        if not s.is_fiber_independent():
            raise ValueError("%s entries must be independent of the fiber variables" % what)


class AlgebroidData:
    def __init__(self, chart, lam, theta, R, omega, omega_inv):
        b, r = chart.base_dim, chart.fiber_dim
        if b < 2:
            raise ValueError("a symplectic base needs base_dim >= 2")
        if len(lam) != r or any(len(row) != r for row in lam) \
                or any(len(cell) != r for row in lam for cell in row):
            raise ValueError("lambda must be r x r x r")
        if len(theta) != b or any(len(row) != r for row in theta) \
                or any(len(cell) != r for row in theta for cell in row):
            raise ValueError("theta must be base_dim x r x r")
        if len(R) != b or any(len(row) != b for row in R) \
                or any(len(cell) != r for row in R for cell in row):
            raise ValueError("R must be base_dim x base_dim x r")
        if len(omega) != b or len(omega_inv) != b:
            raise ValueError("omega and omega_inv must be base_dim square")
        flat = ([x for rr in lam for c in rr for x in c]
                + [x for rr in theta for c in rr for x in c]
                + [x for rr in R for c in rr for x in c]
                + [x for rr in omega for x in rr] + [x for rr in omega_inv for x in rr])
        for s in flat:
            if s.chart != chart:
                raise ValueError("algebroid entries live on different charts")
        _require_xi_polynomial(flat, "algebroid")
        for s1 in range(r):
            for s2 in range(r):
                for n in range(r):
                    if not (lam[s1][s2][n] + lam[s2][s1][n]).is_zero():
                        raise ValueError("lambda must be antisymmetric in its upper pair")
        for i in range(b):
            for j in range(b):
                for s in range(r):
                    if not (R[i][j][s] + R[j][i][s]).is_zero():
                        raise ValueError("R must be antisymmetric in (i, j)")
                if not (omega[i][j] + omega[j][i]).is_zero():
                    raise ValueError("omega must be antisymmetric")
        block_inverse(omega, omega_inv, "omega_inv")
        for i in range(b):
            for j in range(i + 1, b):
                for k in range(j + 1, b):
                    d = omega[j][k].diff(i) - omega[i][k].diff(j) + omega[i][j].diff(k)
                    if not d.is_zero():
                        raise ValueError("omega must be closed")
        self._check_fiber_jacobi(chart, lam, r)
        self.chart = chart
        self.lam = lam
        self.theta = theta
        self.R = R
        self.omega = omega
        self.omega_inv = omega_inv

    @functools.cached_property
    def admissibility(self):
        """The ``check_admissible`` report; computed once per data set."""
        return check_admissible(self)

    @staticmethod
    def _check_fiber_jacobi(chart, lam, r):
        for a, b_, c in combinations(range(r), 3):
            cyclic = ((a, b_, c), (b_, c, a), (c, a, b_))
            for t in range(r):
                if not dot([lam[u][v][m] for u, v, _ in cyclic for m in range(r)],
                           [lam[m][w][t] for _, _, w in cyclic for m in range(r)]).is_zero():
                    raise ValueError("fiberwise structure functions violate "
                                     "the Jacobi identity")


def check_admissible(a):
    """
    Three exact polynomial identities: the connection preserves the
    fiberwise bracket, its curvature is the adjoint action of R, and R
    satisfies the covariant Bianchi identity.
    """
    chart = a.chart
    report = CheckReport("algebroid-admissibility")
    report.add_residuals("connection-preserves-bracket", "adm-1",
                         _bracket_preservation(a), chart.trunc_order)
    report.add_residuals("curvature-is-adjoint-of-R", "adm-2",
                         _curvature_defect(a), chart.trunc_order)
    report.add_residuals("bianchi", "adm-3", _covariant_closedness(a, a.R),
                         chart.trunc_order)
    return report


def _bracket_preservation(a):
    """Residuals of: the connection preserves the fiberwise bracket."""
    b, r = a.chart.base_dim, a.chart.fiber_dim
    lam, theta, ns = a.lam, a.theta, range(r)
    for i in range(b):
        for s1 in range(r):
            for s2 in range(r):
                for t in range(r):
                    yield lam[s1][s2][t].diff(i) + dot(
                        [*(-lam[s1][s2][n] for n in ns), *theta[i][s1], *theta[i][s2]],
                        [theta[i][n][t] for n in ns] + [lam[n][s2][t] for n in ns]
                        + [lam[s1][n][t] for n in ns])


def _curvature_defect(a):
    """Residuals of: the curvature of the connection is the adjoint action of R."""
    b, r = a.chart.base_dim, a.chart.fiber_dim
    theta, ns = a.theta, range(r)
    for i, j in combinations(range(b), 2):
        for s in range(r):
            for t in range(r):
                yield -theta[j][s][t].diff(i) + theta[i][s][t].diff(j) + dot(
                    [*theta[j][s], *(-x for x in theta[i][s]), *(-x for x in a.R[i][j])],
                    [theta[i][n][t] for n in ns] + [theta[j][n][t] for n in ns]
                    + [a.lam[n][s][t] for n in ns])


def _covariant_closedness(a, C):
    """Residuals of the covariant closedness of a frame-valued base 2-form
    ``C[i][j][t]`` under the linear connection of ``a``: the Bianchi
    identity when C is R."""
    b, r = a.chart.base_dim, a.chart.fiber_dim
    for i, j, k in combinations(range(b), 3):
        cyclic = ((i, j, k), (j, k, i), (k, i, j))
        for t in range(r):
            yield FiberSeries.sum([C[v][w][t].diff(u) for u, v, w in cyclic]) - dot(
                [C[v][w][n] for _, v, w in cyclic for n in range(r)],
                [a.theta[u][n][t] for u, _, _ in cyclic for n in range(r)])


def _fiber_pairing(chart, coeffs):
    """The fiber-linear function sum_t coeffs[t] * x_t of a frame vector."""
    x = [FiberSeries.variable(chart, chart.base_dim + t) for t in range(chart.fiber_dim)]
    return dot(coeffs, x) if x else FiberSeries.zero(chart)


def build_geometric_data(a):
    """Geometric data induced by algebroid data: homogeneous connection,
    fiberwise linear vertical bivector, fiber-affine base 2-form."""
    if not a.admissibility.passed:
        raise ValueError("algebroid data is not admissible:\n" + a.admissibility.render())
    chart = a.chart
    b, r = chart.base_dim, chart.fiber_dim
    gamma = [[_fiber_pairing(chart, a.theta[i][s]) for s in range(r)] for i in range(b)]
    vertical = Multivector(chart, 2, {(b + s, b + s2): _fiber_pairing(chart, a.lam[s][s2])
                                      for s, s2 in combinations(range(r), 2)})
    fform = HForm(chart, 2, {(i, j): a.omega[i][j] - _fiber_pairing(chart, a.R[i][j])
                             for i, j in combinations(range(b), 2)})
    return GeometricData(Connection(chart, gamma), vertical, fform, a.omega_inv)


def build_coupling(a):
    """Coupling tensor of algebroid data (assemble of the induced data)."""
    return assemble(build_geometric_data(a))


def coisotropy_check(a, points):
    """
    At each exact rational base point: compute the kernel of the
    curvature 2-form as a subspace of the base tangent space, then check
    that its symplectic orthogonal is contained in it.
    """
    chart = a.chart
    b, r = chart.base_dim, chart.fiber_dim
    report = CheckReport("curvature-kernel-coisotropy")
    fiber_zeros = [Fraction(0)] * r
    for pt in points:
        pt = [Fraction(v) for v in pt]
        if len(pt) != b:
            raise ValueError("points must have base dimension %d" % b)
        full = pt + fiber_zeros
        rows = []
        for j in range(b):
            for s in range(r):
                rows.append([a.R[i][j][s].evaluate(full) for i in range(b)])
        kernel = linalg.nullspace(rows) if rows else [
            [Fraction(1 if t == i else 0) for t in range(b)] for i in range(b)]
        om = [[a.omega[i][j].evaluate(full) for j in range(b)] for i in range(b)]
        if kernel:
            orth_rows = [[sum(u[i] * om[i][j] for i in range(b)) for j in range(b)]
                         for u in kernel]
            orth = linalg.nullspace(orth_rows)
        else:
            orth = [[Fraction(1 if t == i else 0) for t in range(b)] for i in range(b)]
        ok = all(linalg.in_span(kernel, w) for w in orth)
        report.add("point-%s" % ",".join(str(v) for v in pt), "coiso",
                   None, ok,
                   "kernel dim %d, orthogonal dim %d" % (len(kernel), len(orth)))
    return report


class ConnectionChange:
    """A fiber-frame-valued base 1-form mu[i][s] of base polynomials."""

    def __init__(self, chart, mu):
        if len(mu) != chart.base_dim or any(len(row) != chart.fiber_dim for row in mu):
            raise ValueError("mu must be base_dim x fiber_dim")
        _require_xi_polynomial([m for row in mu for m in row], "mu")
        self.chart = chart
        self.mu = [list(row) for row in mu]


def _change_of_splitting(a, m):
    """(theta2, R2) after the change of splitting by mu.  theta2[i][s][t] is
    theta[i][s][t] - sum_n mu[i][n] lam[n][s][t]; R2, R plus the covariant exterior
    derivative of mu plus [mu_i, mu_j], is R[i][j][t] + d_i mu[j][t] - d_j mu[i][t]
    + sum_s (mu[i][s] theta[j][s][t] - mu[j][s] theta2[i][s][t]), the bracket in theta2."""
    b, r = a.chart.base_dim, a.chart.fiber_dim
    mu, ns = m.mu, range(r)
    theta2 = [[[a.theta[i][s][t] - dot(mu[i], [a.lam[n][s][t] for n in ns])
                for t in ns] for s in ns] for i in range(b)]
    R2 = [[[a.R[i][j][t] + mu[j][t].diff(i) - mu[i][t].diff(j)
            + dot([*mu[i], *(-x for x in mu[j])],
                  [a.theta[j][s][t] for s in ns] + [theta2[i][s][t] for s in ns])
            for t in ns] for j in range(b)] for i in range(b)]
    return theta2, R2


def change_connection(a, m):
    """
    Transform admissible data under a change of splitting by mu.

    The output must be admissible again; a failure here is an internal
    sign fault, not a data error.
    """
    if not a.admissibility.passed:
        raise ValueError("change_connection requires admissible input")
    theta2, R2 = _change_of_splitting(a, m)
    out = AlgebroidData(a.chart, a.lam, theta2, R2, a.omega, a.omega_inv)
    if not out.admissibility.passed:
        raise InternalInvariantError("transformed connection data failed admissibility:\n"
                                     + out.admissibility.render())
    return out


def verify_connection_equivalence(a, a2, m):
    """
    The induced geometric data of ``a`` and of ``a2``, the output of
    ``change_connection(a, m)``, are equivalent over the zero section: the
    connection and two-form relations of ``data_equivalence_check`` with
    the identity fiber map and the fiber-linear 1-form built from mu.
    """
    d1 = build_geometric_data(a)
    d2 = build_geometric_data(a2)
    phi = PhiForm(a.chart, [_fiber_pairing(a.chart, row) for row in m.mu])
    # the two share lambda, hence V, so the vertical relation holds trivially
    return CheckReport("connection-change-equivalence",
                       [e for e in data_equivalence_check(d1, d2, phi).entries
                        if e.tag != "equiv-vert"])


def relative_cocycle(a, a2, m):
    """
    The center-valued 2-form measuring the failure of (a2 minus a) to be
    a pure change of splitting by mu.

    Preconditions: ``a`` is admissible, the two share structure functions
    and base form, and their linear connections differ exactly by the
    adjoint action of mu.  Returns the frame-component array C[i][j][t]
    together with a report asserting that C is center-valued and
    covariantly closed, which fails when ``a2`` is not admissible.
    """
    chart = a.chart
    b, r = chart.base_dim, chart.fiber_dim
    if not a.admissibility.passed:
        raise ValueError("relative_cocycle requires admissible reference data")
    if not all((a.lam[s1][s2][n] - a2.lam[s1][s2][n]).is_zero()
               for s1 in range(r) for s2 in range(r) for n in range(r)):
        raise ValueError("relative cocycle requires shared structure functions")
    if not all((a.omega[i][j] - a2.omega[i][j]).is_zero() for i in range(b) for j in range(b)):
        raise ValueError("relative cocycle requires a shared base form")
    theta2, R2 = _change_of_splitting(a, m)
    if not all((a2.theta[i][s][t] - theta2[i][s][t]).is_zero()
               for i in range(b) for s in range(r) for t in range(r)):
        raise ValueError("the two connections do not differ by the "
                         "adjoint action of mu")
    C = [[[a2.R[i][j][t] - R2[i][j][t] for t in range(r)] for j in range(b)] for i in range(b)]

    report = CheckReport("relative-cocycle")
    # center-valuedness: the bracket of C_{ij} with every frame element vanishes
    report.add_residuals("center-valued", "cocycle-center",
                         (dot(C[i][j], [a.lam[t][s][n] for t in range(r)])
                          for i in range(b) for j in range(i + 1, b)
                          for s in range(r) for n in range(r)),
                         chart.trunc_order)
    report.add_residuals("covariantly-closed", "cocycle-closed",
                         _covariant_closedness(a, C), chart.trunc_order)
    return C, report


def cocycle_hform(a, C):
    """The fiber-linear 2-form with values pairing C against the fiber variables."""
    chart = a.chart
    return HForm(chart, 2, {(i, j): _fiber_pairing(chart, C[i][j])
                            for i, j in combinations(range(chart.base_dim), 2)})
