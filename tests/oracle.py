"""
Brute-force reference implementations used only as test oracles.

Multivectors are expanded into full component dictionaries over all
ordered index tuples (every permutation stored explicitly, no
canonicalization).  The bracket oracle works through the
decomposable-field formula

    [[X_1^..^X_p, Y_1^..^Y_q]] =
        sum_{k,m} (-1)^(k+m) [X_k, Y_m] ^ (X without k) ^ (Y without m)

with the Lie bracket of vector fields coded componentwise and the wedge
of a list of vector fields computed as an explicit signed permutation
sum.  Nothing here shares code with the optimized implementation beyond
the series ring itself.  The numeric references at the end integrate the
Moser flows and the holonomy transports one flow and one point at a time.
The reference parser expands every factor, number and variable included,
in the series ring, one ring product per '*' or '/'.
"""

import math
import re
from itertools import combinations, permutations, product

import numpy as np

from fiberpoisson import moser
from fiberpoisson.series import ChartSpec, FiberSeries, mat_mul
from fiberpoisson.connection import Connection
from fiberpoisson.coupling import GeometricData, assemble, verify_coupling_conditions
from fiberpoisson.linearize import _check_input
from fiberpoisson.algebroid import _covariant_closedness
from fiberpoisson.multivector import HForm, Multivector, jacobiator, schouten, wedge
from fiberpoisson.report import CheckReport, InternalInvariantError
from fiberpoisson.parse import (MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, MAX_POWER_BITS, MAX_TERMS,
                               ParseError)


def scaled(T, c):
    """The tensor T times the number c, component by component."""
    return type(T)(T.chart, T.degree, {i: s.scale(c) for i, s in T.comps.items()},
                   T.valid_order)


def perm_sign(perm):
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def expand_full(T):
    """All-permutations component dictionary of a multivector."""
    full = {}
    for idx, s in T.comps.items():
        for perm in permutations(range(len(idx))):
            key = tuple(idx[p] for p in perm)
            full[key] = s.scale(perm_sign(list(perm)))
    return full


class VField:
    """A plain vector field as a list of component series."""

    def __init__(self, chart, comps):
        self.chart = chart
        self.comps = list(comps)

    def apply(self, f):
        out = FiberSeries.zero(self.chart)
        for s, c in enumerate(self.comps):
            if not c.is_zero():
                out = out + c * f.diff(s)
        return out

    def lie(self, other):
        n = self.chart.n_vars
        comps = []
        for a in range(n):
            acc = FiberSeries.zero(self.chart)
            for s in range(n):
                acc = acc + self.comps[s] * other.comps[a].diff(s) \
                          - other.comps[s] * self.comps[a].diff(s)
            comps.append(acc)
        return VField(self.chart, comps)


def wedge_fields(chart, fields):
    """Full-array wedge of a list of vector fields:
    (X_1^..^X_p)^{i_1..i_p} = sum_sigma sgn(sigma) prod_k X_k^{i_sigma(k)}."""
    n = chart.n_vars
    p = len(fields)
    full = {}
    for key in product(range(n), repeat=p):
        acc = None
        for perm in permutations(range(p)):
            coeff = None
            for k in range(p):
                c = fields[k].comps[key[perm[k]]]
                coeff = c if coeff is None else coeff * c
                if coeff.is_zero():
                    break
            if coeff is None or coeff.is_zero():
                continue
            term = coeff.scale(perm_sign(list(perm)))
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            full[key] = acc
    return full


def decomposables(chart, T):
    """Write a multivector as a list of vector-field lists, one summand
    per stored monomial component (coefficient on the first field)."""
    out = []
    for idx, s in T.comps.items():
        fields = []
        for pos, a in enumerate(idx):
            comps = [FiberSeries.zero(chart) for _ in range(chart.n_vars)]
            comps[a] = s if pos == 0 else FiberSeries.constant(chart, 1)
            fields.append(VField(chart, comps))
        out.append(fields)
    return out


def oracle_schouten(A, B):
    """Reference Schouten bracket; returns a Multivector for comparison."""
    chart = A.chart
    p, q = A.degree, B.degree
    vo = min(A.valid_order, B.valid_order) - 1
    if p == 0 and q == 0:
        return Multivector.zero(chart, 0, vo)
    if p == 0:
        sign = 1 if q % 2 == 0 else -1
        return scaled(oracle_schouten(B, A), sign)
    result_full = {}

    def add_full(full, factor):
        for key, s in full.items():
            term = s.scale(factor)
            result_full[key] = result_full[key] + term if key in result_full else term

    if q == 0:
        g = B.comps.get((), FiberSeries.zero(chart, B.valid_order))
        for fields in decomposables(chart, A):
            for k in range(p):
                coeff = fields[k].apply(g)
                if coeff.is_zero():
                    continue
                sign = 1 if (p - k - 1) % 2 == 0 else -1
                if p == 1:
                    term = coeff.scale(sign)
                    result_full[()] = result_full.get((), FiberSeries.zero(chart)) + term
                    continue
                rest = fields[:k] + fields[k + 1:]
                first = VField(chart, [c * coeff for c in rest[0].comps])
                add_full(wedge_fields(chart, [first] + rest[1:]), sign)
        return _collect(chart, p - 1, result_full, vo)

    for fieldsA in decomposables(chart, A):
        for fieldsB in decomposables(chart, B):
            for k in range(p):
                for m in range(q):
                    bracket = fieldsA[k].lie(fieldsB[m])
                    rest = fieldsA[:k] + fieldsA[k + 1:] + fieldsB[:m] + fieldsB[m + 1:]
                    sign = 1 if (k + m) % 2 == 0 else -1
                    add_full(wedge_fields(chart, [bracket] + rest), sign)
    return _collect(chart, p + q - 1, result_full, vo)


def _collect(chart, degree, full, vo):
    comps = {}
    for key, s in full.items():
        if len(set(key)) != len(key) or tuple(sorted(key)) != key:
            continue
        if not s.is_zero():
            comps[key] = s
    return Multivector(chart, degree, comps, vo)


def oracle_jacobiator(P):
    return oracle_schouten(P, P)


# -- the coupling criterion -----------------------------------------------
#
# The paper's criterion as a biconditional over the library's own verifier
# and Jacobiator: not an independent reference, but the statement that the
# acceptance tests check on valid and mutated data.

def certified_order(report):
    """The least certified order of a report's required entries, or None."""
    orders = [e.certified_order for e in report.entries
              if e.required and e.certified_order is not None]
    return min(orders) if orders else None


def coupling_criterion_test(data):
    """Both sides of the coupling criterion: the four conditions hold iff
    the assembled bivector has vanishing Jacobiator (at certified order)."""
    conditions = data.conditions
    tensor = assemble(data)
    jac = jacobiator(tensor.pi)
    report = CheckReport("coupling-criterion-biconditional")
    report.add("conditions", "cond-all", certified_order(conditions),
               conditions.passed,
               "; ".join(e.residual for e in conditions.entries if not e.passed) or "0")
    report.add_residuals("jacobiator", "jacobi", [jac], None)
    agree = conditions.passed == jac.is_zero()
    report.add("biconditional", "iff", min(certified_order(conditions), jac.valid_order),
               agree, "0" if agree else "sides disagree")
    return report


def sample_conditions(fam):
    """A homotopy family's coupling conditions checked member by member: one
    entry per sample with a non-degenerate member, each the verdict of
    ``verify_coupling_conditions`` on that member.  The reference for
    ``HomotopyFamily.conditions``, which checks the coefficients of the
    powers of t instead."""
    report = CheckReport("sample-coupling-conditions")
    for t in fam.t_samples:
        member = fam.member(t)
        if member is not None:
            conditions = verify_coupling_conditions(member)
            report.add("conditions-at-t=%s" % t, "cond-all", certified_order(conditions),
                       conditions.passed)
    return report


def deformation_residual(fam, t):
    """[[X_t^h, Pi_t]] + dPi_t/dt at a sample t with a non-degenerate member,
    every factor of dPi_t/dt formed at the member's order: H = -F_t^{-1},
    dF_t/dt from the coefficients of the powers of t, the full product
    dH = H dF_t/dt H, the horizontal bivector of dH, and the moved term
    sum_{i,j} H_ij m_i ^ hor_t(d_j) by wedges of fields, m_i = sum_s C_is d_(x s)
    for the family's corrections C, and the bracket of X_t^h with the assembled
    Pi_t.  The reference for part 2 of ``verify_deformation_equation``, which
    forms the residual's blocks in the frame of the lifts."""
    member = fam.member(t)
    chart, b = fam.chart, fam.chart.base_dim
    H = [[-h for h in row] for row in member.fform_inverse]
    dF = [[moser._t_poly([c.scale(k) for k, c in enumerate(cs) if k], t) for cs in row]
          for row in fam.fform_t]
    dH = mat_mul(mat_mul(H, dF), H)
    vo = min(min(h.valid_order for row in H for h in row), fam.data.vertical.valid_order)
    dpi = member.connection.horizontal_bivector(dH, vo)
    hor = [hor_lift(member.connection, j) for j in range(b)]
    moved = [Multivector(chart, 1, {(b + s,): c for s, c in enumerate(row)})
             for row in fam.corrections]
    for i, j in product(range(b), repeat=2):
        dpi = dpi + wedge(wedge(Multivector(chart, 0, {(): H[i][j]}), moved[i]), hor[j])
    Xh = moser.horizontal_field(fam, t, moser.solve_homological(fam, t))
    return schouten(Xh, assemble(member).pi) + dpi


def frame_blocks(conn, P):
    """The blocks of a bivector P in the frame (hor(d_i), d_(x u)) of a
    connection: its values on the dual coframe dxi_i, dx_u + sum_i gamma_iu dxi_i,
    as the full matrices HH (b x b), HV (b x r) and VV (r x r).  The reference
    for the blocks of ``moser._frame_residual``."""
    chart = conn.chart
    b, r = chart.base_dim, chart.fiber_dim
    full = expand_full(P)
    one = FiberSeries.constant(chart, 1)
    coframe = [{i: one} for i in range(b)] + [
        {**{i: conn.gamma[i][u] for i in range(b)}, b + u: one} for u in range(r)]

    def value(alpha, beta):
        acc = FiberSeries.zero(chart, P.valid_order)
        for a, x in alpha.items():
            for c, y in beta.items():
                if (a, c) in full:
                    acc = acc + x * y * full[a, c]
        return acc

    return ([[value(coframe[i], coframe[j]) for j in range(b)] for i in range(b)],
            [[value(coframe[i], coframe[b + u]) for u in range(r)] for i in range(b)],
            [[value(coframe[b + s], coframe[b + u]) for u in range(r)] for s in range(r)])


def frame_to_coordinates(conn, H, hh, hv, vv):
    """The bivector whose frame blocks in the frame (hor(d_i), d_(x u)) of a
    connection, multiplied by F_t as in ``moser._frame_residual``, are R_HH
    (entries i < j), R_HV and VV: with H = -F_t^{-1}, HH = H R_HH H and
    HV = H R_HV, the sum of HH_ij hor(d_i) ^ hor(d_j) over i < j, of
    HV_iu hor(d_i) ^ d_(x u) and of VV, by wedges of fields.  The reference
    for ``moser._coordinates``."""
    chart, b = conn.chart, conn.chart.base_dim
    zero, one = FiberSeries.zero(chart), FiberSeries.constant(chart, 1)
    R = [[hh[i, j] if i < j else -hh[j, i] if i > j else zero for j in range(b)]
         for i in range(b)]
    HH, HV = mat_mul(mat_mul(H, R), H), mat_mul(H, hv)
    hor = [hor_lift(conn, i) for i in range(b)]
    out = vv
    for i, j in combinations(range(b), 2):
        out = out + wedge(wedge(Multivector(chart, 0, {(): HH[i][j]}), hor[i]), hor[j])
    for i, row in enumerate(HV):
        for u, x in enumerate(row):
            out = out + wedge(wedge(Multivector(chart, 0, {(): x}), hor[i]),
                              Multivector(chart, 1, {(b + u,): one}))
    return out


def neumann_invert(M, M0_inv):
    """G = sum_m (-M0_inv dM)^m M0_inv for any square series matrix
    M = M0 + dM, dM of fiber degree >= 1, with every entry of every term
    formed: the general expansion, certified at the least order of M and
    M0_inv.  The reference for ``series.matrix_invert``, which takes an
    antisymmetric M and forms only the entries i < j."""
    vo = min(s.valid_order for A in (M, M0_inv) for row in A for s in row)
    dM = [[a - a.fiber_part(0, 0) for a in row] for row in M]
    K = [[-k for k in row] for row in mat_mul(M0_inv, dM)]
    G = [[a.truncate(vo) for a in row] for row in M0_inv]
    P = G
    for _ in range(vo):
        P = mat_mul(K, P)
        if all(a.is_zero() for row in P for a in row):
            break
        G = [[g + p for g, p in zip(rg, rp)] for rg, rp in zip(G, P)]
    return G


# -- the curvature and admissibility by their generic definitions ----------
#
# The library forms the curvature by its coordinate formula, adm-1 over the
# pairs s1 < s2 only and each residual as one signed dot.  These are the
# definitions it replaced: the bracket of two horizontal lifts, and adm-1 at
# every ordered (s1, s2) and adm-2 at every i < j as plain sums of products.
# The library holds a lift as the terms of ``Connection.lifts``; the field
# here is written straight from the coefficients.

def hor_lift(conn, i):
    """The vector field hor(d_i) = d_i - sum_s gamma[i][s] d_(x s), certified at
    the least order of all the connection's coefficients (the chart's with none)."""
    chart = conn.chart
    comps = {(i,): FiberSeries.constant(chart, 1)}
    comps.update(((chart.base_dim + s,), -g) for s, g in enumerate(conn.gamma[i]))
    order = min((g.valid_order for row in conn.gamma for g in row), default=chart.trunc_order)
    return Multivector(chart, 1, comps, order)


def curvature(conn):
    """Curv_{ij} = -[hor(i), hor(j)] by the generic Schouten bracket, for
    i < j; the bracket of two lifts must come out vertical."""
    b = conn.chart.base_dim
    lifts = [hor_lift(conn, i) for i in range(b)]
    out = {}
    for i, j in combinations(range(b), 2):
        c = -schouten(lifts[i], lifts[j])
        assert c.is_vertical(), "curvature of a connection must be vertical"
        out[(i, j)] = c
    return out


def bracket_preservation(a):
    """adm-1 at every (i, s1, s2, t)."""
    b, r = a.chart.base_dim, a.chart.fiber_dim
    lam, theta = a.lam, a.theta
    for i, s1, s2, t in product(range(b), range(r), range(r), range(r)):
        terms = [lam[s1][s2][t].diff(i)]
        for n in range(r):
            terms += [theta[i][s1][n] * lam[n][s2][t], theta[i][s2][n] * lam[s1][n][t],
                      -(lam[s1][s2][n] * theta[i][n][t])]
        yield FiberSeries.sum(terms)


def curvature_defect(a):
    """adm-2 at every (i, j, s, t) with i < j."""
    b, r = a.chart.base_dim, a.chart.fiber_dim
    theta = a.theta
    for (i, j), s, t in product(combinations(range(b), 2), range(r), range(r)):
        terms = [theta[i][s][t].diff(j), -theta[j][s][t].diff(i)]
        for n in range(r):
            terms += [theta[j][s][n] * theta[i][n][t], -(theta[i][s][n] * theta[j][n][t]),
                      -(a.R[i][j][n] * a.lam[n][s][t])]
        yield FiberSeries.sum(terms)


def admissibility(a):
    """The ``check_admissible`` report with adm-1 and adm-2 enumerated in full."""
    order = a.chart.trunc_order
    report = CheckReport("algebroid-admissibility")
    report.add_residuals("connection-preserves-bracket", "adm-1", bracket_preservation(a), order)
    report.add_residuals("curvature-is-adjoint-of-R", "adm-2", curvature_defect(a), order)
    report.add_residuals("bianchi", "adm-3", _covariant_closedness(a, a.R), order)
    return report


# -- the linearization as a degree filter ----------------------------------
#
# linearize_data builds the data of the leaf's algebroid; the same data are
# the fiber-linear parts of the connection and the vertical bivector and the
# fiber-affine part of the 2-form, filtered term by term.

def degree_filter(data):
    """
    Fiber-linear truncation of zero-section-compatible geometric data.

    The output keeps the fiber-linear parts of the connection and the
    vertical bivector and the fiber-affine part of the 2-form; for a
    chart order >= 2 it is verified to satisfy the coupling conditions.
    Raises ValueError if the input fails them.
    """
    _check_input(data)
    chart = data.chart
    gamma = [[g.fiber_part(1, 1) for g in row] for row in data.connection.gamma]
    vertical = data.vertical.fiber_part(1, 1)
    fform = HForm(chart, 2,
                  {idx: s.fiber_part(0, 1) for idx, s in data.fform.comps.items()},
                  data.fform.valid_order)
    out = GeometricData(Connection(chart, gamma), vertical, fform,
                        data.fform_inv_seed)
    if chart.trunc_order >= 2 and not out.conditions.passed:
        raise InternalInvariantError("linearized data fails the coupling "
                                     "conditions:\n" + out.conditions.render())
    return out


# -- numeric references ---------------------------------------------------
#
# The scalar RK4 loops the numeric checks were first written with: one flow
# and one stage point at a time, each series evaluated term by term.  They
# share no code with the compiled evaluator or the batched integrators.


def float_value(s, point):
    """Float value of a series at a point, summed term by term."""
    total = 0.0
    for exps, c in sorted(s.terms.items()):
        v = float(c)
        for x, e in zip(point, exps):
            if e:
                v *= x ** e
        total += v
    return total


def _rk4(f, y, h, t0, tm, t1):
    k1 = f(t0, y)
    k2 = f(tm, y + h / 2 * k1)
    k3 = f(tm, y + h / 2 * k2)
    k4 = f(t1, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def family_rhs(fam, t, z):
    """The horizontal deformation field of a homotopy family at (t, z), with
    F_t = F - t dphi - t^2/2 quad and Gamma_t = Gamma - t corrections
    evaluated term by term."""
    b, r = fam.chart.base_dim, fam.chart.fiber_dim

    def fform_t(i, j):
        return (float_value(fam.data.fform.component((i, j)), z)
                - t * float_value(fam.dphi.component((i, j)), z)
                - t * t / 2 * float_value(fam.quad.component((i, j)), z))

    def gamma_t(i, s):
        return (float_value(fam.data.connection.gamma[i][s], z)
                - t * float_value(fam.corrections[i][s], z))

    F = np.array([[fform_t(i, j) for j in range(b)] for i in range(b)])
    phi = np.array([float_value(p, z) for p in fam.phi.phi])
    X = np.linalg.solve(F.T, phi)
    dz = np.zeros(b + r)
    dz[:b] = X
    for s in range(r):
        for i in range(b):
            dz[b + s] -= X[i] * gamma_t(i, s)
    return dz


def moser_flow(fam, z0, steps, chart_bound=1e6):
    """(endpoint, None) of the time-1 flow from z0, or (None, k) when it
    leaves the chart at step k."""
    z = np.array(z0, dtype=float)
    h = 1.0 / steps
    for k in range(steps):
        t = k * h
        z = _rk4(lambda s, y: family_rhs(fam, s, y), z, h, t, t + h / 2, t + h)
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > chart_bound:
            return None, k
    return z, None


def _path_grid(path, steps):
    nseg = path.n_segments
    per = max(1, -(-steps // nseg))
    h = 1.0 / (nseg * per)
    for k in range(nseg):
        start, vel = path.segment(k)
        seg = vel / nseg
        for m in range(per):
            yield (h, vel, start + (m / per) * seg, start + ((m + 0.5) / per) * seg,
                   start + ((m + 1.0) / per) * seg)


def _generator(theta, chart, xi, vel):
    b, r = chart.base_dim, chart.fiber_dim
    z = list(xi) + [0.0] * r
    M = np.zeros((r, r))
    for i in range(b):
        for s in range(r):
            for t in range(r):
                M[t][s] += vel[i] * float_value(theta[i][s][t], z)
    return M


def transport_grid(a, path, steps, theta=None):
    """Every grid solution of the parallel-transport system."""
    theta = a.theta if theta is None else theta
    P = np.eye(a.chart.fiber_dim)
    out = [P]
    for h, vel, x_a, x_b, x_c in _path_grid(path, steps):
        P = _rk4(lambda x, y: _generator(theta, a.chart, x, vel) @ y, P, h, x_a, x_b, x_c)
        out.append(P)
    return out


def holonomy_deviation(a, a2, m, path, steps):
    """max over the grid of |P~ - P T|, with P, P~ the transports of the
    connections of ``a`` and ``a2`` and T the comparison operator; raises
    FloatingPointError at the first step whose deviation is not finite."""
    chart = a.chart
    b, r = chart.base_dim, chart.fiber_dim

    def ad_mu(xi, vel):
        z = list(xi) + [0.0] * r
        muval = [sum(vel[i] * float_value(m.mu[i][n], z) for i in range(b))
                 for n in range(r)]
        A = np.zeros((r, r))
        for n in range(r):
            for s in range(r):
                for t in range(r):
                    A[t][s] += muval[n] * float_value(a.lam[n][s][t], z)
        return A

    def joint_rhs(xi, vel, state):
        P, Pt, T = state
        Xi = np.linalg.solve(P, ad_mu(xi, vel) @ P)
        return np.stack((_generator(a.theta, chart, xi, vel) @ P,
                         _generator(a2.theta, chart, xi, vel) @ Pt, -Xi @ T))

    state = np.stack((np.eye(r), np.eye(r), np.eye(r)))
    dev = 0.0
    for k, (h, vel, x_a, x_b, x_c) in enumerate(_path_grid(path, steps)):
        with np.errstate(all="ignore"):
            state = _rk4(lambda x, y: joint_rhs(x, vel, y), state, h, x_a, x_b, x_c)
            P, Pt, T = state
            gap = float(np.max(np.abs(Pt - P @ T)))
        if not math.isfinite(gap):
            raise FloatingPointError("deviation not finite at step %d" % k)
        dev = max(dev, gap)
    return dev


# -- reference parser ----------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>xi\d+|x\d+)|(?P<op>[-+*/^()]))")


class _ReferenceParser:
    """Recursive descent over the grammar of ``fiberpoisson.parse``.  A
    value is a pair (series, deg) on a chart of order at least
    MAX_EXPONENT, so no term is dropped before the end; every factor is a
    series and every '*' a ring product, as is every '/' with the
    reciprocal of its divisor, checked before the work against
    MAX_POWER_BITS (a written '*' or '/' only), MAX_TERMS and MAX_EXPONENT;
    a digit run longer than MAX_DIGITS is never converted.
    The bounds on numbers and on term counts see the operands truncated at
    the caller's order."""

    def __init__(self, text, chart):
        self.order = chart.trunc_order
        self.chart = ChartSpec(chart.base_dim, chart.fiber_dim,
                               max(chart.trunc_order, MAX_EXPONENT))
        tokens, end = [], 0
        for m in iter(_TOKEN.scanner(text).match, None):
            tokens.append((m.lastgroup, m[m.lastindex], m.start(m.lastindex)))
            end = m.end()
        rest = text[end:].lstrip()
        if rest:
            raise ParseError("unexpected character %r" % rest[0], len(text) - len(rest))
        self.tokens = tokens + [(None, None, len(text))]
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError("unexpected trailing input %r" % val, pos)
        return value[0]

    def expr(self):
        kind, val, pos = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        total, deg = FiberSeries.zero(self.chart), 0
        while True:
            term, tdeg = self.term()
            deg = max(deg, tdeg)
            total = total - term if negate else total + term
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                negate = val == "-"
            else:
                return total, deg

    def term(self):
        value = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                factor = self.factor() if val == "*" else self.reciprocal()
                (na, da), (nb, db) = self.bits(value[0]), self.bits(factor[0])
                if na + nb > MAX_POWER_BITS or da + db > MAX_POWER_BITS:
                    raise ParseError("product of more than %d digits" % MAX_DIGITS, pos)
                value = self.product(value, factor, pos)
            else:
                return value

    def reciprocal(self):
        """1/d for the divisor d after a '/', a factor whose tokens are
        numbers, '-' and '^' alone; d must be nonzero."""
        first = self.i
        kind, val, pos = self.peek()
        if kind != "num" and val != "-":
            raise ParseError("expected an integer denominator", pos)
        value, deg = self.factor()
        if any(k == "var" or v == "(" for k, v, _ in self.tokens[first:self.i]):
            raise ParseError("expected an integer denominator", pos)
        if value.is_zero():
            raise ParseError("zero denominator", pos)
        return FiberSeries.constant(self.chart, 1 / value.constant_term()), deg

    def bits(self, series):
        """The bit lengths of the largest numerator and of the largest
        denominator of the kept coefficients."""
        kept = series.truncate(self.order).terms.values()
        return (max((c.numerator.bit_length() for c in kept), default=0),
                max((c.denominator.bit_length() for c in kept), default=0))

    def product(self, a, b, pos):
        (sa, da), (sb, db) = a, b
        if len(sa.truncate(self.order).terms) * len(sb.truncate(self.order).terms) > MAX_TERMS:
            raise ParseError("product of more than %d terms" % MAX_TERMS, pos)
        if da + db > MAX_EXPONENT:
            raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
        return sa * sb, da + db

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            value, deg = self.nested(pos, self.factor)
            return -value, deg
        value = self.atom()
        while True:
            kind, val, caret = self.peek()
            if not (kind == "op" and val == "^"):
                return value
            self.next()
            kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("expected an integer exponent", pos)
            n = int(val) if len(val) <= MAX_DIGITS else MAX_EXPONENT + 1
            if n > MAX_EXPONENT:
                raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
            if n * max(self.bits(value[0])) > MAX_POWER_BITS:
                raise ParseError("power of more than %d digits" % MAX_DIGITS, caret)
            base = value
            value = base if n else (FiberSeries.constant(self.chart, 1), 0)
            for _ in range(n - 1):
                value = self.product(value, base, pos)

    def nested(self, pos, read):
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested deeper than %d levels" % MAX_NESTING, pos)
        self.depth += 1
        value = read()
        self.depth -= 1
        return value

    def atom(self):
        kind, val, pos = self.next()
        if kind == "op" and val == "(":
            value = self.nested(pos, self.expr)
            kind, val, pos = self.next()
            if kind != "op" or val != ")":
                raise ParseError("expected %r" % ")", pos)
            return value
        if kind == "num":
            if len(val) > MAX_DIGITS:
                raise ParseError("number longer than %d digits" % MAX_DIGITS, pos)
            return FiberSeries.constant(self.chart, int(val)), 0
        if kind == "var":
            base = val.startswith("xi")
            digits = val[2 if base else 1:]
            k = int(digits) - 1 if len(digits) <= MAX_DIGITS else -1
            if not 0 <= k < (self.chart.base_dim if base else self.chart.fiber_dim):
                raise ParseError("unknown variable %r" % val, pos)
            return FiberSeries.variable(self.chart, k if base else self.chart.base_dim + k), 1
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError("unexpected token %r" % val, pos)


def reference_parse(text, chart):
    """``parse_series`` through the ring: expand exactly, then truncate."""
    return FiberSeries(chart, dict(_ReferenceParser(text, chart).parse().terms))
