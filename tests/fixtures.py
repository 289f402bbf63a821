"""Shared fixture builders: canonical data sets and seeded random generators."""

import random
from fractions import Fraction

from fiberpoisson import (ChartSpec, FiberSeries, parse_series, Multivector,
                          HForm, Connection, GeometricData, AlgebroidData,
                          ConnectionChange, change_connection, PhiForm,
                          build_geometric_data)

EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
       (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}


def S(text, chart):
    return parse_series(text, chart)


def zeros(chart, *shape):
    if len(shape) == 1:
        return [FiberSeries.zero(chart) for _ in range(shape[0])]
    return [zeros(chart, *shape[1:]) for _ in range(shape[0])]


def flat_connection(chart):
    return Connection(chart, zeros(chart, chart.base_dim, chart.fiber_dim))


def std_omega(chart):
    """Block-diagonal standard symplectic matrix and its inverse."""
    b = chart.base_dim
    omega = zeros(chart, b, b)
    omega_inv = zeros(chart, b, b)
    one = FiberSeries.constant(chart, 1)
    for k in range(b // 2):
        i, j = 2 * k, 2 * k + 1
        omega[i][j] = one
        omega[j][i] = -one
        omega_inv[i][j] = -one
        omega_inv[j][i] = one
    return omega, omega_inv


def pq_omega(chart):
    """Cotangent-style symplectic matrix in (q..., p...) coordinate order."""
    b = chart.base_dim
    k = b // 2
    omega = zeros(chart, b, b)
    omega_inv = zeros(chart, b, b)
    one = FiberSeries.constant(chart, 1)
    for i in range(k):
        omega[i][k + i] = -one
        omega[k + i][i] = one
        omega_inv[i][k + i] = one
        omega_inv[k + i][i] = -one
    return omega, omega_inv


def so3_lambda(chart):
    return [[[FiberSeries.constant(chart, EPS.get((s, t, n), 0))
              for n in range(3)] for t in range(3)] for s in range(3)]


def e1_algebroid(trunc=4):
    """Abelian rank-1 data over a 2-dim base with unit curvature pairing."""
    chart = ChartSpec(2, 1, trunc)
    z = FiberSeries.zero(chart)
    one = FiberSeries.constant(chart, 1)
    omega, omega_inv = std_omega(chart)
    R = [[[z], [one]], [[-one], [z]]]
    return AlgebroidData(chart, [[[z]]], [[[z]], [[z]]], R, omega, omega_inv)


def e1_data(trunc=4):
    return build_geometric_data(e1_algebroid(trunc))


def so3_flat_algebroid(trunc=4, base_dim=2):
    chart = ChartSpec(base_dim, 3, trunc)
    omega, omega_inv = std_omega(chart)
    theta = zeros(chart, base_dim, 3, 3)
    R = zeros(chart, base_dim, base_dim, 3)
    return AlgebroidData(chart, so3_lambda(chart), theta, R, omega, omega_inv)


def wong_algebroid(trunc=4):
    """so(3) data over a 4-dim cotangent-style base, with connection and
    curvature depending on the first two (position) coordinates only."""
    chart = ChartSpec(4, 3, trunc)
    omega, omega_inv = pq_omega(chart)
    base = AlgebroidData(chart, so3_lambda(chart), zeros(chart, 4, 3, 3),
                         zeros(chart, 4, 4, 3), omega, omega_inv)
    z = FiberSeries.zero(chart)
    mu = ConnectionChange(chart, [[S("xi1", chart), S("xi2", chart), S("2", chart)],
                                  [S("xi2^2", chart), S("1", chart), S("xi1*xi2", chart)],
                                  [z, z, z], [z, z, z]])
    return change_connection(base, mu)


def vertical_from_matrix(chart, vmat):
    b = chart.base_dim
    comps = {}
    for s in range(chart.fiber_dim):
        for t in range(s + 1, chart.fiber_dim):
            if not vmat[s][t].is_zero():
                comps[(b + s, b + t)] = vmat[s][t]
    return Multivector(chart, 2, comps)


def so3_vertical(chart):
    """The fiberwise linear Poisson bivector of so(3) on a 3-dim fiber."""
    b = chart.base_dim
    x = [FiberSeries.variable(chart, b + s) for s in range(3)]
    vm = zeros(chart, 3, 3)
    for s in range(3):
        for t in range(3):
            acc = FiberSeries.zero(chart)
            for n in range(3):
                acc = acc + x[n].scale(EPS.get((s, t, n), 0))
            vm[s][t] = acc
    return vertical_from_matrix(chart, vm)


# -- seeded random generators -------------------------------------------


def rng(seed):
    return random.Random(seed)


def rand_fraction(r, lo=-3, hi=3, den=2):
    return Fraction(r.randint(lo, hi), r.randint(1, den))


def rand_xi_poly(r, chart, deg=2, terms=2, lo=-3, hi=3):
    """Random base polynomial (fiber independent)."""
    n = chart.n_vars
    b = chart.base_dim
    out = {}
    for _ in range(r.randint(0, terms)):
        exps = [0] * n
        for _ in range(r.randint(0, deg)):
            if b:
                exps[r.randrange(b)] += 1
        c = rand_fraction(r, lo, hi)
        if c:
            out[tuple(exps)] = out.get(tuple(exps), 0) + c
    return FiberSeries(chart, out)


def rand_series(r, chart, xdeg=2, terms=3, min_xdeg=0):
    """Random series with fiber degrees in [min_xdeg, xdeg]."""
    n = chart.n_vars
    b = chart.base_dim
    out = {}
    for _ in range(r.randint(0, terms)):
        exps = [0] * n
        for _ in range(r.randint(0, 2)):
            if b:
                exps[r.randrange(b)] += 1
        target = r.randint(min_xdeg, xdeg)
        for _ in range(target):
            if chart.fiber_dim:
                exps[b + r.randrange(chart.fiber_dim)] += 1
        if sum(exps[chart.base_dim:]) < min_xdeg:
            continue
        c = rand_fraction(r)
        if c:
            out[tuple(exps)] = out.get(tuple(exps), 0) + c
    return FiberSeries(chart, out)


def rand_multivector(r, chart, degree, xdeg=3, terms=2):
    from itertools import combinations
    idxs = list(combinations(range(chart.n_vars), degree))
    comps = {}
    for _ in range(r.randint(0, terms)):
        if not idxs:
            break
        comps[r.choice(idxs)] = rand_series(r, chart, xdeg=xdeg)
    return Multivector(chart, degree, comps)


def rand_mu(r, chart, deg=2):
    return ConnectionChange(chart, [
        [rand_xi_poly(r, chart, deg=deg, terms=2, lo=-2, hi=2)
         for _ in range(chart.fiber_dim)] for _ in range(chart.base_dim)])


def rand_admissible(r, trunc=3):
    """Random admissible algebroid data: a simple seed family transformed
    by one or two random changes of splitting."""
    kind = r.choice(["abelian1", "abelian2", "so3", "solvable"])
    base_dim = r.choice([2, 4] if kind in ("abelian1",) else [2])
    if kind == "abelian1":
        fiber = 1
    elif kind == "abelian2":
        fiber = 2
    elif kind == "solvable":
        fiber = 2
    else:
        fiber = 3
    chart = ChartSpec(base_dim, fiber, trunc)
    omega, omega_inv = std_omega(chart)
    if kind == "so3":
        lam = so3_lambda(chart)
    elif kind == "solvable":
        lam = zeros(chart, 2, 2, 2)
        one = FiberSeries.constant(chart, 1)
        lam[0][1][0] = one
        lam[1][0][0] = -one
    else:
        lam = zeros(chart, fiber, fiber, fiber)
    theta = zeros(chart, base_dim, fiber, fiber)
    R = zeros(chart, base_dim, base_dim, fiber)
    if kind.startswith("abelian"):
        # exact curvature d(beta) stays admissible for a flat connection
        beta = [[rand_xi_poly(r, chart) for _ in range(fiber)]
                for _ in range(base_dim)]
        for i in range(base_dim):
            for j in range(base_dim):
                for s in range(fiber):
                    R[i][j][s] = beta[j][s].diff(i) - beta[i][s].diff(j)
    a = AlgebroidData(chart, lam, theta, R, omega, omega_inv)
    for _ in range(r.randint(1, 2)):
        a = change_connection(a, rand_mu(r, chart))
    return a


def rand_geometric_data(r, trunc=3):
    """Random data satisfying only the structural invariants (used for
    round-trip tests; no integrability requirement)."""
    base_dim = r.choice([2, 4])
    fiber = r.choice([1, 2])
    chart = ChartSpec(base_dim, fiber, trunc)
    gamma = [[rand_series(r, chart, xdeg=2, terms=2)
              for _ in range(fiber)] for _ in range(base_dim)]
    vmat = zeros(chart, fiber, fiber)
    for s in range(fiber):
        for t in range(s + 1, fiber):
            vmat[s][t] = rand_series(r, chart, xdeg=2, terms=2)
            vmat[t][s] = -vmat[s][t]
    omega, omega_inv = std_omega(chart)
    fcomps = {}
    for i in range(base_dim):
        for j in range(i + 1, base_dim):
            entry = omega[i][j] + rand_series(r, chart, xdeg=2, terms=2, min_xdeg=1)
            if not entry.is_zero():
                fcomps[(i, j)] = entry
    fform = HForm(chart, 2, fcomps)
    return GeometricData(Connection(chart, gamma),
                         vertical_from_matrix(chart, vmat), fform, omega_inv)


def rand_valid_data(r, trunc=3):
    """Random data satisfying the full coupling conditions."""
    kind = r.choice(["algebroid", "closed-form", "vertical"])
    if kind == "algebroid":
        return build_geometric_data(rand_admissible(r, trunc))
    if kind == "closed-form":
        # flat connection, no vertical part, covariantly closed 2-form:
        # omega plus x-monomial multiples of exact base 2-forms
        chart = ChartSpec(r.choice([2, 4]), r.choice([1, 2]), trunc)
        omega, omega_inv = std_omega(chart)
        b = chart.base_dim
        fmat = [[omega[i][j] for j in range(b)] for i in range(b)]
        for _ in range(2):
            alpha = [rand_xi_poly(r, chart) for _ in range(b)]
            exps = [0] * chart.n_vars
            for _ in range(r.randint(1, 2)):
                exps[b + r.randrange(chart.fiber_dim)] += 1
            xmono = FiberSeries.monomial(chart, exps, rand_fraction(r))
            for i in range(b):
                for j in range(b):
                    d = (alpha[j].diff(i) - alpha[i].diff(j)) * xmono
                    fmat[i][j] = fmat[i][j] + d
        fcomps = {}
        for i in range(b):
            for j in range(i + 1, b):
                if not fmat[i][j].is_zero():
                    fcomps[(i, j)] = fmat[i][j]
        return GeometricData(flat_connection(chart),
                             Multivector.zero(chart, 2),
                             HForm(chart, 2, fcomps), omega_inv)
    # vertical: flat connection, constant base form, base-independent
    # vertical bivector on a fiber of dimension <= 2 (always Poisson)
    chart = ChartSpec(2, 2, trunc)
    omega, omega_inv = std_omega(chart)
    base_free = ChartSpec(0, 2, trunc)
    vxy = rand_series(r, base_free, xdeg=2, terms=3)
    lift = FiberSeries(chart, {(0, 0) + e: c for e, c in vxy.terms.items()})
    vmat = [[FiberSeries.zero(chart), lift], [-lift, FiberSeries.zero(chart)]]
    fcomps = {(0, 1): omega[0][1]}
    return GeometricData(flat_connection(chart), vertical_from_matrix(chart, vmat),
                         HForm(chart, 2, fcomps), omega_inv)


def rand_quad_family(r, trunc=4):
    """
    Coupling data and a 1-form phi whose family moves F by a {phi ^ phi}_V
    that is nonzero for most draws: a zero connection, the standard 2-form
    and, on a fiber of dimension 2, a base-independent vertical bivector with
    a nonzero fiber-constant term (always Poisson, and preserved by the lifts
    d_i).  phi has fiber degree 2 to 3, so the fiber-constant block of F_t is
    the data's at every t; phi_i holds a term x1^2 or x2^2 (i even or odd),
    which makes the Jacobian of (phi_0, phi_1) in the fiber nonzero.
    """
    chart = ChartSpec(r.choice([2, 4]), 2, trunc)
    b = chart.base_dim
    omega, omega_inv = std_omega(chart)
    vxy = rand_series(r, ChartSpec(0, 2, trunc), xdeg=2, terms=2, min_xdeg=1)
    v = (FiberSeries(chart, {(0,) * b + e: c for e, c in vxy.terms.items()})
         + Fraction(r.choice([-2, -1, 1, 2]), 2))
    zero = FiberSeries.zero(chart)
    vertical = vertical_from_matrix(chart, [[zero, v], [-v, zero]])
    data = GeometricData(flat_connection(chart), vertical, HForm.from_matrix(chart, omega),
                         omega_inv)
    squares = [(0,) * b + (2, 0), (0,) * b + (0, 2)]
    return data, PhiForm(chart, [rand_series(r, chart, xdeg=3, terms=3, min_xdeg=2)
                                 + FiberSeries.monomial(chart, squares[i % 2],
                                                        Fraction(r.choice([-2, -1, 1, 2]), 2))
                                 for i in range(b)])


def mutate_data(r, data):
    """Invariant-respecting perturbation that breaks the coupling
    conditions within certified order (low fiber degree injections)."""
    chart = data.chart
    b = chart.base_dim
    kind = r.choice(["fform-dclosed", "fform-linear", "vertical", "connection"])
    if kind == "fform-dclosed" and b >= 4:
        # fiber-linear term ruining covariant closedness at fiber degree 1
        fmat = data.fform.matrix()
        pert = S("xi3*x1", chart)
        fmat[0][1] = fmat[0][1] + pert
        fmat[1][0] = fmat[1][0] - pert
        fform = HForm.from_matrix(chart, fmat)
        return GeometricData(data.connection, data.vertical, fform,
                             data.fform_inv_seed)
    if kind == "vertical" and chart.fiber_dim >= 2:
        vmat = zeros(chart, chart.fiber_dim, chart.fiber_dim)
        pert = S("xi1*x1", chart)
        vmat[0][1] = pert
        vmat[1][0] = -pert
        vertical = data.vertical + vertical_from_matrix(chart, vmat)
        return GeometricData(data.connection, vertical, data.fform,
                             data.fform_inv_seed)
    if kind == "connection":
        gamma = [list(row) for row in data.connection.gamma]
        gamma[0][0] = gamma[0][0] + S("x1^2", chart) + S("xi2*x1", chart)
        return GeometricData(Connection(chart, gamma), data.vertical,
                             data.fform, data.fform_inv_seed)
    # fform-linear: fiber-linear term breaking the curvature identity
    fmat = data.fform.matrix()
    pert = S("x1", chart) + S("xi1*x1", chart)
    fmat[0][1] = fmat[0][1] + pert
    fmat[1][0] = fmat[1][0] - pert
    fform = HForm.from_matrix(chart, fmat)
    return GeometricData(data.connection, data.vertical, fform,
                         data.fform_inv_seed)


def rand_phi(r, data):
    chart = data.chart
    return PhiForm(chart, [rand_series(r, chart, xdeg=2, terms=2, min_xdeg=1)
                           for _ in range(chart.base_dim)])
