"""
Neighborhood-equivalence machinery: homotopy families of geometric data,
the homological equation, exact verification of the deformation identity
and of the equivalence of two data sets under a fiber map and the gauge
action of a 1-form, and a numeric pullback check along the time-1 flow.

The family built from data (Gamma, V, F) and a base 1-form phi vanishing
on the zero section is

    Gamma_t = Gamma - t (V# dphi)^h,
    F_t     = F - t dGamma(phi) - (t^2/2) {phi ^ phi}_V,

polynomial in the homotopy parameter t.  A family holds the coefficients
of these polynomials and its rational samples; each member (Gamma_t, V,
F_t) is evaluated from them at its first read.  The members' coupling
conditions are checked once for every t, on the coefficients of the powers
of t of their residuals (``HomotopyFamily.conditions``).  The
deformation field X_t solves X_t | F_t = phi; its horizontal lift drags
the assembled tensor along the family.  Part 1 of the verification is
the reduction of that statement to the exact identity

    dGamma_t(phi) = dGamma(phi) + t {phi ^ phi}_V,

checked identically in t; Part 2 checks the full deformation equation
[[X_t^h, Pi_t]] + dPi_t/dt = 0 at the family's own samples, in the frame
(h_i, d_(x u)), h_i = hor_t(d_i).  That frame is unitriangular over the
coordinate frame, so the residual vanishes exactly when its blocks do.  With
H = -F_t^{-1}, rho_ij = Curv_ij - V# dF_ij the member's cond-4 residual and C
the corrections, Cartan's formula L_X = d i_X + i_X d and X_t | F_t = phi give

    R_HH = F_t HH F_t = dF_t/dt + dGamma_t(phi) + X_t | dGamma_t F_t,
    R_HV_ju = -(F_t HV)_ju = C_ju - (V# dphi_j)^u - sum_i X^i rho_ij^u,
    VV = sum_i X^i [h_i, V]:

X_t contracted into the member's ``coupling_residuals``, plus terms of phi,
with no inverse and no derivative of X_t.  dF_t/dt + dGamma_t(phi) is part 1's
residual, and C - V# dphi is zero by the definition of C.
"""

import functools
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np

from .series import (FiberSeries, FloatEvaluator, block_inverse, dot, mat_antisymmetric,
                     mat_fiber_zero_part, mat_identity, mat_mul, mat_neg)
from .multivector import Multivector, HForm, _collect
from .connection import Connection, exterior_derivative, lift_curvature
from .coupling import GeometricData, coupling_residuals, lift_brackets, v_sharp
from .report import CheckReport, InternalInvariantError

DEFAULT_T_SAMPLES = (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                     Fraction(3, 4), Fraction(1))
# the shift of the finite-difference flows that give the flow's Jacobian
FD_DELTA = 1e-5


class PhiForm:
    """A base 1-form with function values vanishing on the zero section."""

    def __init__(self, chart, phi):
        if len(phi) != chart.base_dim:
            raise ValueError("phi needs one component per base direction")
        for p in phi:
            if p.chart != chart:
                raise ValueError("phi component on a different chart")
            if not p.fiber_part(0, 0).is_zero():
                raise ValueError("phi must vanish on the zero section "
                                 "(no fiber-constant terms)")
        self.chart = chart
        self.phi = list(phi)

    def hform(self):
        return HForm(self.chart, 1, {(i,): p for i, p in enumerate(self.phi)
                                     if not p.is_zero()})


def phi_bracket(phi1, phi2, V):
    """
    The quadratic form bracket {phi1 ^ phi2}_V as a base 2-form:

        {phi1 ^ phi2}_V(u_i, u_j) = V(d phi1(u_i), d phi2(u_j))
                                  - V(d phi1(u_j), d phi2(u_i)).

    Formulas in this package use half of this object, which for
    phi1 = phi2 = l(mu) equals the fiberwise pairing of [mu_i, mu_j].
    """
    chart = V.chart
    if not V.is_vertical():
        raise ValueError("phi_bracket needs a vertical bivector")
    if phi1.chart != chart or phi2.chart != chart:
        raise ValueError("phi lives on a different chart")
    return _pairing(V, _fiber_sharps(V, phi1), phi1, phi2)


def _fiber_sharps(V, phi):
    """The fiber components (V# dphi_i)^t of the components phi_i."""
    b, n = V.chart.base_dim, V.chart.n_vars
    return [[w.component((t,)) for t in range(b, n)] for w in (v_sharp(V, p) for p in phi.phi)]


def _pairing(V, sharp, phi1, phi2):
    """{phi1 ^ phi2}_V from the fiber components ``sharp`` of V# dphi1."""
    b, n = V.chart.base_dim, V.chart.n_vars
    comps = {}
    if not V.is_zero():
        # V(dphi1_i, dphi2_j) = sum_t (V# dphi1_i)^t d_t phi2_j over the fiber directions t
        dphi2 = [[p.diff(t) for t in range(b, n)] for p in phi2.phi]
        signs = [1] * (n - b) + [-1] * (n - b)
        comps = {(i, j): dot(sharp[i] + sharp[j], dphi2[j] + dphi2[i], signs)
                 for i, j in combinations(range(b), 2)}
    vo = min(V.valid_order, min(p.valid_order for p in phi1.phi + phi2.phi) - 1)
    return HForm(V.chart, 2, comps, vo)


def gauge_terms(data, phi):
    """
    The terms by which phi moves geometric data (Gamma, V, F) to
    (Gamma - (V# dphi)^h, V, F - dGamma(phi) - 1/2 {phi ^ phi}_V): the
    fiber components ``corrections[i][s]`` of V# dphi_i, then dGamma(phi)
    and {phi ^ phi}_V, which pairs the same components.
    """
    corrections = _fiber_sharps(data.vertical, phi)
    return (corrections, data.connection.cov_ext_deriv(phi.hform()),
            _pairing(data.vertical, corrections, phi, phi))


def _t_poly(coeffs, t):
    """
    sum_k t^k coeffs[k]: an entry of F_t, Gamma_t or dF_t/dt from the series
    coefficients of its powers of t.  Trailing zero coefficients are skipped,
    so an absent higher term of the family does not lower the certified
    order; an all-zero entry is a zero at the chart order.
    """
    chart = coeffs[0].chart
    while coeffs and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    return FiberSeries.sum([FiberSeries.zero(chart)]
                           + [c.scale(t ** k) for k, c in enumerate(coeffs)])


class HomotopyFamily:
    """
    The family of data (Gamma, V, F) moved by phi, held as its gauge terms
    (``corrections``, ``dphi`` and ``quad``, see ``gauge_terms``) with its
    rational ``t_samples``.  ``fform_t[i][j]`` and ``gamma_t[i][s]`` hold the
    coefficients of the powers of t in the entries of F_t and Gamma_t; the
    matrix C = ``corrections`` is held once, and the t^1 coefficient of
    hor_t(d_i) is sum_s C_is d_(x s).  ``member(t)`` is
    the geometric data at a sample, built at its first read, and
    ``degenerate_samples`` are the samples without one; ``member_errors`` holds
    why each of those read so far has none, in ``block_inverse``'s words.
    """

    def __init__(self, data, phi, t_samples):
        self.data = data
        self.phi = phi
        self.chart = data.chart
        self.corrections, self.dphi, self.quad = gauge_terms(data, phi)
        self.fform_t = [[[f, -self.dphi.component((i, j)),
                          self.quad.component((i, j)).scale(Fraction(-1, 2))]
                         for j, f in enumerate(row)] for i, row in enumerate(data.fform.matrix())]
        self.gamma_t = [[[g, -c] for g, c in zip(row, corr)]
                        for row, corr in zip(data.connection.gamma, self.corrections)]
        self.t_samples = tuple(dict.fromkeys(Fraction(t) for t in t_samples))
        self._members, self.member_errors = {}, {}

    def member(self, t):
        """
        The geometric data (Gamma_t, V, F_t) at sample t, or None where the
        fiber-constant block of F_t is singular or its inverse cannot be
        certified; built on the first call and kept.  A t that is not one of
        ``t_samples`` raises ValueError: no member is built there.
        """
        key = Fraction(t)
        if key not in self.t_samples:
            raise ValueError("t=%s is not one of the family's samples" % t)
        if key not in self._members:
            self._members[key] = self._build_member(key)
        return self._members[key]

    @property
    def degenerate_samples(self):
        return [t for t in self.t_samples if self.member(t) is None]

    def _build_member(self, t):
        F = {(i, j): f for i, j in combinations(range(self.chart.base_dim), 2)
             if (f := _t_poly(self.fform_t[i][j], t))}  # antisymmetric by construction
        gamma = [[_t_poly(cs, t) for cs in row] for row in self.gamma_t]
        data, seed = self.data, self.data.fform_inv_seed
        try:
            connection, fform = Connection(self.chart, gamma), HForm(self.chart, 2, F)
            # the seed certifies the data's block at the data's order, so it
            # certifies the same block at any order up to that one
            block = mat_fiber_zero_part(data.fform.matrix())
            if mat_fiber_zero_part(fform.matrix()) == [[a.truncate(fform.valid_order)
                                                        for a in row] for row in block]:
                return GeometricData._with_certified_seed(connection, data.vertical, fform, seed)
            return GeometricData(connection, data.vertical, fform)
        except ValueError as exc:
            self.member_errors[t] = "F_t at t=%s: %s" % (t, exc)
            return None

    @functools.cached_property
    def conditions(self):
        """
        The coupling conditions of every member, checked once for all t.
        With Gamma_t = Gamma - t C and F_t = F + t F1 + t^2 F2, each
        condition's residual is a polynomial in t of degree at most 3.  Its
        t^0 coefficient is the data's own residual, and cond-1 has no other,
        as V is shared; this report holds the coefficients of t^1 to t^3:

          cond-2  [sum_s C_is d_(x s), V];
          cond-3  t^k: dGamma F_k + sum_j (-1)^j C_{i_j s} d_(x s) F_{k-1},
                  with F_0 = F and F_3 = 0;
          cond-4  the polarized curvature terms minus V# dF1 and V# dF2.

        A residual of degree at most 3 that vanishes at four values of t is
        zero, so this verdict is at least as strong as the members' at the
        samples.  Computed once per family.
        """
        chart, V = self.chart, self.data.vertical
        b = chart.base_dim
        hor = self.data.connection.lifts()
        moves = [[(b + s, c, 1) for s, c in enumerate(row) if c] for row in self.corrections]
        F = [self.data.fform] + [HForm(chart, 2, {(i, j): self.fform_t[i][j][k]
                                                  for i, j in combinations(range(b), 2)})
                                 for k in (1, 2)]
        vo = min((c.valid_order for row in self.gamma_t for cs in row for c in cs),
                 default=chart.trunc_order) - 1
        report = CheckReport("family-coupling-conditions")
        report.add_residuals("horizontal-lifts-preserve-vertical", "cond-2",
                             lift_brackets(moves, V, min(vo, V.valid_order - 1)),
                             V.valid_order - 1)
        report.add_residuals("covariant-closedness", "cond-3",
                             [exterior_derivative(chart, [(F[1], hor), (F[0], moves)]),
                              exterior_derivative(chart, [(F[2], hor), (F[1], moves)]),
                              exterior_derivative(chart, [(F[2], moves)])], None)
        curvature = [lift_curvature(chart, [(hor, moves), (moves, hor)], vo),
                     lift_curvature(chart, [(moves, moves)], vo)]
        report.add_residuals("curvature-identity", "cond-4",
                             (c - v_sharp(V, F[k].component(ij))
                              for k, curv in enumerate(curvature, 1) for ij, c in curv.items()),
                             vo)
        return report


def _nondegenerate_member(fam, t):
    t = Fraction(t)
    member = fam.member(t)
    if member is None:
        raise ValueError(fam.member_errors[t])
    return member


def build_family(data, phi, t_samples=DEFAULT_T_SAMPLES):
    """
    Build the homotopy family from verified data and a vanishing 1-form.

    Preconditions: the data passes the coupling conditions.  The family's
    verdict (``HomotopyFamily.conditions``) covers every member at once; its
    failure is an internal error.  No member is built here: each is built on
    its first read, and a degenerate one is recorded as None (not fatal).
    The family keeps the samples: they are the ones
    ``verify_deformation_equation`` checks.
    """
    if phi.chart != data.chart:
        raise ValueError("phi lives on a different chart")
    data.conditions.require(ValueError, "base data fails the coupling conditions")
    family = HomotopyFamily(data, phi, t_samples)
    family.conditions.require(InternalInvariantError,
                              "homotopy family fails the coupling conditions in t")
    return family


def solve_homological(fam, t):
    """
    The unique coefficient field X with X | F_t = phi, as a list of base
    components.  The defining residual is re-checked exactly, and the
    solution vanishes on the zero section.
    """
    chart = fam.chart
    b = chart.base_dim
    member = _nondegenerate_member(fam, t)
    F = member.fform.matrix()
    G = member.fform_inverse
    phi = fam.phi.phi
    X = [dot(phi, [G[j][s] for j in range(b)]).truncate(G[0][0].valid_order)
         for s in range(b)]
    for j in range(b):
        if not (dot(X, [F[s][j] for s in range(b)]) - phi[j].truncate(X[0].valid_order)).is_zero():
            raise InternalInvariantError("homological solve residual is nonzero")
    for s in range(b):
        if not X[s].fiber_part(0, 0).is_zero():
            raise InternalInvariantError("deformation field does not vanish "
                                         "on the zero section")
    return X


def horizontal_field(fam, t, X):
    """sum_i X^i hor_t(d_i), the horizontal lift of a base coefficient field along
    the family connection at time t; the lifts leave out zero coefficients, so it
    is certified at most to the connection's order."""
    conn = _nondegenerate_member(fam, t).connection
    return Multivector(fam.chart, 1, _collect(((v,), w, x, g) for x, lift in zip(X, conn.lifts())
                                              for v, g, w in lift),
                       min([conn.valid_order()] + [x.valid_order for x in X]))


def _reduced_identity(fam, i, j):
    """The t^0 and t^1 coefficients of the (i, j) component of
    dGamma_t(phi) - dGamma(phi) - t {phi^phi}_V."""
    chart = fam.chart
    b, r = chart.base_dim, chart.fiber_dim
    phi = fam.phi.phi
    gamma = fam.data.connection.gamma
    # one dot per coefficient, so every operand's certified order counts: the
    # fiber derivatives of phi_j, then of phi_i, pair with rows i, then j of
    # Gamma and of the corrections, and the other terms with the constant 1
    one = FiberSeries.constant(chart, 1)
    dfib = [phi[j].diff(b + s) for s in range(r)] + [phi[i].diff(b + s) for s in range(r)]
    signs = [1] * r + [-1] * r
    c0 = dot([*gamma[i], *gamma[j], one, one, one],
             dfib + [phi[j].diff(i), phi[i].diff(j), fam.dphi.component((i, j))],
             [-w for w in signs] + [1, -1, -1])
    c1 = dot([*fam.corrections[i], *fam.corrections[j], one],
             dfib + [fam.quad.component((i, j))], signs + [-1])
    return c0, c1


def _frame_residual(fam, t):
    """The frame blocks of the deformation residual at sample t, as
    ``verify_deformation_equation`` states them: R_HH by its entries i < j, R_HV
    as a b x r matrix and VV as a bivector, each entry one ``dot`` that contracts
    X_t into the member's ``coupling_residuals``."""
    member = _nondegenerate_member(fam, t)
    chart, b, r = fam.chart, fam.chart.base_dim, fam.chart.fiber_dim
    X, one = solve_homological(fam, t), FiberSeries.constant(chart, 1)
    brackets, dF, rho = coupling_residuals(member)
    dphi = member.connection.cov_ext_deriv(fam.phi.hform())
    hh = {(k, l): dot([one, one] + X,
                      [_t_poly([c.scale(m) for m, c in enumerate(fam.fform_t[k][l]) if m], t),
                       dphi.component((k, l))] + [dF.component((i, k, l)) for i in range(b)])
          for k, l in combinations(range(b), 2)}
    sharps = _fiber_sharps(fam.data.vertical, fam.phi)
    hv = [[dot(*zip((one, fam.corrections[j][u], 1), (one, sharps[j][u], -1),
                    *((X[i], rho[min(i, j), max(i, j)].component((b + u,)), 1 if i > j else -1)
                      for i in range(b) if i != j)))
           for u in range(r)] for j in range(b)]
    vv = Multivector(chart, 2, _collect((ab, 1, x, c) for x, B in zip(X, brackets)
                                        for ab, c in B.comps.items()), brackets[0].valid_order)
    return hh, hv, vv


def _coordinates(conn, H, hh, hv, vv, order):
    """The residual with the frame blocks of ``_frame_residual``, to ``order``, in
    coordinates: L^T R L for the frame matrix R of HH = H R_HH H, HV = H R_HV and
    VV, H = -F_t^{-1}, and the lifts' coordinates L = [[1, -gamma], [0, 1]]."""
    chart, b, n = conn.chart, conn.chart.base_dim, conn.chart.n_vars
    zero, one = FiberSeries.zero(chart), FiberSeries.constant(chart, 1)
    R_HH = mat_antisymmetric([[hh.get((i, j)) for j in range(b)] for i in range(b)], zero)
    HV = mat_mul(H, hv)
    R = ([row + hv_row for row, hv_row in zip(mat_mul(mat_mul(H, R_HH), H), HV)]
         + [[-x for x in col] + [vv.component((s, c)) for c in range(b, n)]
            for s, col in zip(range(b, n), zip(*HV))])
    L = [[one if a == c else -conn.gamma[a][c - b] if a < b <= c else zero for c in range(n)]
         for a in range(n)]
    P = mat_mul(mat_mul(list(zip(*L)), R), L, upper=True)
    return Multivector(chart, 2, {(a, c): P[a][c] for a, c in combinations(range(n), 2)}, order)


def verify_deformation_equation(fam):
    """
    Two-part verification of the deformation equation.

    Part 1 (identically in t): the reduced identity
    dGamma_t(phi) - dGamma(phi) - t {phi^phi}_V = 0 as a polynomial in t
    with exact series coefficients.  Part 2 (at each of the family's
    samples, whose members the family's verdict covers): the blocks of
    [[X_t^h, Pi_t]] + dPi_t/dt in the frame of the lifts (see the module),

        R_HH = F_t HH F_t = dF_t/dt + dGamma_t(phi) + X_t | dGamma_t F_t,
        R_HV = -F_t HV = C - V# dphi - X_t | rho,    VV = sum_i X^i [h_i, V],

    vanish at the least order of their entries, which the entry certifies.
    Only a failing entry maps them back to coordinates (``_coordinates``).
    """
    chart = fam.chart
    b = chart.base_dim
    report = CheckReport("deformation-equation")

    report.add_residuals("reduced-identity-in-t", "part-1",
                         (c for i in range(b) for j in range(i + 1, b)
                          for c in _reduced_identity(fam, i, j)),
                         chart.trunc_order - 1)

    for t in fam.t_samples:
        name = "deformation-at-t=%s" % t
        member = fam.member(t)
        if member is None:
            report.add(name, "part-2", None, False, fam.member_errors[t])
            continue
        hh, hv, vv = _frame_residual(fam, t)
        blocks = [*hh.values(), *(x for row in hv for x in row), vv]
        order = min(s.valid_order for s in blocks)
        residual = Multivector.zero(chart, 2, order)
        if not all(s.truncate(order).is_zero() for s in blocks):
            residual = _coordinates(member.connection, mat_neg(member.fform_inverse),
                                    hh, hv, vv, order)
        report.add_residuals(name, "part-2", [residual], None)
    return report


# -- numerics ----------------------------------------------------------


def rk4_step(f, y, h, t0, tm, t1):
    """
    One classical RK4 step of y' = f(t, y) over [t0, t1] with midpoint tm
    and step h; ``y`` is a numpy array of any shape.  The caller passes
    the three times because a step along a path evaluates the field at
    points, not at times.
    """
    k1 = f(t0, y)
    k2 = f(tm, y + h / 2 * k1)
    k3 = f(tm, y + h / 2 * k2)
    k4 = f(t1, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


class _FloatFamily:
    """
    The family's coefficient functions compiled for float evaluation.  One
    evaluator holds the coefficients of each power t^k (``fform_t``,
    ``gamma_t``, and phi at k = 0) for the full matrix F_t, whose entries
    below the diagonal hold the negated coefficients of those above, for
    Gamma_t and for phi.  Their matrices C0, C1, C2 fold into
    C0 + t C1 + t^2 C2, formed once per distinct t, so the values at t are
    one product with the monomials.  The vertical block has its own
    evaluator, read only by ``_pi_matrix``.  Calls take an (m, n) array of
    points.
    """

    def __init__(self, fam):
        self.b, self.r = b, r = fam.chart.base_dim, fam.chart.fiber_dim
        zero = FiberSeries.zero(fam.chart)

        def columns(k):
            return ([cs[k] for row in fam.fform_t for cs in row]
                    + [cs[k] if k < 2 else zero for row in fam.gamma_t for cs in row]
                    + [p if k == 0 else zero for p in fam.phi.phi])

        self.evaluate = FloatEvaluator(columns(0) + columns(1) + columns(2))
        self.c0, self.c1, self.c2 = np.hsplit(self.evaluate.coefficients, 3)
        self.vertical = FloatEvaluator([fam.data.vertical.component((b + u, b + v))
                                        for u in range(r) for v in range(r)])
        self._at = {}

    def _coefficients(self, t):
        """C0 + t C1 + t^2 C2, the last three kept: a step's four stages use
        three times, and its last is the next step's first."""
        if t not in self._at:
            if len(self._at) > 2:
                self._at.clear()
            self._at[t] = self.c0 + t * self.c1 + t * t * self.c2
        return self._at[t]

    def _values(self, t, Z):
        """F_t (m, b, b), Gamma_t (m, b, r) and phi (m, b) at the rows of Z."""
        m, b = len(Z), self.b
        vals = self.evaluate.monomials(Z) @ self._coefficients(t)
        return (vals[:, :b * b].reshape(m, b, b), vals[:, b * b:-b].reshape(m, b, self.r),
                vals[:, -b:])

    def __call__(self, t, Z):
        """F_t (m, b, b), Gamma_t (m, b, r), phi (m, b) and the vertical
        block (m, r, r) at time t and the rows of Z."""
        return (*self._values(t, Z), self.vertical(Z).reshape(len(Z), self.r, self.r))

    def rhs(self, t, Z):
        """The horizontal deformation field at time t, one row per point."""
        F, gam, phi = self._values(t, Z)
        X = np.linalg.solve(F.transpose(0, 2, 1), phi[:, :, None])[:, :, 0]
        return np.concatenate((X, -(X[:, None, :] @ gam)[:, 0]), axis=1)


def _flow(ff, Z0, steps, chart_bound):
    """The time-1 flows of the rows of Z0, integrated as one RK4 system; an
    escape or a singular family 2-form reports the first step it hit a row."""
    Z = np.array(Z0, dtype=float)
    h = 1.0 / steps
    for k in range(steps):
        # t1 is computed as the next step's t0, so the two share a coefficient matrix
        t0, t1 = k * h, (k + 1) * h
        try:
            Z = rk4_step(ff.rhs, Z, h, t0, t0 + h / 2, t1)
        except np.linalg.LinAlgError:
            raise FloatingPointError("family 2-form singular at step %d" % k)
        # a NaN or infinite coordinate fails the comparison too
        if not np.max(np.abs(Z)) <= min(chart_bound, sys.float_info.max):
            raise FloatingPointError("flow escaped the chart at step %d" % k)
    return Z


def _pi_matrix(ff, t, z):
    """Float components of the family tensor at (t, z), full antisymmetric."""
    F, gam, _, vert = (a[0] for a in ff(t, np.array([z])))
    try:
        H = -np.linalg.inv(F)
    except np.linalg.LinAlgError:
        raise FloatingPointError("family 2-form singular at t=%g" % t)
    mixed = -H @ gam
    return np.block([[H, mixed], [-mixed.T, vert + gam.T @ H @ gam]])


def numeric_pullback_check(fam, sample_points, steps, chart_bound=1e6):
    """
    Integrate the time-dependent horizontal field from t=0 to 1 with
    classical fixed-step RK4 (a point's flow and its 2n finite-difference
    flows together), transform the endpoint tensor by the finite-difference
    Jacobian of the flow, and report the maximal componentwise deviation
    from the initial tensor at each point as its ``detail``, which the
    caller judges; a point fails here only where the flow cannot be taken.
    """
    n = fam.chart.n_vars
    ff = _FloatFamily(fam)
    report = CheckReport("numeric-pullback")
    for z0 in sample_points:
        z0 = [float(v) for v in z0]
        if len(z0) != n:
            raise ValueError("sample points must have dimension %d" % n)
        # row 0 is the point, rows 2a+1 and 2a+2 are shifted by +-FD_DELTA in z_a
        Z0 = np.tile(z0, (2 * n + 1, 1))
        Z0[1::2] += FD_DELTA * np.eye(n)
        Z0[2::2] -= FD_DELTA * np.eye(n)
        try:
            Z1 = _flow(ff, Z0, steps, chart_bound)
            pi0 = _pi_matrix(ff, 0.0, z0)
            pi1 = _pi_matrix(ff, 1.0, Z1[0])
        except FloatingPointError as exc:
            report.add("point-%s" % _fmt_point(z0), "flow", None, False, str(exc))
            continue
        J = ((Z1[1::2] - Z1[2::2]) / (2 * FD_DELTA)).T
        K = np.linalg.inv(J)
        dev = float(np.max(np.abs(K @ pi1 @ K.T - pi0)))
        report.add("point-%s" % _fmt_point(z0), "flow", None, True, "%.3e" % dev, detail=dev)
    return report


def _fmt_point(z):
    return "(" + ",".join("%.4g" % v for v in z) + ")"


def data_equivalence_check(d1, d2, phi, g=None, g_inv=None):
    """
    Check the three equivalence relations between two geometric data sets
    under a fiber-linear map g (identity when omitted) and the 1-form phi.
    """
    chart = d1.chart
    if d2.chart != chart or phi.chart != chart:
        raise ValueError("equivalence check needs a shared chart")
    b, r = chart.base_dim, chart.fiber_dim
    if (g is None) != (g_inv is None):
        raise ValueError("g and g_inv must be supplied together")
    if g is None:
        g = g_inv = mat_identity(chart, r)
    block_inverse(g, g_inv, "g_inv")

    report = CheckReport("data-equivalence")

    def subst(s):
        return s.substitute_fiber(g)

    one = FiberSeries.constant(chart, 1)

    def vertical_residuals():
        # each stored component of V2 once, with its antisymmetric partner; zero
        # components are left out, as they would cap the certified order
        moved = [(al - b, be - b, subst(w)) for (al, be), w in d2.vertical.comps.items()]
        for u, v in combinations(range(r), 2):
            yield dot([g_inv[u][al] * g_inv[v][be] for al, be, _ in moved]
                      + [g_inv[u][be] * g_inv[v][al] for al, be, _ in moved] + [one],
                      [w for _, _, w in moved] * 2 + [d1.vertical.component((b + u, b + v))],
                      [1] * len(moved) + [-1] * len(moved) + [-1])

    report.add_residuals("vertical-relation", "equiv-vert", vertical_residuals(),
                         d1.vertical.valid_order)

    x = [FiberSeries.variable(chart, b + s) for s in range(r)]
    corrections, dphi, quad = gauge_terms(d1, phi)

    def connection_residuals():
        for i in range(b):
            moved = [subst(c) for c in d2.connection.gamma[i]]
            # g_inv (d_i g) x: the base derivative of the fiber map, moved back
            dg = mat_mul(g_inv, [[c.diff(i) for c in row] for row in g])
            for u in range(r):
                yield dot(g_inv[u] + dg[u] + [one, one],
                          moved + x + [d1.connection.gamma[i][u], corrections[i][u]],
                          [1] * (2 * r) + [-1, 1])

    report.add_residuals("connection-relation", "equiv-conn", connection_residuals(),
                         d1.valid_order())
    report.add_residuals("two-form-relation", "equiv-form",
                         (subst(d2.fform.component((i, j))) - (
                             d1.fform.component((i, j)) - dphi.component((i, j))
                             - quad.component((i, j)).scale(Fraction(1, 2)))
                          for i in range(b) for j in range(i + 1, b)),
                         d1.fform.valid_order)
    return report
