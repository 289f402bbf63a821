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
of these polynomials and the rational samples at which it was built; each
member (Gamma_t, V, F_t) is evaluated from them and verified once.  The
deformation field X_t solves X_t | F_t = phi; its horizontal lift drags
the assembled tensor along the family.  Part 1 of the verification is
the reduction of that statement to the exact identity

    dGamma_t(phi) = dGamma(phi) + t {phi ^ phi}_V,

checked identically in t; Part 2 checks the full deformation equation
at the family's own samples.
"""

from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np

from .series import (FiberSeries, FloatEvaluator, block_inverse, dot, mat_identity, mat_mul,
                     mat_neg, mat_valid_order)
from .multivector import Multivector, HForm, schouten
from .connection import Connection
from .coupling import GeometricData, assemble, v_sharp
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
    (``corrections``, ``dphi`` and ``quad``, see ``gauge_terms``) with the
    rational ``t_samples`` at which ``build_family`` verified its members.
    ``fform_t[i][j]`` and ``gamma_t[i][s]`` hold the coefficients of the
    powers of t in the entries of F_t and Gamma_t.  ``member(t)`` is the
    geometric data at a sample, built once with the family, and
    ``degenerate_samples`` are the samples without one.
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
        self._members = {t: self._build_member(t) for t in self.t_samples}
        self.degenerate_samples = [t for t, m in self._members.items() if m is None]

    def member(self, t):
        """
        The geometric data (Gamma_t, V, F_t) at sample t, or None where the
        fiber-constant block of F_t is singular or its inverse cannot be
        certified.  A t that is not one of ``t_samples`` raises ValueError:
        no member there was verified.
        """
        try:
            return self._members[Fraction(t)]
        except KeyError:
            raise ValueError("t=%s is not one of the family's samples" % t)

    def _build_member(self, t):
        F = [[_t_poly(cs, t) for cs in row] for row in self.fform_t]
        # an unchanged block keeps the data's seed, which may be base-dependent
        unchanged = all(not (f - cs[0]).fiber_part(0, 0)
                        for row, crow in zip(F, self.fform_t) for f, cs in zip(row, crow))
        gamma = [[_t_poly(cs, t) for cs in row] for row in self.gamma_t]
        try:
            return GeometricData(Connection(self.chart, gamma), self.data.vertical,
                                 HForm.from_matrix(self.chart, F),
                                 self.data.fform_inv_seed if unchanged else None)
        except ValueError:
            return None


def _nondegenerate_member(fam, t):
    t = Fraction(t)
    member = fam.member(t)
    if member is None:
        raise ValueError("family 2-form is singular at fiber degree 0 for t=%s" % t)
    return member


def build_family(data, phi, t_samples=DEFAULT_T_SAMPLES):
    """
    Build the homotopy family from verified data and a vanishing 1-form.

    Preconditions: the data passes the coupling conditions.  At every
    requested rational sample the triple is verified again; failures of
    nondegeneracy are recorded (not fatal), while a genuine condition
    failure at a sample is an internal error.  The family keeps the
    samples: they are the ones ``verify_deformation_equation`` checks.
    """
    if phi.chart != data.chart:
        raise ValueError("phi lives on a different chart")
    if not data.conditions.passed:
        raise ValueError("base data fails the coupling conditions:\n"
                         + data.conditions.render())
    family = HomotopyFamily(data, phi, t_samples)
    for t in family.t_samples:
        member = family.member(t)
        if member is not None and not member.conditions.passed:
            raise InternalInvariantError(
                "family member at t=%s fails the coupling conditions:\n" % t
                + member.conditions.render())
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
    """The horizontal lift of a base coefficient field along the family
    connection at time t."""
    b, r = fam.chart.base_dim, fam.chart.fiber_dim
    gamma = _nondegenerate_member(fam, t).connection.gamma
    comps = {(i,): x for i, x in enumerate(X) if x}
    for s in range(r):
        # a zero component is left out: it would cap the certified order
        if v := dot(X, [gamma[i][s] for i in range(b)], [-1] * b):
            comps[(b + s,)] = v
    return Multivector(fam.chart, 1, comps, min(x.valid_order for x in X))


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


def verify_deformation_equation(fam):
    """
    Two-part verification of the deformation equation.

    Part 1 (identically in t): the reduced identity
    dGamma_t(phi) - dGamma(phi) - t {phi^phi}_V = 0 as a polynomial in t
    with exact series coefficients.  Part 2 (at each of the family's
    samples, whose members ``build_family`` verified):
    [[X_t^h, Pi_t]] + dPi_t/dt = 0 at certified order, with the
    t-derivative computed exactly from the inverse-derivative identity.
    """
    chart = fam.chart
    b = chart.base_dim
    report = CheckReport("deformation-equation")

    report.add_residuals("reduced-identity-in-t", "part-1",
                         (c for i in range(b) for j in range(i + 1, b)
                          for c in _reduced_identity(fam, i, j)),
                         chart.trunc_order - 1)

    W = [Multivector(chart, 1, {(b + s,): c for s, c in enumerate(corr) if not c.is_zero()})
         for corr in fam.corrections]
    for t in fam.t_samples:
        member = fam.member(t)
        if member is None:
            report.add("deformation-at-t=%s" % t, "part-2", None, False,
                       "2-form degenerate at this sample")
            continue
        H = mat_neg(member.fform_inverse)
        # dF_t/dt from the coefficients k c_k of the powers of t in F_t
        dF = [[_t_poly([c.scale(k) for k, c in enumerate(cs) if k], t) for cs in row]
              for row in fam.fform_t]
        # horizontal_bivector reads only the entries i < j
        dH = mat_mul(mat_mul(H, dF), H, upper=True)
        vo = min(mat_valid_order(H), fam.data.vertical.valid_order)
        dpi = (member.connection.horizontal_bivector(dH, vo)
               + member.connection.horizontal_bivector(H, vo, moves=W))
        pi_t = assemble(member).pi
        X = solve_homological(fam, t)
        Xh = horizontal_field(fam, t, X)
        report.add_residuals("deformation-at-t=%s" % t, "part-2",
                             [schouten(Xh, pi_t) + dpi], None)
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
    The family's coefficient functions compiled into one evaluator: the
    coefficients of the powers of t in the entries above the diagonal of
    F_t, those in the entries of Gamma_t (``fform_t`` and ``gamma_t``),
    phi and the vertical components, so F_t and Gamma_t at t are
    contractions of the coefficients with (1, t, t^2).  Calls take an
    (m, n) array of points.
    """

    def __init__(self, fam):
        self.b, self.r = b, r = fam.chart.base_dim, fam.chart.fiber_dim
        self.upper = tuple(zip(*combinations(range(b), 2)))
        fform = [fam.fform_t[i][j][k] for k in range(3) for i, j in zip(*self.upper)]
        gamma = [row[s][k] for k in range(2) for row in fam.gamma_t for s in range(r)]
        self.evaluate = FloatEvaluator(
            fform + gamma + fam.phi.phi + [fam.data.vertical.component((b + u, b + v))
                                           for u in range(r) for v in range(r)])
        self.cuts = list(accumulate([len(fform), len(gamma), b]))

    def __call__(self, t, Z):
        """F_t (m, b, b), Gamma_t (m, b, r), phi (m, b) and the vertical
        block (m, r, r) at time t and the rows of Z."""
        m, b, r = len(Z), self.b, self.r
        fu, gam, phi, vert = np.split(self.evaluate(Z), self.cuts, axis=1)
        powers = np.array([1.0, t, t * t])
        fu = powers @ fu.reshape(m, 3, -1)
        F = np.zeros((m, b, b))
        F[:, self.upper[0], self.upper[1]] = fu
        F[:, self.upper[1], self.upper[0]] = -fu
        gam = (powers[:2] @ gam.reshape(m, 2, b * r)).reshape(m, b, r)
        return F, gam, phi, vert.reshape(m, r, r)

    def rhs(self, t, Z):
        """The horizontal deformation field at time t, one row per point."""
        F, gam, phi, _ = self(t, Z)
        X = np.linalg.solve(F.transpose(0, 2, 1), phi[:, :, None])[:, :, 0]
        return np.concatenate((X, -(X[:, None, :] @ gam)[:, 0]), axis=1)


def _flow(ff, Z0, steps, chart_bound):
    """The time-1 flows of the rows of Z0, integrated as one RK4 system; an
    escape or a singular family 2-form reports the first step it hit a row."""
    Z = np.array(Z0, dtype=float)
    h = 1.0 / steps
    for k in range(steps):
        t = k * h
        try:
            Z = rk4_step(ff.rhs, Z, h, t, t + h / 2, t + h)
        except np.linalg.LinAlgError:
            raise FloatingPointError("family 2-form singular at step %d" % k)
        if not np.all(np.isfinite(Z)) or np.max(np.abs(Z)) > chart_bound:
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
