"""
Ehresmann connections in chart coordinates: horizontal lifts, the
covariant exterior derivative on base forms with function values, and
the curvature form.

The connection stores coefficients gamma[i][s] so that the horizontal
lift of the i-th base field is  d_i - sum_s gamma[i][s] d_(x s).
Coordinate base fields commute, so the covariant exterior derivative
reduces to the alternating sum of horizontal-lift derivatives.

A lift is held as (direction, coefficient, sign) terms (``Connection.lifts``),
the one form of hor(d_i) that the derivative rules read.  The covariant exterior
derivative is linear in the pair (form, lifts) and the curvature bilinear in two
families of lifts, so ``exterior_derivative`` and ``lift_curvature`` take sums of
such terms: the connection's own are the case of one pair, and a homotopy family's
coefficients of the powers of t are the others.  A horizontal bivector is a
coordinate formula in gamma: series matrix products, with no wedge of fields.
"""

import functools
from itertools import combinations

from .series import FiberSeries, ChartMismatchError, dot, mat_antisymmetric, mat_mul
from .multivector import Multivector, HForm


class Connection:
    def __init__(self, chart, gamma):
        if len(gamma) != chart.base_dim or any(len(row) != chart.fiber_dim for row in gamma):
            raise ValueError("gamma must be base_dim x fiber_dim")
        for row in gamma:
            for g in row:
                if g.chart != chart:
                    raise ChartMismatchError("connection coefficient on a different chart")
        self.chart = chart
        self.gamma = [list(row) for row in gamma]

    def valid_order(self):
        orders = [g.valid_order for row in self.gamma for g in row]
        return min(orders) if orders else self.chart.trunc_order

    def is_zero_on_section(self):
        """True iff every coefficient vanishes at x = 0."""
        return all(g.fiber_part(0, 0).is_zero() for row in self.gamma for g in row)

    def horizontal_bivector(self, M, valid_order):
        """sum_{i<j} M[i][j] hor(d_i) ^ hor(d_j) for a base-dim square matrix of
        series: with A the antisymmetric matrix of its entries i < j and N = A gamma,
        the components (i, j), (i, b+t) and (b+s, b+t) are M[i][j], -N[i][t] and
        sum_i gamma[i][s] N[i][t].  Certified at most to ``valid_order``, the
        connection and the nonzero M[i][j]."""
        chart, b, r = self.chart, self.chart.base_dim, self.chart.fiber_dim
        orders = [M[i][j].valid_order for i, j in combinations(range(b), 2) if M[i][j]]
        if not orders or self.valid_order() < 0:  # a lift known to no order is zero
            return Multivector.zero(chart, 2, valid_order)
        # zero entries become zeros at the chart's order: theirs would cap the order
        zero = FiberSeries.zero(chart)
        A = mat_antisymmetric([[m or zero for m in row] for row in M], zero)
        N = mat_mul(A, self.gamma)
        fiber = mat_mul(list(zip(*self.gamma)), N, upper=True)
        comps = {(i, j): A[i][j] for i, j in combinations(range(b), 2)}
        comps.update(((i, b + t), -n) for i, row in enumerate(N) for t, n in enumerate(row))
        comps.update(((b + s, b + t), fiber[s][t]) for s, t in combinations(range(r), 2))
        return Multivector(chart, 2, comps, min([valid_order, self.valid_order()] + orders))

    def lifts(self):
        """hor(d_i) for each base direction i as (direction, coefficient, sign)
        terms: d_i, then -gamma[i][s] d_(x s).  Zero coefficients are left out:
        their fiber derivatives would cap the order."""
        b = self.chart.base_dim
        one = FiberSeries.constant(self.chart, 1)
        return [[(i, one, 1)] + [(b + s, g, -1) for s, g in enumerate(row) if g]
                for i, row in enumerate(self.gamma)]

    def cov_ext_deriv(self, F):
        """
        Covariant exterior derivative of a base form with function values.

        (dF)_{i0..ik} = sum_j (-1)^j hor(i_j) F_{i0..^j..ik}; for a
        fiber-independent form with a flat connection this is the
        ordinary differential of the base form.
        """
        if F.chart != self.chart:
            raise ChartMismatchError("form lives on a different chart")
        return exterior_derivative(self.chart, [(F, self.lifts())])

    def curvature(self):
        """
        Curvature as a map (i, j) -> vertical vector field, i < j (it is antisymmetric):
        Curv_{ij} = -[hor(i), hor(j)], whose t-th fiber component is d_i gamma[j][t]
        - d_j gamma[i][t] - sum_u (gamma[i][u] d_u gamma[j][t] - gamma[j][u] d_u gamma[i][t])
        with d_u the fiber derivatives; certified one order below the connection, as
        the bracket is.
        """
        lifts = self.lifts()
        return lift_curvature(self.chart, [(lifts, lifts)], self.valid_order() - 1)


def exterior_derivative(chart, pairs):
    """
    The sum over the (form, lifts) pairs of the alternating sums
    (dF)_{i0..ik} = sum_j (-1)^j X_{i_j} F_{i0..^j..ik}, X_i the vector field of
    the terms lifts[i] (as ``Connection.lifts``); the forms share one degree.
    Each component is one dot, and each derivative of a component of a form is
    taken once.  With no component the result is certified one order below the
    least of the forms' orders.
    """
    b, k = chart.base_dim, pairs[0][0].degree + 1
    order = min(F.valid_order for F, _ in pairs)
    if k > b:
        return HForm.zero(chart, k, order)
    diff = functools.cache(lambda n, J, v: pairs[n][0].component(J).diff(v))
    out = {}
    for idx in combinations(range(b), k):
        terms = [(diff(n, idx[:j] + idx[j + 1:], v), g, -w if j % 2 else w)
                 for n, (_, lifts) in enumerate(pairs)
                 for j, i in enumerate(idx) for v, g, w in lifts[i]]
        if terms and (acc := dot(*zip(*terms))):
            out[idx] = acc
    vo = min((s.valid_order for s in out.values()), default=order - 1)
    return HForm(chart, k, out, vo)


def lift_curvature(chart, pairs, valid_order):
    """
    The sum over the pairs (X, Y) of families of lifts (as ``Connection.lifts``)
    of -[X_i, Y_j] for i < j, bilinear in X and Y.  Its t-th fiber component is
    Y_j(X_i^t) - X_i(Y_j^t), with X_i^t the coefficient of d_(x t) in X_i; the
    base terms of lifts are constant, so it is vertical.  Each component is one
    dot, each derivative of a coefficient is taken once, and every field is
    certified at ``valid_order``.
    """
    b = chart.base_dim
    memo = {}

    def diff(g, v):
        # keyed by the coefficient's identity: the lifts hold every coefficient
        if (id(g), v) not in memo:
            memo[id(g), v] = g.diff(v)
        return memo[id(g), v]

    out = {}
    for i, j in combinations(range(b), 2):
        terms = {}
        for X, Y in pairs:
            # +Y_j(X_i^t), then -X_i(Y_j^t)
            for lift, along, sign in ((X[i], Y[j], 1), (Y[j], X[i], -1)):
                for v, g, w in lift:
                    if v >= b and along:
                        terms.setdefault(v, []).extend((h, diff(g, u), sign * w * z)
                                                       for u, h, z in along)
        out[(i, j)] = Multivector(chart, 1, {(v,): dot(*zip(*ts)) for v, ts in terms.items()},
                                  valid_order)
    return out
