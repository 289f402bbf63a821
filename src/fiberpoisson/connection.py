"""
Ehresmann connections in chart coordinates: horizontal lifts, the
covariant exterior derivative on base forms with function values, and
the curvature form.

The connection stores coefficients gamma[i][s] so that the horizontal
lift of the i-th base field is  d_i - sum_s gamma[i][s] d_(x s).
Coordinate base fields commute, so the covariant exterior derivative
reduces to the alternating sum of horizontal-lift derivatives.
"""

from itertools import combinations, product

from .series import FiberSeries, ChartMismatchError, dot
from .multivector import Multivector, HForm, _collect, schouten, wedge
from .report import InternalInvariantError


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

    @classmethod
    def flat(cls, chart):
        z = FiberSeries.zero(chart)
        return cls(chart, [[z for _ in range(chart.fiber_dim)] for _ in range(chart.base_dim)])

    def valid_order(self):
        orders = [g.valid_order for row in self.gamma for g in row]
        return min(orders) if orders else self.chart.trunc_order

    def is_zero_on_section(self):
        """True iff every coefficient vanishes at x = 0."""
        return all(g.fiber_part(0, 0).is_zero() for row in self.gamma for g in row)

    def hor_lift(self, i):
        """The vector field d_i - sum_s gamma[i][s] d_(x s)."""
        chart = self.chart
        if not 0 <= i < chart.base_dim:
            raise IndexError("base index out of range")
        comps = {(i,): FiberSeries.constant(chart, 1)}
        comps.update(((chart.base_dim + s,), -g) for s, g in enumerate(self.gamma[i]))
        return Multivector(chart, 1, comps, self.valid_order())

    def horizontal_bivector(self, M, valid_order, moves=None):
        """sum_{i<j} M[i][j] hor(d_i) ^ hor(d_j) for a base-dim square matrix
        of series, certified at most to ``valid_order``; given vector fields
        ``moves``, sum_{i,j} M[i][j] moves[i] ^ hor(d_j), the change of the
        first sum for an antisymmetric M when each hor(d_i) moves by moves[i]."""
        b = self.chart.base_dim
        lifts = [self.hor_lift(i) for i in range(b)]
        left, pairs = ((lifts, combinations(range(b), 2)) if moves is None
                       else (moves, product(range(b), repeat=2)))
        # one sum per component; the tensor certifies the least order of its terms
        wedges = [(wedge(left[i], lifts[j]), M[i][j]) for i, j in pairs
                  if M[i][j] and not left[i].is_zero()]
        return Multivector(self.chart, 2, _collect((K, 1, m, c) for w, m in wedges
                                                   for K, c in w.comps.items()), valid_order)

    def hor_apply(self, i, f):
        """Apply the horizontal lift of d_i to a function, as a derivation."""
        b = self.chart.base_dim
        # zero coefficients are left out: their fiber derivatives would cap the order
        gs = [(g, f.diff(b + s)) for s, g in enumerate(self.gamma[i]) if g]
        return dot([f.diff(i)] + [d for _, d in gs],
                   [FiberSeries.constant(self.chart, 1)] + [g for g, _ in gs],
                   [1] + [-1] * len(gs))

    def cov_ext_deriv(self, F):
        """
        Covariant exterior derivative of a base form with function values.

        (dF)_{i0..ik} = sum_j (-1)^j hor(i_j) F_{i0..^j..ik}; for a
        fiber-independent form with a flat connection this is the
        ordinary differential of the base form.
        """
        chart = self.chart
        if F.chart != chart:
            raise ChartMismatchError("form lives on a different chart")
        k = F.degree + 1
        if k > chart.base_dim:
            return HForm.zero(chart, k, F.valid_order)
        out = {}
        for idx in combinations(range(chart.base_dim), k):
            acc = FiberSeries.sum([self.hor_apply(ij, F.component(idx[:j] + idx[j + 1:]))
                                   .scale(-1 if j % 2 else 1) for j, ij in enumerate(idx)])
            if not acc.is_zero():
                out[idx] = acc
        vo = min((s.valid_order for s in out.values()), default=F.valid_order - 1)
        return HForm(chart, k, out, vo)

    def curvature(self):
        """
        Curvature as a map (i, j) -> vertical vector field, i < j:
        Curv_{ij} = -[hor(i), hor(j)].  Verticality is asserted.
        """
        chart = self.chart
        lifts = [self.hor_lift(i) for i in range(chart.base_dim)]
        out = {}
        for i in range(chart.base_dim):
            for j in range(i + 1, chart.base_dim):
                c = -schouten(lifts[i], lifts[j])
                if not c.is_vertical():
                    raise InternalInvariantError("curvature of a connection must be vertical")
                out[(i, j)] = c
        return out
