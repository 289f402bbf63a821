from fractions import Fraction

import pytest

from fiberpoisson import ChartSpec, FiberSeries, HForm, Multivector, Connection, interior
from fiberpoisson.connection import exterior_derivative, lift_curvature

import oracle
from oracle import scaled
from fixtures import (S, rng, rand_series, rand_xi_poly, rand_valid_data, zeros,
                      flat_connection)


def interior_base(F, u):
    """Contraction of a base form with the base coordinate field d_u in the
    first slot."""
    # distinct tuples that hold u stay distinct without it: no two terms add
    out = {I[:k] + I[k + 1:]: c.scale(-1 if k % 2 else 1)
           for I, c in F.comps.items() for k, idx in enumerate(I) if idx == u}
    return HForm(F.chart, F.degree - 1, out, F.valid_order)


def hor(conn, i, f):
    """hor(d_i) f, the degree-0 case of the covariant exterior derivative."""
    return conn.cov_ext_deriv(HForm(conn.chart, 0, {(): f})).component((i,))


class TestHorLift:
    def test_flat(self):
        ch = ChartSpec(2, 1, 3)
        lift = oracle.hor_lift(flat_connection(ch), 0)
        assert list(lift.comps) == [(0,)]

    def test_assembly(self):
        ch = ChartSpec(2, 1, 3)
        gamma = zeros(ch, 2, 1)
        gamma[0][0] = S("x1", ch)
        lift = oracle.hor_lift(Connection(ch, gamma), 0)
        assert lift.comps[(2,)].render() == "-x1"

    def test_projection_property(self):
        ch = ChartSpec(2, 2, 3)
        gamma = [[rand_series(rng(1), ch) for _ in range(2)] for _ in range(2)]
        conn = Connection(ch, gamma)
        for i in range(2):
            lift = oracle.hor_lift(conn, i)
            for j in range(2):
                alpha = [FiberSeries.zero(ch) for _ in range(4)]
                alpha[j] = FiberSeries.constant(ch, 1)
                res = interior(alpha, lift)
                assert res.comps.get((), FiberSeries.zero(ch)).constant_term() == (1 if i == j else 0)


class TestHorizontalBivector:
    """``horizontal_bivector`` against the oracle's lifts, written straight from
    gamma, and the oracle's wedge; zero and truncated coefficients included."""

    @staticmethod
    def nonzero(r, ch, order=True):
        """A nonzero random series, truncated to a random order where that
        leaves it nonzero."""
        g = FiberSeries.zero(ch)
        while not g:
            g = rand_series(r, ch, xdeg=3, terms=4)
        cut = g.truncate(r.randint(-1, ch.trunc_order))
        return cut if order and cut and r.random() < 0.3 else g

    def connection(self, r, ch):
        # certified orders from 0 up: a lift known to no order has no component
        def coefficient():
            u = r.random()
            if u < 0.2:
                return FiberSeries.zero(ch, r.randint(0, ch.trunc_order))
            return self.nonzero(r, ch) if u < 0.8 else FiberSeries.zero(ch)
        return Connection(ch, [[coefficient() for _ in range(ch.fiber_dim)]
                               for _ in range(ch.base_dim)])

    @staticmethod
    def oracle_sum(ch, M, left, right, pairs, vo):
        """sum M[i][j] left[i] ^ right[j] over ``pairs`` by the oracle's wedge,
        certified at the least order of ``vo`` and its factors.  A zero factor is
        certified to the chart's order, so its term is zero and left out."""
        def full(X):
            return oracle.VField(ch, [X.component((a,)) for a in range(ch.n_vars)])
        comps, orders = {}, [vo]
        for i, j in pairs:
            if M[i][j] and not left[i].is_zero():
                orders += [M[i][j].valid_order, left[i].valid_order, right[j].valid_order]
                for K, s in oracle.wedge_fields(ch, [full(left[i]), full(right[j])]).items():
                    if K[0] < K[1]:
                        comps[K] = comps[K] + M[i][j] * s if K in comps else M[i][j] * s
        return Multivector(ch, 2, comps, min(orders))

    def cases(self, seed, count=25):
        r = rng(seed)
        for k in range(count):
            ch = ChartSpec(r.choice([2, 4]), r.choice([0, 1, 2, 3]), r.randint(1, 4))
            conn = rand_valid_data(r).connection if k % 5 == 4 else self.connection(r, ch)
            ch, b = conn.chart, conn.chart.base_dim
            M = [[self.nonzero(r, ch) if i != j and r.random() < 0.8 else FiberSeries.zero(ch)
                  for j in range(b)] for i in range(b)]
            yield r, conn, M, r.randint(-1, ch.trunc_order)

    def test_matches_the_oracle_lifts(self):
        from itertools import combinations
        lowered = 0
        for _, conn, M, vo in self.cases(102):
            b = conn.chart.base_dim
            hor = [oracle.hor_lift(conn, i) for i in range(b)]
            got = conn.horizontal_bivector(M, vo)
            want = self.oracle_sum(conn.chart, M, hor, hor, combinations(range(b), 2), vo)
            assert got.valid_order == want.valid_order
            assert got.comps == want.comps
            lowered += got.valid_order < min([vo] + [M[i][j].valid_order
                                                     for i, j in combinations(range(b), 2)])
        # some lifts, zero coefficients among them, certify below the entries of M
        assert lowered


class TestCovExtDeriv:
    def test_fiber_independent_reduces_to_d(self):
        ch = ChartSpec(4, 1, 3)
        F = HForm(ch, 2, {(0, 1): S("xi1", ch)})
        gamma = [[rand_series(rng(2), ch)] for _ in range(4)]
        dF = Connection(ch, gamma).cov_ext_deriv(F)
        # d(xi1 dxi1^dxi2) = 0; nothing else contributes
        assert dF.is_zero()

        F2 = HForm(ch, 2, {(0, 1): S("xi3", ch)})
        dF2 = flat_connection(ch).cov_ext_deriv(F2)
        assert dF2.component((0, 1, 2)).render() == "1"

    def test_top_degree_vanishes(self):
        ch = ChartSpec(2, 1, 3)
        F = HForm(ch, 2, {(0, 1): S("x1", ch)})
        assert flat_connection(ch).cov_ext_deriv(F).is_zero()

    def test_alternating_sum_hand_expansion(self):
        # flat connection, base_dim 4, F_{12} = xi3*x1: the (1,2,3) component
        # of the derivative is d_3 (xi3*x1) = x1
        ch = ChartSpec(4, 1, 3)
        F = HForm(ch, 2, {(0, 1): S("xi3*x1", ch)})
        dF = flat_connection(ch).cov_ext_deriv(F)
        assert dF.component((0, 1, 2)).render() == "x1"

    def test_modified_cartan_formula(self):
        # applying a horizontal lift componentwise equals interior-then-deriv
        # plus deriv-then-interior
        r = rng(4)
        ch = ChartSpec(4, 2, 3)
        gamma = [[rand_series(r, ch) for _ in range(2)] for _ in range(4)]
        conn = Connection(ch, gamma)
        for degree in (1, 2):
            from itertools import combinations
            comps = {idx: rand_series(r, ch)
                     for idx in combinations(range(4), degree)}
            F = HForm(ch, degree, comps)
            for u in range(4):
                lhs = HForm(ch, degree,
                            {idx: hor(conn, u, s) for idx, s in F.comps.items()},
                            F.valid_order - 1)
                rhs = interior_base(conn.cov_ext_deriv(F), u) \
                    + conn.cov_ext_deriv(interior_base(F, u))
                m = min(lhs.valid_order, rhs.valid_order)
                diff = lhs - rhs
                assert all(s.truncate(m).is_zero() for s in diff.comps.values())


class TestCurvature:
    def test_flat_connection(self):
        ch = ChartSpec(4, 2, 3)
        curv = flat_connection(ch).curvature()
        assert all(c.is_zero() for c in curv.values())

    def test_commuting_constant_linear_fields(self):
        # homogeneous connection from commuting, base-independent linear maps
        ch = ChartSpec(2, 2, 3)
        gamma = zeros(ch, 2, 2)
        # both directions use the same linear map x -> (x1 + 2 x2, x2)
        for i in range(2):
            gamma[i][0] = S("x1 + 2*x2", ch)
            gamma[i][1] = S("x2", ch)
        curv = Connection(ch, gamma).curvature()
        assert all(c.is_zero() for c in curv.values())

    def test_verticality_always(self):
        r = rng(5)
        for _ in range(10):
            ch = ChartSpec(2, 2, 3)
            gamma = [[rand_series(r, ch) for _ in range(2)] for _ in range(2)]
            curv = Connection(ch, gamma).curvature()
            for c in curv.values():
                assert c.is_vertical()

    @staticmethod
    def random_connection(r, ch, orders=False):
        """Random coefficients; with ``orders`` each entry is certified to its own
        order, from -1 up to the chart's."""
        gamma = [[rand_series(r, ch, xdeg=3, terms=4) for _ in range(ch.fiber_dim)]
                 for _ in range(ch.base_dim)]
        if orders:
            gamma = [[g.truncate(r.randint(-1, ch.trunc_order)) for g in row] for row in gamma]
        return Connection(ch, gamma)

    @pytest.mark.parametrize("case", ["valid", "orders", "fiber-0", "fiber-1"])
    def test_matches_the_bracket_oracle(self, case):
        # the coordinate formula against -[hor(i), hor(j)]: same fields, same order
        r = rng({"valid": 81, "orders": 82, "fiber-0": 83, "fiber-1": 84}[case])
        for _ in range(12):
            if case == "valid":
                conn = rand_valid_data(r).connection
            elif case == "orders":
                ch = ChartSpec(r.choice([2, 4, 6]), r.choice([1, 2, 3]), r.randint(1, 4))
                conn = self.random_connection(r, ch, orders=True)
            else:
                fiber = int(case[-1])
                conn = self.random_connection(r, ChartSpec(r.choice([2, 4]), fiber, 3), True)
            curv, ref = conn.curvature(), oracle.curvature(conn)
            assert curv.keys() == ref.keys()
            for ij, c in curv.items():
                assert c.valid_order == ref[ij].valid_order == conn.valid_order() - 1
                assert c.comps == ref[ij].comps

    def test_algebroid_curvature_matches_adjoint_pairing(self):
        # cross-module consistency: for induced homogeneous connections the
        # curvature is the fiber-linear field pairing the structure functions
        # against the curvature coefficients
        from fixtures import rand_admissible
        r = rng(6)
        for _ in range(5):
            a = rand_admissible(r)
            from fiberpoisson import build_geometric_data
            data = build_geometric_data(a)
            ch = a.chart
            b, rr = ch.base_dim, ch.fiber_dim
            x = [FiberSeries.variable(ch, b + s) for s in range(rr)]
            curv = data.connection.curvature()
            for i in range(b):
                for j in range(i + 1, b):
                    for t in range(rr):
                        expected = FiberSeries.zero(ch)
                        for m in range(rr):
                            for n in range(rr):
                                expected = expected - a.R[i][j][m] * a.lam[m][t][n] * x[n]
                        got = curv[(i, j)].component((b + t,))
                        assert (got.truncate(expected.valid_order)
                                - expected.truncate(got.valid_order)).is_zero()


class TestHomogeneity:
    def test_homogeneous_lift_preserves_fiber_linear(self):
        r = rng(7)
        ch = ChartSpec(2, 2, 3)
        gamma = zeros(ch, 2, 2)
        for i in range(2):
            for s in range(2):
                gamma[i][s] = rand_xi_poly(r, ch) * S("x1", ch) \
                    + rand_xi_poly(r, ch) * S("x2", ch)
        conn = Connection(ch, gamma)
        assert all({sum(e[ch.base_dim:]) for e in g.terms} <= {1} for row in gamma for g in row)
        f = rand_xi_poly(r, ch) * S("x1", ch) + rand_xi_poly(r, ch) * S("x2", ch)
        for i in range(2):
            out = hor(conn, i, f)
            assert {sum(e[ch.base_dim:]) for e in out.terms} <= {1}

    def test_zero_coefficient_does_not_cap_the_order(self):
        # a zero coefficient certified only to order 0 adds no term, so it
        # leaves the lift's certified order at that of its other operands
        ch = ChartSpec(2, 2, 3)
        gamma = [[FiberSeries.zero(ch, 0), S("xi1*x2", ch)], [S("x1", ch), S("x2", ch)]]
        f = S("xi1*x1^2 + x2^2", ch)
        out = hor(Connection(ch, gamma), 0, f)
        assert out.valid_order == 2
        assert out.render() == "x1^2 - 2*xi1*x2^2"


class TestSumsOfLifts:
    """The covariant exterior derivative is linear in (form, lifts) and the
    curvature bilinear in two families of lifts: along Gamma_t = Gamma - t C,
    whose lifts are hor(d_i) + t sum_s C_is d_(x s), the sums over pairs give
    the coefficients of the powers of t."""

    @staticmethod
    def family(r, ch):
        def coefficients():
            return [[rand_series(r, ch, xdeg=3, terms=3) for _ in range(ch.fiber_dim)]
                    for _ in range(ch.base_dim)]
        gamma, C = coefficients(), coefficients()
        b = ch.base_dim
        moves = [[(b + s, c, 1) for s, c in enumerate(row) if c] for row in C]
        return gamma, C, moves

    @staticmethod
    def at(t, coefficients):
        """sum_k t^k coefficients[k], read at the least order of its terms."""
        return FiberSeries.sum([c.scale(t ** k) for k, c in enumerate(coefficients)])

    T = [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]

    def test_curvature_polarizes(self):
        r = rng(95)
        for _ in range(6):
            ch = ChartSpec(r.choice([2, 4]), r.choice([1, 2]), 3)
            gamma, C, moves = self.family(r, ch)
            hor = Connection(ch, gamma).lifts()
            vo = ch.trunc_order - 1
            coeffs = [lift_curvature(ch, pairs, vo) for pairs in
                      ([(hor, hor)], [(hor, moves), (moves, hor)], [(moves, moves)])]
            for t in self.T:
                curv = Connection(ch, [[g - c.scale(t) for g, c in zip(row, crow)]
                                       for row, crow in zip(gamma, C)]).curvature()
                for ij, c in curv.items():
                    for n in c.comps.keys() | {k for cs in coeffs for k in cs[ij].comps}:
                        got = self.at(t, [cs[ij].component(n) for cs in coeffs])
                        assert (got - c.component(n)).is_zero()

    def test_exterior_derivative_is_linear(self):
        from itertools import combinations
        r = rng(96)
        for _ in range(6):
            ch = ChartSpec(4, r.choice([1, 2]), 3)
            gamma, C, moves = self.family(r, ch)
            hor = Connection(ch, gamma).lifts()
            degree = r.choice([0, 1, 2])
            F, F1 = (HForm(ch, degree, {idx: rand_series(r, ch, xdeg=3)
                                        for idx in combinations(range(4), degree)})
                     for _ in range(2))
            coeffs = [exterior_derivative(ch, pairs) for pairs in
                      ([(F, hor)], [(F1, hor), (F, moves)], [(F1, moves)])]
            for t in self.T:
                conn = Connection(ch, [[g - c.scale(t) for g, c in zip(row, crow)]
                                       for row, crow in zip(gamma, C)])
                dF = conn.cov_ext_deriv(F + scaled(F1, t))
                for idx in combinations(range(4), degree + 1):
                    got = self.at(t, [cs.component(idx) for cs in coeffs])
                    want = dF.component(idx)
                    assert (got.truncate(want.valid_order)
                            - want.truncate(got.valid_order)).is_zero()
