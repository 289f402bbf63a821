import pytest

from fiberpoisson import ChartSpec, FiberSeries, HForm, Connection, interior

from fixtures import S, rng, rand_series, rand_xi_poly, zeros


def flat(ch):
    return Connection.flat(ch)


def interior_base(F, u):
    """Contraction of a base form with the base coordinate field d_u in the
    first slot."""
    # distinct tuples that hold u stay distinct without it: no two terms add
    out = {I[:k] + I[k + 1:]: c.scale(-1 if k % 2 else 1)
           for I, c in F.comps.items() for k, idx in enumerate(I) if idx == u}
    return HForm(F.chart, F.degree - 1, out, F.valid_order)


class TestHorLift:
    def test_flat(self):
        ch = ChartSpec(2, 1, 3)
        lift = flat(ch).hor_lift(0)
        assert list(lift.comps) == [(0,)]

    def test_assembly(self):
        ch = ChartSpec(2, 1, 3)
        gamma = zeros(ch, 2, 1)
        gamma[0][0] = S("x1", ch)
        lift = Connection(ch, gamma).hor_lift(0)
        assert lift.comps[(2,)].render() == "-x1"

    def test_projection_property(self):
        ch = ChartSpec(2, 2, 3)
        gamma = [[rand_series(rng(1), ch) for _ in range(2)] for _ in range(2)]
        conn = Connection(ch, gamma)
        for i in range(2):
            lift = conn.hor_lift(i)
            for j in range(2):
                alpha = [FiberSeries.zero(ch) for _ in range(4)]
                alpha[j] = FiberSeries.constant(ch, 1)
                res = interior(alpha, lift)
                assert res.comps.get((), FiberSeries.zero(ch)).constant_term() == (1 if i == j else 0)

    def test_index_range(self):
        ch = ChartSpec(2, 1, 3)
        with pytest.raises(IndexError):
            flat(ch).hor_lift(2)


class TestCovExtDeriv:
    def test_fiber_independent_reduces_to_d(self):
        ch = ChartSpec(4, 1, 3)
        F = HForm(ch, 2, {(0, 1): S("xi1", ch)})
        gamma = [[rand_series(rng(2), ch)] for _ in range(4)]
        dF = Connection(ch, gamma).cov_ext_deriv(F)
        # d(xi1 dxi1^dxi2) = 0; nothing else contributes
        assert dF.is_zero()

        F2 = HForm(ch, 2, {(0, 1): S("xi3", ch)})
        dF2 = flat(ch).cov_ext_deriv(F2)
        assert dF2.component((0, 1, 2)).render() == "1"

    def test_top_degree_vanishes(self):
        ch = ChartSpec(2, 1, 3)
        F = HForm(ch, 2, {(0, 1): S("x1", ch)})
        assert flat(ch).cov_ext_deriv(F).is_zero()

    def test_alternating_sum_hand_expansion(self):
        # flat connection, base_dim 4, F_{12} = xi3*x1: the (1,2,3) component
        # of the derivative is d_3 (xi3*x1) = x1
        ch = ChartSpec(4, 1, 3)
        F = HForm(ch, 2, {(0, 1): S("xi3*x1", ch)})
        dF = flat(ch).cov_ext_deriv(F)
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
                            {idx: conn.hor_apply(u, s) for idx, s in F.comps.items()},
                            F.valid_order - 1)
                rhs = interior_base(conn.cov_ext_deriv(F), u) \
                    + conn.cov_ext_deriv(interior_base(F, u))
                m = min(lhs.valid_order, rhs.valid_order)
                diff = lhs - rhs
                assert all(s.truncate(m).is_zero() for s in diff.comps.values())


class TestCurvature:
    def test_flat_connection(self):
        ch = ChartSpec(4, 2, 3)
        curv = flat(ch).curvature()
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
        assert all(g.fiber_degrees() <= {1} for row in gamma for g in row)
        f = rand_xi_poly(r, ch) * S("x1", ch) + rand_xi_poly(r, ch) * S("x2", ch)
        for i in range(2):
            out = conn.hor_apply(i, f)
            assert out.fiber_degrees() <= {1}

    def test_zero_coefficient_does_not_cap_the_order(self):
        # a zero coefficient certified only to order 0 adds no term, so it
        # leaves the lift's certified order at that of its other operands
        ch = ChartSpec(2, 2, 3)
        gamma = [[FiberSeries.zero(ch, 0), S("xi1*x2", ch)], [S("x1", ch), S("x2", ch)]]
        f = S("xi1*x1^2 + x2^2", ch)
        out = Connection(ch, gamma).hor_apply(0, f)
        assert out.valid_order == 2
        assert out.render() == "x1^2 - 2*xi1*x2^2"
