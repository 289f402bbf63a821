from fractions import Fraction
from itertools import product

import pytest

from fiberpoisson import (ChartSpec, FiberSeries, Multivector, HForm, wedge,
                          interior, schouten, jacobiator, lie_derivative)

from fixtures import S, rng, rand_multivector, so3_vertical
from fiberpoisson.multivector import _sorted
from oracle import oracle_schouten, expand_full, scaled, perm_sign


def chart(b=2, r=2, n=3):
    return ChartSpec(b, r, n)


def basis(ch, i):
    return Multivector(ch, 1, {(i,): FiberSeries.constant(ch, 1)})


def fn(ch, text):
    s = S(text, ch)
    return Multivector(ch, 0, {(): s}, s.valid_order)


class TestSortSign:
    def test_every_short_tuple_against_the_oracle(self):
        # every tuple over range(5) of length 0 to 4, repeats included
        for n in range(5):
            for idx in product(range(5), repeat=n):
                K, sign = _sorted(idx)
                if len(set(idx)) < n:
                    assert (K, sign) == (None, 0)
                else:
                    assert K == tuple(sorted(idx))
                    assert sign == perm_sign([K.index(i) for i in idx])


class TestWedge:
    def test_basis_bivector(self):
        ch = chart()
        w = wedge(basis(ch, 0), basis(ch, 1))
        assert list(w.comps) == [(0, 1)]
        assert w.comps[(0, 1)].render() == "1"

    def test_nilpotent(self):
        ch = chart()
        assert wedge(basis(ch, 0), basis(ch, 0)).is_zero()

    def test_coefficients(self):
        ch = chart()
        a = Multivector(ch, 1, {(0,): S("x1", ch)})
        b = Multivector(ch, 1, {(1,): S("xi1", ch)})
        w = wedge(a, b)
        assert w.comps[(0, 1)].render() == "xi1*x1"

    def test_degree_overflow_is_zero(self):
        ch = ChartSpec(2, 0, 3)
        w = wedge(wedge(basis(ch, 0), basis(ch, 1)), basis(ch, 0))
        assert w.degree == 3 and w.is_zero()

    def test_graded_commutativity(self):
        r = rng(3)
        ch = chart()
        for _ in range(20):
            p, q = r.choice([(1, 1), (1, 2), (2, 2), (2, 1)])
            A = rand_multivector(r, ch, p)
            B = rand_multivector(r, ch, q)
            lhs = wedge(A, B)
            rhs = scaled(wedge(B, A), Fraction((-1) ** (p * q)))
            assert (lhs - rhs).is_zero()


class TestInterior:
    def alpha(self, ch, idx):
        out = [FiberSeries.zero(ch) for _ in range(ch.n_vars)]
        out[idx] = FiberSeries.constant(ch, 1)
        return out

    def test_dxi1(self):
        ch = chart()
        T = wedge(basis(ch, 0), basis(ch, 1))
        res = interior(self.alpha(ch, 0), T)
        assert res.comps[(1,)].render() == "1" and len(res.comps) == 1

    def test_fiber_covector_annihilates(self):
        ch = chart()
        T = wedge(basis(ch, 0), basis(ch, 1))
        assert interior(self.alpha(ch, 2), T).is_zero()

    def test_antisymmetry_sign(self):
        ch = chart()
        T = wedge(basis(ch, 0), basis(ch, 1))
        res = interior(self.alpha(ch, 1), T)
        assert res.comps[(0,)].render() == "-1"

    def test_zero_vector_errors(self):
        ch = chart()
        with pytest.raises(ValueError):
            interior(self.alpha(ch, 0), fn(ch, "1"))


class TestSchoutenNormalization:
    def test_vector_on_function(self):
        ch = chart()
        res = schouten(basis(ch, 0), fn(ch, "xi1"))
        assert res.degree == 0 and res.comps[()].render() == "1"

    def test_lie_bracket(self):
        ch = ChartSpec(0, 2, 3)
        X = Multivector(ch, 1, {(1,): S("x1", ch)})
        Y = Multivector(ch, 1, {(0,): S("x2", ch)})
        res = schouten(X, Y)
        # [x1 d2, x2 d1] = x1 d1 - x2 d2
        assert res.comps[(0,)].render() == "x1"
        assert res.comps[(1,)].render() == "-x2"

    def test_two_functions(self):
        ch = chart()
        res = schouten(fn(ch, "x1"), fn(ch, "xi2"))
        assert res.degree == 0 and res.is_zero()

    def test_so3_vertical_is_poisson(self):
        ch = ChartSpec(0, 3, 3)
        V = so3_vertical(ch)
        assert jacobiator(V).is_zero()

    def test_constant_bivector(self):
        ch = chart()
        P = wedge(basis(ch, 0), basis(ch, 1))
        assert jacobiator(P).is_zero()

    def test_fiber_series_coefficient_bivector(self):
        ch = ChartSpec(2, 1, 4)
        H = S("1 + x1 + x1^2 + x1^3 + x1^4", ch)
        P = wedge(Multivector(ch, 1, {(0,): H}), basis(ch, 1))
        assert P.comps == {(0, 1): H}
        assert jacobiator(P).is_zero()

    def test_jacobiator_requires_bivector(self):
        ch = chart()
        with pytest.raises(ValueError):
            jacobiator(basis(ch, 0))

    def test_lie_derivative_requires_vector(self):
        ch = chart()
        P = wedge(basis(ch, 0), basis(ch, 1))
        with pytest.raises(ValueError):
            lie_derivative(P, P)


class TestGradedIdentities:
    def test_graded_antisymmetry(self):
        r = rng(5)
        ch = chart(2, 1, 3)
        for _ in range(25):
            p, q = r.choice([(1, 1), (1, 2), (2, 2), (2, 3), (0, 2), (2, 0)])
            A = rand_multivector(r, ch, p)
            B = rand_multivector(r, ch, q)
            lhs = schouten(A, B)
            rhs = scaled(schouten(B, A), Fraction(-((-1) ** ((p - 1) * (q - 1)))))
            assert (lhs - rhs).is_zero()

    def test_graded_leibniz(self):
        r = rng(6)
        ch = chart(2, 1, 3)
        for _ in range(25):
            p, q, s = r.choice([(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1)])
            A = rand_multivector(r, ch, p)
            B = rand_multivector(r, ch, q)
            C = rand_multivector(r, ch, s)
            lhs = schouten(A, wedge(B, C))
            rhs = wedge(schouten(A, B), C) + \
                scaled(wedge(B, schouten(A, C)), Fraction((-1) ** ((p - 1) * q)))
            m = min(lhs.valid_order, rhs.valid_order)
            assert (lhs.truncate(m) - rhs.truncate(m)).is_zero()

    def test_graded_jacobi(self):
        r = rng(8)
        ch = chart(2, 1, 3)
        for _ in range(15):
            A = rand_multivector(r, ch, 1, terms=2)
            B = rand_multivector(r, ch, 1, terms=2)
            C = rand_multivector(r, ch, 2, terms=2)
            p, q, s = 1, 1, 2
            t1 = scaled(schouten(A, schouten(B, C)),
                        Fraction((-1) ** ((p - 1) * (s - 1))))
            t2 = scaled(schouten(B, schouten(C, A)),
                        Fraction((-1) ** ((q - 1) * (p - 1))))
            t3 = scaled(schouten(C, schouten(A, B)),
                        Fraction((-1) ** ((s - 1) * (q - 1))))
            total = t1 + t2 + t3
            assert total.is_zero()


    def test_jacobiator_is_the_full_self_bracket(self):
        # jacobiator sums over pairs I <= J only, counting I < J twice
        r = rng(9)
        for ch in (chart(2, 1, 3), chart(2, 2, 3)):
            for _ in range(10):
                P = rand_multivector(r, ch, 2, terms=3)
                assert jacobiator(P).render() == schouten(P, P).render()
                assert jacobiator(P).valid_order == schouten(P, P).valid_order


class TestOracleAgreement:
    def test_component_lookup_matches_permutation_expansion(self):
        r = rng(9)
        ch = chart(2, 2, 3)
        T = rand_multivector(r, ch, 3, terms=3)
        full = expand_full(T)
        for key, s in full.items():
            assert (T.component(key) - s).is_zero()

    def test_small_cases(self):
        r = rng(10)
        charts = [ChartSpec(0, 2, 3), ChartSpec(2, 1, 3), ChartSpec(2, 2, 3),
                  ChartSpec(4, 0, 3), ChartSpec(0, 3, 3)]
        for _ in range(40):
            ch = r.choice(charts)
            p = r.randint(0, min(3, ch.n_vars))
            q = r.randint(0, min(3, ch.n_vars))
            A = rand_multivector(r, ch, p)
            B = rand_multivector(r, ch, q)
            got = schouten(A, B)
            want = oracle_schouten(A, B)
            assert (got - want).is_zero(), (p, q, A.comps, B.comps)


class TestHForm:
    def test_antisymmetric_lookup(self):
        ch = ChartSpec(4, 1, 3)
        F = HForm(ch, 2, {(0, 1): S("xi1", ch)})
        assert F.component((1, 0)).render() == "-xi1"
        assert F.component((2, 2)).is_zero()

    def test_matrix_round_trip(self):
        ch = ChartSpec(4, 1, 3)
        F = HForm(ch, 2, {(0, 1): S("xi1", ch), (2, 3): S("1", ch)})
        again = HForm.from_matrix(ch, F.matrix())
        assert (F - again).is_zero()

    def test_base_indices_only(self):
        ch = chart()
        with pytest.raises(IndexError):
            HForm(ch, 1, {(2,): S("1", ch)})
