from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberpoisson import ChartSpec, FiberSeries, ChartMismatchError
from fiberpoisson.series import (mat_mul, mat_identity, mat_is_identity, FloatEvaluator, dot,
                                 MAX_FIELD, UncertifiedInverseError, block_inverse,
                                 matrix_invert)

from fixtures import S, rng, rand_series

import oracle


def chart(b=2, r=2, n=3):
    return ChartSpec(b, r, n)


class TestChartSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChartSpec(3, 1, 2)
        with pytest.raises(ValueError):
            ChartSpec(2, -1, 2)
        with pytest.raises(ValueError):
            ChartSpec(2, 1, -1)

    def test_names(self):
        ch = chart()
        assert [ch.var_name(i) for i in range(4)] == ["xi1", "xi2", "x1", "x2"]


class TestArithmetic:
    def test_polynomial_identity(self):
        ch = ChartSpec(2, 1, 2)
        a = S("1 + x1", ch)
        b = S("1 - x1", ch)
        assert (a * b).render() == "1 - x1^2"

    def test_truncation_in_product(self):
        ch = ChartSpec(2, 1, 1)
        a = S("1 + x1", ch)
        b = S("1 - x1", ch)
        p = a * b
        assert p.render() == "1"
        assert p.valid_order == 1

    def test_base_variables_never_truncated(self):
        ch = ChartSpec(2, 1, 0)
        a = S("xi1", ch)
        assert (a * a).render() == "xi1^2"

    def test_scale(self):
        ch = chart()
        a = S("2*x1", ch)
        assert a.scale(Fraction(1, 2)).render() == "x1"

    def test_chart_mismatch(self):
        a = S("x1", ChartSpec(2, 1, 3))
        b = S("x1", ChartSpec(2, 2, 3))
        with pytest.raises(ChartMismatchError):
            a + b


class TestDiff:
    def test_fiber_diff_drops_order(self):
        ch = ChartSpec(2, 1, 3)
        a = S("x1^2", ch)
        d = a.diff(2)
        assert d.render() == "2*x1"
        assert d.valid_order == 2

    def test_base_diff_keeps_order(self):
        ch = ChartSpec(2, 2, 3)
        a = S("xi1*x2", ch)
        d = a.diff(0)
        assert d.render() == "x2"
        assert d.valid_order == 3

    def test_exhausted_order_is_flagged(self):
        ch = ChartSpec(2, 1, 3)
        a = S("xi1", ch).truncate(0)
        d = a.diff(2)
        assert d.is_zero()
        assert d.valid_order == -1

    def test_mixed_partials_commute(self):
        r = rng(7)
        for _ in range(30):
            ch = ChartSpec(2, 2, 3)
            a = rand_series(r, ch)
            for i in range(4):
                for j in range(4):
                    d1 = a.diff(i).diff(j)
                    d2 = a.diff(j).diff(i)
                    m = min(d1.valid_order, d2.valid_order)
                    assert (d1.truncate(m) - d2.truncate(m)).is_zero()


@st.composite
def small_series(draw):
    ch = ChartSpec(2, 1, 3)
    n = ch.n_vars
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if coeff:
            terms[exps] = coeff
    return FiberSeries(ch, terms)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(small_series(), small_series(), small_series())
    def test_associativity_distributivity(self, a, b, c):
        assert ((a + b) + c) == (a + (b + c))
        assert ((a * b) * c).terms == (a * (b * c)).terms
        assert (a * (b + c)).terms == (a * b + a * c).terms
        assert (a * b).terms == (b * a).terms

    @settings(max_examples=30, deadline=None)
    @given(small_series())
    def test_render_parse_round_trip(self, a):
        text = a.render()
        again = S(text, a.chart)
        assert again.terms == a.terms



DIFF_CHART = ChartSpec(2, 2, 4)


@st.composite
def mixed_series(draw):
    """Terms of fiber degree 0..4 on a chart of order 4, certified below it."""
    n = DIFF_CHART.n_vars
    terms = {}
    for _ in range(draw(st.integers(0, 7))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
        terms[exps] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    vo = draw(st.integers(-1, DIFF_CHART.trunc_order))
    return FiberSeries(DIFF_CHART, terms, vo)


class TestSympyDifferential:
    """Kernel results against sympy expansion truncated by hand."""

    @staticmethod
    def expand(series):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("v0:%d" % series.chart.n_vars)
        expr = sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[x ** e for x, e in zip(xs, exps)])
                    for exps, c in series.terms.items()), sympy.Integer(0))
        return expr, xs

    @classmethod
    def terms_to_order(cls, expr, xs, order):
        sympy = pytest.importorskip("sympy")
        b = DIFF_CHART.base_dim
        poly = sympy.Poly(sympy.expand(expr), *xs)
        return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()
                if c != 0 and sum(m[b:]) <= order}

    @staticmethod
    def check_clean(r):
        # an internal result passes the validating constructor unchanged
        again = FiberSeries(r.chart, r.terms, r.valid_order)
        assert again.terms == r.terms
        assert all(type(c) is Fraction for c in r.terms.values())

    @settings(max_examples=150, deadline=None)
    @given(mixed_series(), mixed_series())
    def test_mul_and_add(self, a, b):
        ea, xs = self.expand(a)
        eb, _ = self.expand(b)
        vo = min(a.valid_order, b.valid_order)
        for r, expr in ((a * b, ea * eb), (a + b, ea + eb), (a - b, ea - eb)):
            assert r.terms == self.terms_to_order(expr, xs, vo)
            assert r.valid_order == vo
            self.check_clean(r)

    @settings(max_examples=100, deadline=None)
    @given(mixed_series(), st.integers(0, 3), st.integers(-2, 5))
    def test_diff_and_truncate(self, a, idx, order):
        sympy = pytest.importorskip("sympy")
        ea, xs = self.expand(a)
        d = a.diff(idx)
        fiber = idx >= DIFF_CHART.base_dim
        vo = a.valid_order - 1 if fiber else a.valid_order
        assert d.terms == self.terms_to_order(sympy.diff(ea, xs[idx]), xs, vo)
        assert d.valid_order == vo
        self.check_clean(d)
        t = a.truncate(order)
        vo = min(a.valid_order, order)
        assert t.terms == self.terms_to_order(ea, xs, vo)
        assert t.valid_order == vo
        self.check_clean(t)


@st.composite
def mixed_denominator_series(draw):
    """Like mixed_series, with coefficients over products of distinct prime
    powers, so operands rarely share a denominator."""
    n = DIFF_CHART.n_vars
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
        den = 1
        for p in draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 9, 11, 25]), max_size=3)):
            den *= p
        terms[exps] = Fraction(draw(st.integers(-60, 60)), den)
    vo = draw(st.integers(-1, DIFF_CHART.trunc_order))
    return FiberSeries(DIFF_CHART, terms, vo)


class TestSympyMixedDenominators:
    """The sympy cross-check on operands whose coefficients have unrelated
    denominators: one denominator per series must cancel exactly."""

    sym = TestSympyDifferential

    @settings(max_examples=150, deadline=None)
    @given(mixed_denominator_series(), mixed_denominator_series(), mixed_denominator_series(),
           st.integers(-3, 3))
    def test_ring_operations(self, a, b, c, w):
        ea, xs = self.sym.expand(a)
        eb, _ = self.sym.expand(b)
        ec, _ = self.sym.expand(c)
        vo = min(a.valid_order, b.valid_order)
        for r, expr in ((a * b, ea * eb), (a + b, ea + eb), (a - b, ea - eb)):
            assert r.terms == self.sym.terms_to_order(expr, xs, vo)
            self.sym.check_clean(r)
        vo = min(vo, c.valid_order)
        r = dot([a, b], [c, a], [w, 1])
        assert r.terms == self.sym.terms_to_order(w * ea * ec + eb * ea, xs, vo)
        assert r.valid_order == vo
        self.sym.check_clean(r)
        r = a.scale(Fraction(w, 7))
        assert r.terms == self.sym.terms_to_order(ea * w / 7, xs, a.valid_order)
        self.sym.check_clean(r)
        # one n-ary sum, a part repeated: the longest part seeds the dict
        r = FiberSeries.sum([a, b, c, a])
        assert r.terms == self.sym.terms_to_order(2 * ea + eb + ec, xs, vo)
        assert r.valid_order == vo
        self.sym.check_clean(r)


class TestExactRing:
    """The packed representation: exponent fields, the terms view, and one
    stored form per value."""

    def test_monomial_beyond_the_field_width_is_refused(self):
        ch = ChartSpec(2, 1, 3)
        assert FiberSeries.monomial(ch, (MAX_FIELD, 0, 0), 1).terms == {(MAX_FIELD, 0, 0): 1}
        for exps in [(MAX_FIELD + 1, 0, 0), (0, 0, -1)]:
            with pytest.raises(ValueError):
                FiberSeries.monomial(ch, exps, 1)

    def test_product_overflow_raises_and_never_wraps(self):
        ch = ChartSpec(2, 1, 3)
        a = FiberSeries.monomial(ch, (30000, 1, 0), 1)
        exact = a * FiberSeries.monomial(ch, (MAX_FIELD - 30000, 0, 1), 1)
        assert exact.terms == {(MAX_FIELD, 1, 1): 1}
        over = FiberSeries.monomial(ch, (MAX_FIELD - 29999, 0, 0), 1)
        for product in (lambda: a * over, lambda: dot([a], [over]),
                        lambda: mat_mul([[a]], [[over]])):
            with pytest.raises(ValueError, match="exceed %d" % MAX_FIELD):
                product()

    @settings(max_examples=150, deadline=None)
    @given(mixed_series(), mixed_denominator_series(), st.integers(MAX_FIELD - 3, MAX_FIELD),
           st.integers(0, 3))
    def test_product_is_the_one_pair_dot(self, a, b, high, low):
        # a * b is dot([a], [b]): the same terms and certified order,
        # and the same field overflow, which high + low + b's own exponents
        # of xi1 provoke past MAX_FIELD
        def outcome(product):
            try:
                r = product()
            except ValueError as err:
                return str(err)
            return r.terms, r.valid_order

        ch = a.chart
        hi = a + FiberSeries.monomial(ch, (high, 0, 0, 0), 1, a.valid_order)
        lo = b + FiberSeries.monomial(ch, (low, 1, 0, 0), 1, b.valid_order)
        for x, y in ((a, b), (b, a), (hi, lo), (lo, hi)):
            got = outcome(lambda: x * y)
            assert got == outcome(lambda: dot([x], [y]))
            if not isinstance(got, str):
                assert got[1] == min(x.valid_order, y.valid_order)

    def test_shape_mismatch_raises(self):
        ch = ChartSpec(2, 1, 3)
        one, x = FiberSeries.constant(ch, 1), S("x1", ch)
        with pytest.raises(ValueError):
            dot([one, x], [x])
        with pytest.raises(ValueError):
            dot([one], [x], [1, 2])
        with pytest.raises(ValueError):
            mat_mul([[one, x]], [[x, one], [one]])
        with pytest.raises(ValueError):
            mat_mul([[one, x, one]], [[x], [one]])

    def test_loose_bound_does_not_refuse(self):
        # truncation leaves the exponent bound loose; the exact fields decide
        ch = ChartSpec(2, 1, 3)
        s = (FiberSeries.monomial(ch, (40000, 0, 1), 1) + 1).truncate(0)
        assert (s * s).render() == "1"

    def test_terms_view(self):
        ch = ChartSpec(2, 1, 3)
        s = S("3/2*xi1^2*x1 - x1 + 1/3", ch)
        view = s.terms
        want = {(2, 0, 1): Fraction(3, 2), (0, 0, 1): Fraction(-1), (0, 0, 0): Fraction(1, 3)}
        assert len(view) == 3 and view == want and want == view
        assert dict(view) == want and sorted(view) == sorted(want)
        assert all(type(e) is tuple and type(c) is Fraction for e, c in view.items())
        assert view[(0, 0, 0)] == Fraction(1, 3) and view.get((1, 1, 1)) is None
        assert (5, 0, 0) not in view and "x" not in view
        with pytest.raises(TypeError):
            view[(1, 0, 0)] = Fraction(1)
        copied = dict(view)
        copied.clear()
        assert s.terms == want and not hasattr(view, "pop")

    def test_equal_values_compare_and_hash_equal(self):
        ch = ChartSpec(2, 2, 3)
        a = S("1/6*x1 + 2/3*xi2", ch)
        b = S("3/5 - 9/10*x2", ch)
        c = S("10/3 + 5/7*xi1*x1", ch)
        left, right = (a * b) * c, a * (b * c)
        assert left == right and hash(left) == hash(right)
        assert left.render() == right.render()
        half = S("1/2*x1 + 1/2*xi1", ch)
        assert half.scale(2) == S("x1 + xi1", ch) == half + half
        assert hash(half.scale(2)) == hash(half + half)
        assert half - half == FiberSeries.zero(ch)
        assert hash(half - half) == hash(FiberSeries.zero(ch))


def reference_dot(xs, ys, weights):
    """sum_s weights[s] xs[s] ys[s] term by term over the exponent tuples,
    certified at the least order of all the operands."""
    ch = xs[0].chart
    vo = min(s.valid_order for s in [*xs, *ys])
    out = {}
    for x, y, w in zip(xs, ys, weights):
        for ex, cx in x.terms.items():
            for ey, cy in y.terms.items():
                e = tuple(a + b for a, b in zip(ex, ey))
                if sum(e[ch.base_dim:]) <= vo:
                    out[e] = out.get(e, 0) + w * cx * cy
    return FiberSeries(ch, out, vo)


class TestDotContract:
    """What ``dot`` and ``FiberSeries.zero`` promise, whichever way they are
    set up: equal values, the same errors, the least order of all operands."""

    @pytest.mark.parametrize("vo", [None, -1, 0, 3, 5])
    def test_zero_is_the_empty_series(self, vo):
        ch = chart()
        z, empty = FiberSeries.zero(ch, vo), FiberSeries(ch, {}, vo)
        assert z == empty and hash(z) == hash(empty)
        assert z.valid_order == empty.valid_order == (3 if vo is None else min(vo, 3))
        assert z.is_zero() and z.render() == "0" and z.terms == {}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(mixed_series(), mixed_series(), st.integers(-2, 2)),
                    min_size=1, max_size=4))
    def test_against_the_term_by_term_sum(self, triples):
        # zero operands and zero weights included: every operand's order counts
        xs, ys, ws = map(list, zip(*triples))
        got = dot(xs, ys, ws)
        assert got == reference_dot(xs, ys, ws)
        assert got.valid_order == min(s.valid_order for s in xs + ys)
        assert dot(xs, ys) == dot(xs, ys, [1] * len(xs)) == reference_dot(xs, ys, [1] * len(xs))

    def test_zero_operands_count_for_the_order(self):
        ch = chart()
        x = S("x1 + xi1", ch)
        for zero in (FiberSeries.zero(ch, 1), FiberSeries(ch, {}, 0)):
            for xs, ys in (([x, zero], [x, x]), ([x, x], [x, zero]), ([zero], [zero])):
                assert dot(xs, ys).valid_order == zero.valid_order
        assert dot([x], [x], [0]) == FiberSeries.zero(ch)

    def test_any_operand_on_another_chart(self):
        ch, other = chart(), chart(n=4)
        xs = [S("x1", ch), S("1/2*xi2", ch), FiberSeries.zero(ch)]
        ys = [S("x2 - 1", ch), FiberSeries.zero(ch), S("xi1*x1", ch)]
        for k in range(3):
            for side in (xs, ys):
                for stranger in (S("x1", other), FiberSeries.zero(other)):
                    moved = list(side)
                    moved[k] = stranger
                    args = (moved, ys) if side is xs else (xs, moved)
                    with pytest.raises(ChartMismatchError):
                        dot(*args)
        # a chart equal to the operands' but another object is the same chart
        twin = chart()
        assert twin is not ch
        assert dot(xs, ys[:2] + [S("xi1*x1", twin)]) == dot(xs, ys)

    def test_length_mismatch(self):
        ch = chart()
        a, b = S("x1", ch), S("xi1 + 1", ch)
        for args in (([a, b], [a]), ([a], [a, b]), ([a, b], [a, b], [1]),
                     ([a], [b], [1, 1])):
            with pytest.raises(ValueError):
                dot(*args)


class TestEvaluate:
    def test_exact(self):
        ch = ChartSpec(2, 1, 3)
        a = S("3/2*xi1^2*x1 - x1", ch)
        v = a.evaluate([Fraction(2), Fraction(0), Fraction(1, 3)])
        assert v == Fraction(3, 2) * 4 * Fraction(1, 3) - Fraction(1, 3)

    def test_float(self):
        ch = ChartSpec(2, 1, 3)
        a = S("xi2 + x1^2", ch)
        assert abs(a.evaluate_float([0.0, 2.5, 0.5]) - 2.75) < 1e-14


EVAL_CHART = ChartSpec(2, 2, 3)


@st.composite
def series_and_points(draw):
    """A list of series on EVAL_CHART (zero series and constants included)
    and rational points with small denominators."""
    n = EVAL_CHART.n_vars
    series = []
    for _ in range(draw(st.integers(0, 4))):
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(n))
            terms[exps] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        series.append(FiberSeries(EVAL_CHART, terms))
    coord = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))
    points = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=4))
    return series, points


class TestFloatEvaluator:
    @settings(max_examples=150, deadline=None)
    @given(series_and_points())
    def test_matches_exact_evaluation(self, case):
        series, points = case
        floats = [[float(x) for x in p] for p in points]
        got = FloatEvaluator(series)(floats)
        assert got.shape == (len(points), len(series))
        for row, p in zip(got, floats):
            exact_point = [Fraction(x) for x in p]   # the point the floats denote
            for value, s in zip(row, series):
                # round-off is relative to the sum of the terms' magnitudes
                scale = sum(abs(FiberSeries.monomial(EVAL_CHART, e, c).evaluate(exact_point))
                            for e, c in s.terms.items())
                assert abs(Fraction(value) - s.evaluate(exact_point)) <= 1e-14 * scale

    def test_zero_constant_and_one_series_call(self):
        a = S("3/2*xi1^2*x1 - x2 + 1/3", EVAL_CHART)
        pts = [[0.5, -1.0, 2.0, 0.25], [0.0, 0.0, 0.0, 0.0]]
        got = FloatEvaluator([FiberSeries.zero(EVAL_CHART),
                              FiberSeries.constant(EVAL_CHART, Fraction(-7, 3)), a])(pts)
        assert (got[:, 0] == 0.0).all()
        assert (got[:, 1] == float(Fraction(-7, 3))).all()
        assert list(got[:, 2]) == [a.evaluate_float(p) for p in pts]

    def test_empty_list(self):
        assert FloatEvaluator([])(np.zeros((3, 4))).shape == (3, 0)

    def test_mixed_charts_rejected(self):
        with pytest.raises(ChartMismatchError):
            FloatEvaluator([S("x1", EVAL_CHART), S("x1", ChartSpec(2, 1, 3))])

    def test_point_dimension_checked(self):
        with pytest.raises(ValueError):
            FloatEvaluator([S("x1", EVAL_CHART)])([[1.0, 2.0, 3.0]])


class TestSubstitution:
    def test_linear_fiber_map(self):
        ch = ChartSpec(2, 2, 3)
        a = S("x1*x2", ch)
        g = [[S("0", ch), S("1", ch)], [S("-1", ch), S("0", ch)]]
        out = a.substitute_fiber(g)
        assert out.render() == "-x1*x2"


    def test_zero_entry_does_not_cap_the_order(self):
        # a zero entry certified only to order 0 adds no term to its image
        ch = ChartSpec(2, 2, 3)
        a = S("x1*x2 + xi1*x2^3", ch)
        g = [[S("1", ch), FiberSeries.zero(ch, 0)], [S("xi2", ch), S("1", ch)]]
        out = a.substitute_fiber(g)
        assert out.valid_order == 3
        assert out == S("x1*(xi2*x1 + x2) + xi1*(xi2*x1 + x2)^3", ch)


class TestMatrixInvert:
    """The general Neumann expansion is the oracle's; ``matrix_invert``
    inverts an antisymmetric matrix and must agree with it."""

    def test_geometric_series(self):
        ch = ChartSpec(2, 1, 3)
        M = [[S("1 - x1", ch)]]
        G = oracle.neumann_invert(M, [[S("1", ch)]])
        assert G[0][0].render() == "1 + x1 + x1^2 + x1^3"

    def test_identity(self):
        ch = ChartSpec(2, 2, 3)
        I = mat_identity(ch, 3)
        G = oracle.neumann_invert(I, I)
        assert mat_is_identity(G)

    def test_no_fiber_part_returns_seed(self):
        ch = ChartSpec(2, 1, 3)
        M = [[S("2", ch), S("0", ch)], [S("0", ch), S("2", ch)]]
        seed = [[S("1/2", ch), S("0", ch)], [S("0", ch), S("1/2", ch)]]
        G = oracle.neumann_invert(M, seed)
        assert all((G[i][j] - seed[i][j]).is_zero() for i in range(2) for j in range(2))

    def test_product_is_identity_randomized(self):
        r = rng(11)
        ch = ChartSpec(2, 2, 3)
        for _ in range(20):
            n = r.choice([1, 2, 3])
            M = []
            for i in range(n):
                row = []
                for j in range(n):
                    entry = rand_series(r, ch, xdeg=2, terms=2, min_xdeg=1)
                    if i == j:
                        entry = entry + (1 + r.randrange(2))
                    row.append(entry)
                M.append(row)
            M0 = [[e.fiber_part(0, 0) for e in row] for row in M]
            # constant diagonal seeds: invert the rational constant matrix
            from fiberpoisson import linalg
            const = [[e.constant_term() for e in row] for row in M0]
            try:
                inv = linalg.invert(const)
            except ValueError:
                continue
            seed = [[FiberSeries.constant(ch, c) for c in row] for row in inv]
            G = oracle.neumann_invert(M, seed)
            assert mat_is_identity(mat_mul(M, G))
            assert mat_is_identity(mat_mul(G, M))
            # without a seed the constant block is inverted by elimination
            assert oracle.neumann_invert(M, block_inverse(M)) == G

    @staticmethod
    def antisymmetric(r, ch, n):
        """A random antisymmetric n x n matrix with a nonsingular constant
        fiber-degree-0 block; a pair of entries may be truncated together."""
        M = [[FiberSeries.zero(ch)] * n for _ in range(n)]
        for i in range(0, n, 2):
            M[i][i + 1] = FiberSeries.constant(ch, 1 + r.randrange(3))
        for i in range(n):
            for j in range(i + 1, n):
                entry = M[i][j] + rand_series(r, ch, xdeg=3, terms=3, min_xdeg=1)
                if j > i + 1 or i % 2:
                    entry = entry + r.randrange(-2, 3)
                if r.random() < 0.2:
                    entry = entry.truncate(r.randint(1, ch.trunc_order))
                M[i][j], M[j][i] = entry, -entry
        return M

    def test_antisymmetric_matches_the_general_expansion(self):
        r = rng(12)
        cases = [(ChartSpec(b, r.randint(1, 3), r.randint(3, 6)), b)
                 for b in [2] * 10 + [4] * 10]
        ch = ChartSpec(2, 1, 5)
        fixed = [[S("0", ch), S("1 - x1", ch)], [S("-1 + x1", ch), S("0", ch)]]
        G = matrix_invert(fixed, block_inverse(fixed))
        assert G[0][1].render() == "-1 - x1 - x1^2 - x1^3 - x1^4 - x1^5"
        tested = 0
        for M in [fixed] + [self.antisymmetric(r, ch, n) for ch, n in cases]:
            try:
                seed = block_inverse(M)
            except ValueError:
                continue
            G = matrix_invert(M, seed)
            assert G == oracle.neumann_invert(M, seed)
            assert mat_is_identity(mat_mul(M, G)) and mat_is_identity(mat_mul(G, M))
            tested += 1
        assert tested > 15

    def test_rejects_a_matrix_that_is_not_antisymmetric(self):
        ch = ChartSpec(2, 1, 3)
        seed = [[S("0", ch), S("-1", ch)], [S("1", ch), S("0", ch)]]
        for rows in ([["0", "1 - x1"], ["-1", "0"]], [["x1", "1"], ["-1", "0"]]):
            M = [[S(e, ch) for e in row] for row in rows]
            with pytest.raises(ValueError, match="needs an antisymmetric matrix"):
                matrix_invert(M, seed)


class TestBlockInverse:
    def test_exact_inverse_of_the_fiber_constant_part(self):
        ch = ChartSpec(2, 1, 4)
        M = [[S("0", ch), S("1 - x1", ch)], [S("-1 + x1", ch), S("2 + xi1*x1", ch)]]
        inv = block_inverse(M, valid_order=3)
        assert [[s.render() for s in row] for row in inv] == [["2", "-1"], ["1", "0"]]
        assert all(s.valid_order == 3 and s.is_fiber_independent()
                   for row in inv for s in row)
        # a given seed is checked and returned as a copy
        again = block_inverse(M, inv)
        assert again == inv and again is not inv
        with pytest.raises(ValueError, match="^seed does not certify the inverse"):
            block_inverse(M, inv[::-1], "seed")

    def test_bad_seed_rejected(self):
        ch = ChartSpec(2, 1, 3)
        M = [[S("1 - x1", ch)]]
        with pytest.raises(UncertifiedInverseError, match="^M0_inv does not certify the inverse"):
            block_inverse(M, [[S("2", ch)]])

    def test_rejects_base_dependent_block(self):
        ch = ChartSpec(2, 1, 4)
        M = [[S("0", ch), S("1 + xi1", ch)], [S("-1 - xi1", ch), S("0", ch)]]
        with pytest.raises(UncertifiedInverseError,
                           match="depends on the base variables; supply a seed"):
            block_inverse(M, seed_name="a seed")
        with pytest.raises(UncertifiedInverseError, match="supply M0_inv to certify"):
            block_inverse(M)

    def test_rejects_singular_block(self):
        # a singular block is a plain ValueError, not an uncertified inverse
        ch = ChartSpec(2, 1, 4)
        M = [[S("0", ch), S("x1", ch)], [S("-x1", ch), S("0", ch)]]
        with pytest.raises(ValueError, match="singular: it has no M0_inv") as exc:
            block_inverse(M)
        assert not isinstance(exc.value, UncertifiedInverseError)
        M = [[S("1", ch), S("2 + x1", ch)], [S("2", ch), S("4", ch)]]
        with pytest.raises(ValueError, match="singular") as exc:
            block_inverse(M)
        assert not isinstance(exc.value, UncertifiedInverseError)
