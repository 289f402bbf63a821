import math
from fractions import Fraction

import numpy as np
import pytest

from fiberpoisson import (AlgebroidData, BasePath, ChartSpec, parallel_transport, holonomy,
                          holonomy_compare, ConnectionChange, change_connection)

from fixtures import S, std_omega, so3_flat_algebroid, e1_algebroid, wong_algebroid

import oracle


def expm(A, terms=24):
    """Scaling-and-squaring matrix exponential oracle (moderate scaling)."""
    A = np.asarray(A, dtype=float)
    norm = np.max(np.abs(A))
    k = max(0, int(math.ceil(math.log2(norm))) + 4) if norm > 0 else 0
    B = A / 2.0 ** k
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for n in range(1, terms):
        term = term @ B / n
        E = E + term
    for _ in range(k):
        E = E @ E
    return E


def so3_with_connection(seed=61):
    a0 = so3_flat_algebroid(3)
    ch = a0.chart
    mu0 = ConnectionChange(ch, [[S("2*xi1", ch), S("-xi2", ch), S("1", ch)],
                                [S("1", ch), S("xi1", ch), S("0", ch)]])
    return change_connection(a0, mu0)


def so3_change(chart):
    rows = [["1", "xi2", "-1/2"], ["xi1^2", "0", "2"]]
    return ConnectionChange(chart, [[S(v, chart) for v in row] for row in rows])


def transport_generator(a, path_vel, point):
    """The coefficient-system matrix at a chart point for a straight path."""
    r = a.chart.fiber_dim
    z = list(point) + [0.0] * r
    M = np.zeros((r, r))
    for i in range(a.chart.base_dim):
        for s in range(r):
            for t in range(r):
                M[t][s] += path_vel[i] * a.theta[i][s][t].evaluate_float(z)
    return M


class TestParallelTransport:
    def test_flat_gives_identity(self):
        a = so3_flat_algebroid(3)
        path = BasePath([(0, 0), (1, Fraction(1, 2))])
        P = parallel_transport(a, path, 100)
        assert np.max(np.abs(P - np.eye(3))) == 0.0

    def test_constant_generator_matches_exponential(self):
        a0 = so3_flat_algebroid(3)
        mu = ConnectionChange(a0.chart, [[S("2", a0.chart), S("-1", a0.chart),
                                          S("1/2", a0.chart)],
                                         [S("0", a0.chart)] * 3])
        a = change_connection(a0, mu)
        path = BasePath([(0, 0), (1, 0)])
        P = parallel_transport(a, path, 1000)
        M = transport_generator(a, [1.0, 0.0], [0.0, 0.0])
        assert np.max(np.abs(P - expm(M))) < 1e-8

    def test_small_loop_defect_matches_adjoint_curvature(self):
        # transport around a small coordinate square; the defect per unit
        # area converges to the curvature of the coefficient system, which
        # for induced connections is minus the adjoint pairing of R
        a = so3_with_connection()
        ch = a.chart
        base_pt = (Fraction(1, 4), Fraction(1, 2))
        defects = []
        for eps in (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)):
            x0, y0 = base_pt
            loop = BasePath([(x0, y0), (x0 + eps, y0), (x0 + eps, y0 + eps),
                             (x0, y0 + eps), (x0, y0)], closed=True)
            P = parallel_transport(a, loop, 4000)
            defects.append((P - np.eye(3)) / float(eps * eps))
        # Richardson: defect(eps) = K + O(eps); extrapolate and compare
        K = 2 * defects[2] - defects[1]
        z = [float(base_pt[0]), float(base_pt[1]), 0.0, 0.0, 0.0]
        lamv = lambda m, tt, n: a.lam[m][tt][n].evaluate_float(z)
        # curvature of the coefficient system is minus the adjoint pairing
        # of R for this (counterclockwise) loop orientation
        adR = np.zeros((3, 3))
        for s in range(3):
            for t in range(3):
                acc = 0.0
                for m in range(3):
                    acc += a.R[0][1][m].evaluate_float(z) * lamv(m, s, t)
                adR[t][s] = acc
        assert np.max(np.abs(K + adR)) < 0.02

    def test_step_budget_split_over_segments(self):
        a = so3_flat_algebroid(3)
        path = BasePath([(0, 0), (1, 0), (1, 1)])
        P = parallel_transport(a, path, 7)
        assert P.shape == (3, 3)


class TestHolonomyCompare:
    def test_abelian_identity(self):
        a = e1_algebroid(3)
        mu = ConnectionChange(a.chart, [[S("xi1", a.chart)], [S("2", a.chart)]])
        path = BasePath([(0, 0), (1, 1)])
        rep = holonomy_compare(a, mu, path, 100)
        assert rep.entries[0].detail == 0.0

    def test_so3_constant_generators(self):
        a = so3_flat_algebroid(3)
        mu = ConnectionChange(a.chart, [[S("2", a.chart), S("-1", a.chart),
                                         S("1/2", a.chart)],
                                        [S("0", a.chart)] * 3])
        path = BasePath([(0, 0), (1, 0)])
        rep = holonomy_compare(a, mu, path, 1000)
        assert rep.entries[0].detail < 1e-8

    def test_nonflat_base_connection(self):
        a = so3_with_connection()
        mu = so3_change(a.chart)
        path = BasePath([(0, 0), (1, Fraction(1, 2)), (Fraction(1, 2), 1)])
        rep = holonomy_compare(a, mu, path, 1000)
        assert rep.entries[0].detail < 1e-8

    def test_fourth_order_convergence(self):
        a = so3_with_connection()
        mu = so3_change(a.chart)
        path = BasePath([(0, 0), (1, Fraction(1, 2)), (Fraction(1, 2), 1)])
        devs = []
        steps = [8, 16, 32, 64]
        for s in steps:
            devs.append(holonomy_compare(a, mu, path, s).entries[0].detail)
        xs = [math.log(1.0 / s) for s in steps]
        ys = [math.log(d) for d in devs]
        n = len(xs)
        xbar, ybar = sum(xs) / n, sum(ys) / n
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) \
            / sum((x - xbar) ** 2 for x in xs)
        assert 3.6 <= slope <= 4.4

    def test_invariant_form_preserved(self):
        # so(3) transports are orthogonal for the standard invariant form
        a = so3_with_connection()
        path = BasePath([(0, 0), (1, Fraction(1, 2)), (Fraction(1, 2), 1)])
        P = parallel_transport(a, path, 2000)
        assert np.max(np.abs(P.T @ P - np.eye(3))) < 1e-10


def wong_change(chart):
    rows = [["xi3", "1", "xi1"], ["0", "xi4", "1/2"], ["1", "0", "xi2"], ["xi1*xi2", "0", "-1"]]
    return ConnectionChange(chart, [[S(v, chart) for v in row] for row in rows])


WONG_PATH = BasePath([(0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 4), 1, Fraction(1, 2)),
                      (1, Fraction(3, 4), Fraction(1, 2), Fraction(5, 4))])


class TestGridFields:
    """The transports with every field evaluated on the whole grid up front,
    against the scalar reference that evaluates each stage point as it
    comes."""

    @pytest.mark.parametrize("steps", [7, 40, 300])
    def test_grid_transport_matches_scalar(self, steps):
        a = wong_algebroid(4)
        a2 = change_connection(a, wong_change(a.chart))
        got = parallel_transport(a, WONG_PATH, steps, theta=a2.theta, grid=True)
        want = oracle.transport_grid(a, WONG_PATH, steps, theta=a2.theta)
        assert len(got) == len(want)
        assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) < 1e-12

    @pytest.mark.parametrize("case", ["wong", "so3", "e1"])
    def test_comparison_matches_scalar(self, case):
        if case == "wong":
            a = wong_algebroid(4)
            m, path = wong_change(a.chart), WONG_PATH
        elif case == "so3":
            a = so3_with_connection()
            m = so3_change(a.chart)
            path = BasePath([(0, 0), (1, Fraction(1, 2)), (Fraction(1, 2), 1)])
        else:
            a = e1_algebroid(3)
            m = ConnectionChange(a.chart, [[S("xi1", a.chart)], [S("2", a.chart)]])
            path = BasePath([(0, 0), (1, 0)])
        got = holonomy_compare(a, m, path, 100).entries[0].detail
        want = oracle.holonomy_deviation(a, change_connection(a, m), m, path, 100)
        assert abs(got - want) < 1e-12

    def test_first_non_finite_step_is_named(self):
        # ad mu(sigma') = v xi1^4 lambda with lambda = 0 is zero until v xi1^4
        # overflows at a grid row of a later block; from there it is NaN
        # (inf * 0), and so is the comparison of every step using that row
        a = e1_algebroid(3)
        m = ConnectionChange(a.chart, [[S("xi1^4", a.chart)], [S("0", a.chart)]])
        end, steps = 1e62, 1000
        path = BasePath([(0, 0), (10 ** 62, 0)])
        with np.errstate(over="ignore"):
            rows = np.arange(2 * steps + 1) / (2 * steps)
            row = int(np.argmax(np.isinf(end * (rows * end) ** 4)))
        step = (row - 1) // 2  # step m runs over rows 2m to 2m+2
        assert step > holonomy.BLOCK_STEPS
        rep = holonomy_compare(a, m, path, steps)
        assert not rep.passed
        assert rep.entries[0].residual == "transport not finite at step %d" % step
        ok = holonomy_compare(a, m, BasePath([(0, 0), (10 ** 61, 0)]), steps)
        assert ok.entries[0].detail == 0.0

    def test_reference_raises_on_a_non_finite_deviation(self):
        # the constant so(3) change of test_so3_constant_generators, along a
        # path a thousand times longer: the transports overflow
        a = so3_flat_algebroid(3)
        m = ConnectionChange(a.chart, [[S("2", a.chart), S("-1", a.chart), S("1/2", a.chart)],
                                       [S("0", a.chart)] * 3])
        path = BasePath([(0, 0), (1000, 0)])
        assert not holonomy_compare(a, m, path, 100).passed
        with pytest.raises(FloatingPointError, match="deviation not finite at step"):
            oracle.holonomy_deviation(a, change_connection(a, m), m, path, 100)

    def test_abelian_e1_deviation_at_round_off(self):
        a = e1_algebroid(3)
        mu = ConnectionChange(a.chart, [[S("xi1", a.chart)], [S("2", a.chart)]])
        rep = holonomy_compare(a, mu, BasePath([(0, 0), (1, 0)]), 200)
        assert rep.entries[0].detail < 1e-14

    def test_long_grid_is_evaluated_in_blocks(self):
        # a step count that is not a multiple of the block size, split over
        # segments, gives the same transport as the reference
        a = so3_with_connection()
        path = BasePath([(0, 0), (1, Fraction(1, 2)), (Fraction(1, 2), 1)])
        steps = 2 * (3 * holonomy.BLOCK_STEPS + 5)
        got = parallel_transport(a, path, steps, grid=True)
        want = oracle.transport_grid(a, path, steps)
        assert len(got) == steps + 1
        assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) < 1e-12

    def test_long_comparison_is_evaluated_in_blocks(self):
        # partial blocks on every segment of the comparison grid
        a = so3_with_connection()
        m = so3_change(a.chart)
        path = BasePath([(0, 0), (1, Fraction(1, 2)), (Fraction(1, 2), 1)])
        steps = 2 * (3 * holonomy.BLOCK_STEPS + 5)
        got = holonomy_compare(a, m, path, steps).entries[0].detail
        want = oracle.holonomy_deviation(a, change_connection(a, m), m, path, steps)
        assert abs(got - want) < 1e-12


class TestBlockSize:
    """The block size bounds the arrays of a long grid; it does not change
    the results."""

    @pytest.mark.parametrize("case", ["so3", "wong"])
    def test_results_independent_of_block_size(self, case, monkeypatch):
        if case == "so3":
            a = so3_with_connection()
            m = so3_change(a.chart)
            path = BasePath([(0, 0), (1, Fraction(1, 2)), (Fraction(1, 2), 1),
                             (Fraction(-1, 4), Fraction(1, 3))])
        else:
            a = wong_algebroid(4)
            m = wong_change(a.chart)
            path = BasePath(WONG_PATH.points + [(Fraction(1, 4), 1, 0, Fraction(1, 2))])
        # 1000 steps over three segments: 334 per segment, a multiple of neither size
        steps, blocks = 1000, (16, holonomy.BLOCK_STEPS)
        assert path.n_segments == 3 and all(334 % size for size in blocks)
        got = {}
        for size in blocks:
            monkeypatch.setattr(holonomy, "BLOCK_STEPS", size)
            got[size] = (parallel_transport(a, path, steps, grid=True),
                         holonomy_compare(a, m, path, steps).entries[0].detail)
        (grid, dev), (want_grid, want_dev) = got[blocks[1]], got[16]
        assert len(grid) == len(want_grid) == 3 * 334 + 1
        assert max(np.max(np.abs(g - w)) / np.max(np.abs(w))
                   for g, w in zip(grid, want_grid)) <= 1e-13
        assert 0 < want_dev and abs(dev - want_dev) <= 1e-13 * want_dev


class TestAdvance:
    """``_advance`` writes each state in place; its grids equal, bit for bit,
    those of appending each product to a list and stacking it."""

    @staticmethod
    def appended(steps, y):
        out = [y]
        for S in steps:
            out.append(S @ out[-1])
        return np.stack(out)

    def test_equals_the_appended_stack(self):
        rng = np.random.default_rng(5)
        for shape in [(1, 1), (3, 3), (2, 3, 3)]:
            steps = rng.normal(size=(17, shape[-1], shape[-1]))
            y = rng.normal(size=shape)
            assert np.array_equal(holonomy._advance(steps, y), self.appended(steps, y))

    def test_transport_grids_unchanged(self, monkeypatch):
        # 300 steps span several blocks
        a = wong_algebroid(4)
        m = wong_change(a.chart)
        got = (parallel_transport(a, WONG_PATH, 300, grid=True),
               holonomy_compare(a, m, WONG_PATH, 300).entries[0].detail)
        monkeypatch.setattr(holonomy, "_advance", self.appended)
        want = (parallel_transport(a, WONG_PATH, 300, grid=True),
                holonomy_compare(a, m, WONG_PATH, 300).entries[0].detail)
        assert all(np.array_equal(g, w) for g, w in zip(got[0], want[0], strict=True))
        assert got[1] == want[1]


class TestStepMatrices:
    """The RK4 step matrices of a linear system against the generic step."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_generic_rk4_step(self, r):
        from fiberpoisson.moser import rk4_step
        rng = np.random.default_rng(10 + r)
        K, h = 7, 0.1
        # a generator that differs at every grid row: no two rows commute
        G = rng.standard_normal((2 * K + 1, r, r))
        S, C = holonomy._step_matrices(h, *holonomy._stages(G))
        assert S.shape == (K, r, r) and all(c.shape == (K, r, r) for c in C)
        for k in range(K):
            y = rng.standard_normal((r, 3))
            inputs = []

            def f(q, x):
                inputs.append(x)
                return G[q] @ x

            want = rk4_step(f, y, h, 2 * k, 2 * k + 1, 2 * k + 2)
            assert np.max(np.abs(S[k] @ y - want)) < 1e-14
            assert np.max(np.abs(inputs[0] - y)) == 0.0
            for c, x in zip(C, inputs[1:]):
                assert np.max(np.abs(c[k] @ y - x)) < 1e-14


class TestFiberless:
    """With fiber_dim 0 every transport is the 0 x 0 identity."""

    def test_transport_and_comparison(self):
        ch = ChartSpec(2, 0, 2)
        omega, omega_inv = std_omega(ch)
        a = AlgebroidData(ch, [], [[], []], [[[], []], [[], []]], omega, omega_inv)
        path = BasePath([(0, 0), (1, Fraction(1, 2))])
        assert parallel_transport(a, path, 300).shape == (0, 0)
        rep = holonomy_compare(a, ConnectionChange(ch, [[], []]), path, 300)
        assert rep.passed and rep.entries[0].detail == 0.0


class TestBasePath:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            BasePath([(0, 0)])

    def test_closed_flag_checked(self):
        with pytest.raises(ValueError):
            BasePath([(0, 0), (1, 0)], closed=True)
        BasePath([(0, 0), (1, 0), (0, 0)], closed=True)
