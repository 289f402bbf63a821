import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from fiberpoisson import (ChartSpec, FiberSeries, Multivector, HForm,
                          Connection, GeometricData, PhiForm, build_family,
                          phi_bracket, solve_homological, horizontal_field,
                          verify_deformation_equation, numeric_pullback_check,
                          data_equivalence_check, build_geometric_data,
                          change_connection, ConnectionChange,
                          verify_coupling_conditions, DEFAULT_T_SAMPLES)
from fiberpoisson import series, coupling, moser, multivector

import oracle

from fixtures import (S, zeros, std_omega, rng, e1_data,
                      so3_flat_algebroid, wong_algebroid, so3_vertical,
                      vertical_from_matrix, rand_admissible, rand_mu,
                      rand_phi, rand_valid_data)


def e1_family(n=6, phi1="x1*xi2", samples=(Fraction(0), Fraction(1))):
    data = e1_data(n)
    ch = data.chart
    phi = PhiForm(ch, [S(phi1, ch), S("0", ch)])
    return build_family(data, phi, samples)


def wong_family(n=4, comps=("3*x1*xi4", "-3*x1*xi3", "2*x2*xi2", "-2*x2*xi1"),
                samples=(Fraction(0), Fraction(1))):
    a = wong_algebroid(n)
    data = build_geometric_data(a)
    phi = PhiForm(data.chart, [S(c, data.chart) for c in comps])
    return build_family(data, phi, samples)


def count_calls(monkeypatch, module, name):
    """Route every fiberpoisson module's binding of ``module.name`` through
    a counter; returns the list of recorded calls."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("fiberpoisson")
                and getattr(mod, name, None) is fn):
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestPhiForm:
    def test_vanishing_enforced(self):
        ch = ChartSpec(2, 1, 3)
        with pytest.raises(ValueError):
            PhiForm(ch, [S("xi1", ch), S("0", ch)])

    def test_zero_ok(self):
        ch = ChartSpec(2, 1, 3)
        PhiForm(ch, [S("0", ch), S("x1^2", ch)])


class TestPhiBracket:
    def test_zero_vertical(self):
        ch = ChartSpec(2, 2, 3)
        phi = PhiForm(ch, [S("x1", ch), S("x2", ch)])
        out = phi_bracket(phi, phi, Multivector.zero(ch, 2))
        assert out.is_zero()
        assert out.valid_order == 2

    def test_brute_force_expansion(self):
        # expand V(dphi_i, dphi_j) - V(dphi_j, dphi_i) over the full
        # antisymmetric component matrix, no canonical tuples
        from fixtures import rand_series
        r = rng(41)
        ch = ChartSpec(2, 3, 3)
        V = so3_vertical(ch)
        full = {}
        for (u, v), s in V.comps.items():
            full[(u, v)] = s
            full[(v, u)] = -s
        for _ in range(5):
            phi1 = PhiForm(ch, [rand_series(r, ch, xdeg=2, terms=2, min_xdeg=1)
                                for _ in range(2)])
            phi2 = PhiForm(ch, [rand_series(r, ch, xdeg=2, terms=2, min_xdeg=1)
                                for _ in range(2)])
            got = phi_bracket(phi1, phi2, V)
            assert got.valid_order == 2
            for i in range(2):
                for j in range(2):
                    expect = FiberSeries.zero(ch)
                    for (u, v), s in full.items():
                        expect = expect + s * (phi1.phi[i].diff(u) * phi2.phi[j].diff(v)
                                               - phi1.phi[j].diff(u) * phi2.phi[i].diff(v))
                    gotc = got.component((i, j))
                    m = min(gotc.valid_order, expect.valid_order)
                    assert (gotc.truncate(m) - expect.truncate(m)).is_zero()

    def test_so3_linear_phi_gives_quadratic_form(self):
        ch = ChartSpec(2, 3, 3)
        V = so3_vertical(ch)
        phi = PhiForm(ch, [S("x1", ch), S("x2", ch)])
        out = phi_bracket(phi, phi, V)
        assert out.valid_order == 2
        comp = out.component((0, 1))
        assert not comp.is_zero()
        assert comp.fiber_degrees() == {1}


class TestBuildFamily:
    def test_constant_family_for_zero_phi(self):
        data = e1_data(4)
        phi = PhiForm(data.chart, [S("0", data.chart)] * 2)
        fam = build_family(data, phi)
        assert fam.dphi.is_zero() and fam.quad.is_zero()
        assert fam.degenerate_samples == []

    def test_e1_two_term_family(self):
        fam = e1_family(6)
        # V = 0 kills the connection correction and the quadratic term
        assert all(c.is_zero() for row in fam.corrections for c in row)
        assert not fam.dphi.component((0, 1)).is_zero()
        assert fam.quad.is_zero()
        assert fam.member(1).fform.component((0, 1)).render() == "1"

    def test_so3_three_term_family(self):
        a = so3_flat_algebroid(4)
        data = build_geometric_data(a)
        ch = data.chart
        phi = PhiForm(ch, [S("x1*x2", ch), S("x3^2", ch)])
        fam = build_family(data, phi, (Fraction(0), Fraction(1, 2), Fraction(1)))
        assert any(not c.is_zero() for row in fam.corrections for c in row)
        assert not fam.quad.is_zero()

    def test_invalid_base_data_rejected(self):
        ch = ChartSpec(2, 1, 3)
        omega, omega_inv = std_omega(ch)
        gamma = zeros(ch, 2, 1)
        gamma[0][0] = S("xi2*x1", ch)
        data = GeometricData(Connection(ch, gamma), Multivector.zero(ch, 2),
                             HForm(ch, 2, {(0, 1): omega[0][1]}), omega_inv)
        assert not verify_coupling_conditions(data).passed
        with pytest.raises(ValueError):
            build_family(data, PhiForm(ch, [S("0", ch)] * 2))


class TestSolveHomological:
    def test_zero_phi(self):
        data = e1_data(4)
        fam = build_family(data, PhiForm(data.chart, [S("0", data.chart)] * 2))
        X = solve_homological(fam, Fraction(1, 2))
        assert all(x.is_zero() for x in X)

    def test_e1_cramer_oracle(self):
        t = Fraction(1, 2)
        fam = e1_family(6, samples=(Fraction(0), t, Fraction(1)))
        X = solve_homological(fam, t)
        ch = fam.chart
        # Cramer on the 2x2 system: X^2 = phi_1 / F_21 with
        # F_21 = -(1 - x/2); expand the division independently
        inv = FiberSeries.zero(ch)
        half_x = S("1/2*x1", ch)
        power = FiberSeries.constant(ch, 1)
        for _ in range(ch.trunc_order + 1):
            inv = inv + power
            power = power * half_x
        expect = -(S("x1*xi2", ch) * inv)
        assert X[0].is_zero()
        assert (X[1] - expect.truncate(X[1].valid_order)).is_zero()

    def test_unverified_time_rejected(self):
        # e1_family(6) verified its members at 0 and 1 only
        fam = e1_family(6)
        with pytest.raises(ValueError, match="t=1/3 is not one of the family's samples"):
            solve_homological(fam, Fraction(1, 3))
        with pytest.raises(ValueError, match="not one of the family's samples"):
            horizontal_field(fam, Fraction(1, 2), [S("0", fam.chart)] * 2)

    def test_t_zero_against_base_matrix(self):
        fam = e1_family(5)
        X = solve_homological(fam, Fraction(0))
        F = fam.data.fform.matrix()
        for j in range(2):
            acc = -fam.phi.phi[j].truncate(X[0].valid_order)
            for s in range(2):
                acc = acc + X[s] * F[s][j]
            assert acc.is_zero()


class TestVerifyDeformation:
    def test_zero_phi(self):
        data = e1_data(4)
        fam = build_family(data, PhiForm(data.chart, [S("0", data.chart)] * 2))
        assert verify_deformation_equation(fam).passed

    def test_e1(self):
        assert verify_deformation_equation(e1_family(5, samples=DEFAULT_T_SAMPLES)).passed

    def test_so3_vertical_family(self):
        a = so3_flat_algebroid(4)
        data = build_geometric_data(a)
        ch = data.chart
        phi = PhiForm(ch, [S("x1 - 2*x2*x3", ch), S("x2 + x1^2", ch)])
        fam = build_family(data, phi)
        assert verify_deformation_equation(fam).passed

    def test_wong(self):
        assert verify_deformation_equation(wong_family(3, samples=DEFAULT_T_SAMPLES)).passed

    def test_randomized_families(self):
        r = rng(42)
        done = 0
        while done < 5:
            data = rand_valid_data(r)
            fam = build_family(data, rand_phi(r, data))
            if fam.degenerate_samples:
                continue
            assert verify_deformation_equation(fam).passed
            done += 1


class TestFamilyMember:
    def test_one_inverse_per_sample(self, monkeypatch):
        calls = count_calls(monkeypatch, series, "_neumann_inverse")
        assert verify_deformation_equation(wong_family(3, samples=DEFAULT_T_SAMPLES)).passed
        assert len(calls) == len(DEFAULT_T_SAMPLES)

    def test_checks_exactly_the_family_samples(self, monkeypatch):
        samples = (Fraction(0), Fraction(1, 3), Fraction(1))
        fam = wong_family(3, samples=samples)
        conditions = count_calls(monkeypatch, coupling, "verify_coupling_conditions")
        built = []
        build = moser.HomotopyFamily._build_member
        monkeypatch.setattr(moser.HomotopyFamily, "_build_member",
                            lambda fam, t: built.append(t) or build(fam, t))
        rep = verify_deformation_equation(fam)
        assert rep.passed
        assert [e.name for e in rep.entries if e.tag == "part-2"] == [
            "deformation-at-t=%s" % t for t in samples]
        # every member was built and verified by build_family
        assert conditions == [] and built == []

    def test_each_sample_kept_once_in_order(self):
        fam = e1_family(4, samples=(1, Fraction(1, 2), 1, 0, "1/2", 0))
        assert fam.t_samples == (1, Fraction(1, 2), 0)

    def test_member_built_once(self):
        fam = e1_family(4, samples=(Fraction(0), Fraction(1, 2), Fraction(1)))
        assert fam.member(Fraction(1, 2)) is fam.member(Fraction(1, 2))
        assert fam.member(1) is fam.member(Fraction(1))
        assert fam.member(0).fform_inverse is fam.member(0).fform_inverse

    def test_none_exactly_at_degenerate_samples(self):
        r = rng(42)
        for _ in range(40):
            data = rand_valid_data(r)
            fam = build_family(data, rand_phi(r, data))
            if fam.degenerate_samples:
                break
        assert fam.degenerate_samples
        assert len(fam.degenerate_samples) < len(DEFAULT_T_SAMPLES)
        for t in DEFAULT_T_SAMPLES:
            assert (fam.member(t) is None) == (t in fam.degenerate_samples)
        with pytest.raises(ValueError, match="singular at fiber degree 0"):
            solve_homological(fam, fam.degenerate_samples[0])
        rep = verify_deformation_equation(fam)
        failed = {e.name for e in rep.entries if not e.passed}
        assert failed == {"deformation-at-t=%s" % t for t in fam.degenerate_samples}

    def test_member_matches_the_family_polynomials(self):
        # Gamma_t = Gamma - t corrections, F_t = F - t dphi - t^2/2 quad
        fam = wong_family(3)
        t = Fraction(1)
        m = fam.member(t)
        b, r = fam.chart.base_dim, fam.chart.fiber_dim
        for i in range(b):
            for s in range(r):
                want = fam.data.connection.gamma[i][s] - fam.corrections[i][s].scale(t)
                assert (m.connection.gamma[i][s] - want).is_zero()
            for j in range(b):
                want = (fam.data.fform.component((i, j)) - fam.dphi.component((i, j)).scale(t)
                        - fam.quad.component((i, j)).scale(t * t / 2))
                assert (m.fform.component((i, j)) - want).is_zero()

    def test_e1_member_keeps_the_chart_order(self):
        # the absent quadratic term of e1 (V = 0) must not lower F_t's order
        fam = e1_family(6, samples=DEFAULT_T_SAMPLES)
        assert {fam.member(t).fform.valid_order for t in fam.t_samples} == {6}


class TestNumericPullback:
    def test_zero_phi_machine_zero(self):
        data = e1_data(4)
        fam = build_family(data, PhiForm(data.chart, [S("0", data.chart)] * 2))
        rep = numeric_pullback_check(fam, [[0.2, -0.1, 0.05]], steps=20)
        assert rep.entries[0].detail < 1e-12

    def test_zero_section_fixed_point(self):
        fam = e1_family(6)
        rep = numeric_pullback_check(fam, [[0.4, 1.3, 0.0]], steps=50)
        assert rep.entries[0].detail < 1e-11

    def test_e1_small_fiber(self):
        fam = e1_family(6)
        rep = numeric_pullback_check(fam, [[0.3, -0.2, 0.08], [0.1, 0.5, -0.05]],
                                     steps=100)
        assert rep.passed
        assert all(e.detail < 1e-6 for e in rep.entries)

    def test_singular_two_form_fails_its_point(self):
        # the first rng(42) family with degenerate samples: F = dxi1^dxi2, and
        # F_1 = 1 + 2*xi1 on the zero section vanishes where step 7 ends
        r = rng(42)
        for _ in range(40):
            data = rand_valid_data(r)
            fam = build_family(data, rand_phi(r, data))
            if fam.degenerate_samples:
                break
        rep = numeric_pullback_check(fam, [[-0.5, 0, 0, 0], [0.1, 0.1, 0.05, 0]], steps=8)
        first = rep.entries[0]
        assert (first.passed, first.residual) == (False, "family 2-form singular at step 7")
        assert rep.entries[1].passed and rep.entries[1].detail < 1e-6
        with pytest.raises(FloatingPointError, match="^family 2-form singular at t=1$"):
            moser._pi_matrix(moser._FloatFamily(fam), 1.0, [-0.5, 0, 0, 0])

    def test_escape_reported(self):
        # strong blow-up flavored family: drive the point outside the bound
        fam = wong_family(3)
        rep = numeric_pullback_check(fam, [[0.3, -0.4, 0.9, 0.7, 0.5, -0.6, 0.4]],
                                     steps=40, chart_bound=1.0)
        assert not rep.entries[0].passed
        assert "escaped" in rep.entries[0].residual
        assert rep.entries[0].residual == "flow escaped the chart at step 5"

    def test_escape_reports_the_first_row_to_leave(self):
        # at this bound the flow shifted by +FD_DELTA in xi3 leaves the chart
        # one step before the point's own flow; the rest of the points are
        # still checked
        fam = wong_family(3)
        pt = [0.3, -0.4, 0.9, 0.7, 0.5, -0.6, 0.4]
        bound = 0.9995784
        steps = [oracle.moser_flow(fam, row, 40, bound)[1] for row in fd_rows(pt)]
        assert steps[0] == 5 and min(steps) == 4
        rep = numeric_pullback_check(fam, [pt, [0.0] * 7], steps=40, chart_bound=bound)
        assert rep.entries[0].residual == "flow escaped the chart at step 4"
        assert not rep.entries[0].passed
        assert rep.entries[1].detail is not None

    def test_fourth_order_convergence(self):
        fam = wong_family(4)
        pt = [0.3, -0.4, 0.9, 0.7, 0.5, -0.6, 0.4]
        devs = []
        steps = [8, 16, 32, 64]
        for s in steps:
            devs.append(numeric_pullback_check(fam, [pt], steps=s).entries[0].detail)
        n = len(devs)
        xs = [math.log(1.0 / s) for s in steps]
        ys = [math.log(d) for d in devs]
        xbar = sum(xs) / n
        ybar = sum(ys) / n
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) \
            / sum((x - xbar) ** 2 for x in xs)
        assert 3.6 <= slope <= 4.4


def fd_rows(z0, delta=moser.FD_DELTA):
    """The point and its finite-difference neighbours, in the order of
    numeric_pullback_check: z0, then z0 +- delta e_a for each a."""
    rows = [list(z0)]
    for a in range(len(z0)):
        for sign in (1, -1):
            z = list(z0)
            z[a] += sign * delta
            rows.append(z)
    return rows


class TestBatchedFlows:
    """The 2n+1 flows of a point, integrated as one RK4 system, against the
    scalar reference that integrates them one at a time."""

    @pytest.mark.parametrize("family, point, steps", [
        (lambda: wong_family(4), [0.3, -0.4, 0.9, 0.7, 0.5, -0.6, 0.4], 20),
        (lambda: e1_family(6), [0.3, -0.2, 0.08], 50),
    ], ids=["wong", "e1"])
    def test_endpoints_match_scalar_flows(self, family, point, steps):
        fam = family()
        rows = fd_rows(point)
        got = moser._flow(moser._FloatFamily(fam), rows, steps, 1e6)
        for row, end in zip(rows, got):
            want, escaped = oracle.moser_flow(fam, row, steps)
            assert escaped is None
            assert np.max(np.abs(end - want)) < 1e-12

    def test_field_matches_scalar_field(self):
        fam = wong_family(4)
        rows = np.array(fd_rows([0.2, 0.1, -0.3, 0.4, 0.25, -0.15, 0.05], delta=0.1))
        for t in (0.0, 0.3, 1.0):
            got = moser._FloatFamily(fam).rhs(t, rows)
            want = np.array([oracle.family_rhs(fam, t, z) for z in rows])
            assert np.max(np.abs(got - want)) < 1e-14


def entry_orders(report):
    """(name, certified order) of each entry; the pinned values below are
    those of the loops that data_equivalence_check ran before series.dot."""
    return [(e.name, e.certified_order) for e in report.entries]


class TestDataEquivalence:
    def test_identity(self):
        data = e1_data(4)
        phi = PhiForm(data.chart, [S("0", data.chart)] * 2)
        rep = data_equivalence_check(data, data, phi)
        assert rep.passed
        assert entry_orders(rep) == [("vertical-relation", 4), ("connection-relation", 3),
                                     ("two-form-relation", 3)]

    def test_cross_module_connection_change(self):
        r = rng(43)
        a = rand_admissible(r)
        m = rand_mu(r, a.chart)
        d1 = build_geometric_data(a)
        d2 = build_geometric_data(change_connection(a, m))
        ch = a.chart
        b = ch.base_dim
        x = [FiberSeries.variable(ch, b + s) for s in range(ch.fiber_dim)]
        comps = []
        for i in range(b):
            acc = FiberSeries.zero(ch)
            for s in range(ch.fiber_dim):
                acc = acc + m.mu[i][s] * x[s]
            comps.append(acc)
        phi = PhiForm(ch, comps)
        rep = data_equivalence_check(d1, d2, phi)
        assert rep.passed
        assert entry_orders(rep) == [("vertical-relation", 3), ("connection-relation", 2),
                                     ("two-form-relation", 2)]

    def test_one_v_sharp_per_base_direction(self, monkeypatch):
        fam = wong_family(3)
        d2 = fam.member(1)
        calls = count_calls(monkeypatch, coupling, "v_sharp")
        rep = data_equivalence_check(fam.data, d2, fam.phi)
        assert rep.passed
        assert len(calls) == fam.chart.base_dim
        assert entry_orders(rep) == [("vertical-relation", 3), ("connection-relation", 2),
                                     ("two-form-relation", 2)]

    def test_gauge_terms_contract_once_per_base_direction(self, monkeypatch):
        # {phi ^ phi}_V pairs the fiber components of V# dphi_i that the
        # corrections already hold
        fam = wong_family(3)
        calls = count_calls(monkeypatch, multivector, "interior")
        corrections, dphi, quad = moser.gauge_terms(fam.data, fam.phi)
        assert len(calls) == fam.chart.base_dim == 4
        bracket = phi_bracket(fam.phi, fam.phi, fam.data.vertical)
        assert quad.comps == bracket.comps and quad.valid_order == bracket.valid_order

    def test_constant_fiber_map(self):
        # conjugate so(3) data by a constant fiber rotation whose transpose
        # is a bracket automorphism; the conjugated data is equivalent to
        # the original with phi = 0 and that fiber map
        from fiberpoisson import AlgebroidData
        a = so3_flat_algebroid(4)
        ch = a.chart
        m = ConnectionChange(ch, [[S("1", ch), S("0", ch), S("-1", ch)],
                                  [S("0", ch), S("2", ch), S("0", ch)]])
        a1 = change_connection(a, m)
        d1 = build_geometric_data(a1)
        z = FiberSeries.zero(ch)
        one = FiberSeries.constant(ch, 1)
        A = [[z, -one, z], [one, z, z], [z, z, one]]
        A_inv = [[z, one, z], [-one, z, z], [z, z, one]]

        def mat3(entries):
            return [[entries[i][j] for j in range(3)] for i in range(3)]

        def mul3(X, Y):
            return [[sum_series(ch, [X[i][k] * Y[k][j] for k in range(3)])
                     for j in range(3)] for i in range(3)]

        theta2 = []
        for i in range(2):
            theta2.append(mul3(mul3(mat3(A), a1.theta[i]), mat3(A_inv)))
        R2 = [[[sum_series(ch, [a1.R[i][j][mu] * A_inv[mu][s] for mu in range(3)])
                for s in range(3)] for j in range(2)] for i in range(2)]
        a2 = AlgebroidData(ch, a1.lam, theta2, R2, a.omega, a.omega_inv)
        d2 = build_geometric_data(a2)
        phi = PhiForm(ch, [z, z])
        rep = data_equivalence_check(d1, d2, phi, A, A_inv)
        assert rep.passed
        assert entry_orders(rep) == [("vertical-relation", 4), ("connection-relation", 3),
                                     ("two-form-relation", 3)]


def sum_series(ch, items):
    acc = FiberSeries.zero(ch)
    for s in items:
        acc = acc + s
    return acc


class TestRK4Step:
    @staticmethod
    def integrate(f, y0, steps, t_end=1.0):
        from fiberpoisson.moser import rk4_step
        h = t_end / steps
        y = y0
        for k in range(steps):
            t = k * h
            y = rk4_step(f, y, h, t, t + h / 2, t + h)
        return y

    @pytest.mark.parametrize("lam", [-1.5, 0.8, 2.0])
    def test_observed_order_four(self, lam):
        import numpy as np
        exact = math.exp(lam)
        errors = [abs(self.integrate(lambda t, y: lam * y, np.array([1.0]), n)[0] - exact)
                  for n in (8, 16)]
        order = math.log2(errors[0] / errors[1])
        assert 3.6 <= order <= 4.4

    def test_time_dependent_field_at_the_given_times(self):
        # y' = 4 t^3: Simpson's rule, hence RK4, is exact for cubics
        import numpy as np
        y = self.integrate(lambda t, y: np.array([4 * t ** 3]), np.array([0.0]), 3, 2.0)
        assert y[0] == pytest.approx(16.0, rel=1e-14)

    def test_array_state(self):
        import numpy as np
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        Y = self.integrate(lambda t, y: A @ y, np.eye(2), 64, math.pi / 2)
        assert np.allclose(Y, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-8)
