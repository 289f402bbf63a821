from fractions import Fraction

import pytest

from fiberpoisson import (ChartSpec, FiberSeries, AlgebroidData,
                          ConnectionChange, check_admissible,
                          build_geometric_data, build_coupling,
                          coisotropy_check, change_connection,
                          verify_connection_equivalence, relative_cocycle,
                          cocycle_hform, verify_coupling_conditions, jacobiator,
                          InternalInvariantError)

from fixtures import (S, zeros, std_omega, rng,
                      e1_algebroid, so3_flat_algebroid, wong_algebroid,
                      rand_admissible, rand_mu, so3_vertical)


class TestConstruction:
    def test_lambda_antisymmetry_enforced(self):
        ch = ChartSpec(2, 2, 3)
        omega, omega_inv = std_omega(ch)
        lam = zeros(ch, 2, 2, 2)
        lam[0][1][0] = FiberSeries.constant(ch, 1)
        with pytest.raises(ValueError):
            AlgebroidData(ch, lam, zeros(ch, 2, 2, 2), zeros(ch, 2, 2, 2),
                          omega, omega_inv)

    def test_jacobi_enforced(self):
        # branch-like brackets violating the Jacobi identity on r = 3
        ch = ChartSpec(2, 3, 3)
        omega, omega_inv = std_omega(ch)
        one = FiberSeries.constant(ch, 1)
        lam = zeros(ch, 3, 3, 3)
        lam[0][1][2] = one
        lam[1][0][2] = -one
        lam[1][2][0] = one
        lam[2][1][0] = -one
        lam[2][0][0] = one
        lam[0][2][0] = -one
        with pytest.raises(ValueError):
            AlgebroidData(ch, lam, zeros(ch, 2, 3, 3), zeros(ch, 2, 2, 3),
                          omega, omega_inv)

    def test_closed_omega_enforced(self):
        ch = ChartSpec(4, 1, 3)
        omega, omega_inv = std_omega(ch)
        omega[0][1] = omega[0][1] + S("xi3", ch)
        omega[1][0] = -omega[0][1]
        with pytest.raises(ValueError):
            AlgebroidData(ch, [[[FiberSeries.zero(ch)]]], zeros(ch, 4, 1, 1),
                          zeros(ch, 4, 4, 1), omega, omega_inv)

    def test_fiber_dependence_rejected(self):
        ch = ChartSpec(2, 1, 3)
        omega, omega_inv = std_omega(ch)
        R = zeros(ch, 2, 2, 1)
        R[0][1][0] = S("x1", ch)
        R[1][0][0] = -R[0][1][0]
        with pytest.raises(ValueError):
            AlgebroidData(ch, [[[FiberSeries.zero(ch)]]], zeros(ch, 2, 1, 1),
                          R, omega, omega_inv)


class TestAdmissibility:
    def test_abelian_constant_curvature(self):
        ch = ChartSpec(2, 1, 3)
        omega, omega_inv = std_omega(ch)
        R = zeros(ch, 2, 2, 1)
        R[0][1][0] = FiberSeries.constant(ch, 5)
        R[1][0][0] = -R[0][1][0]
        a = AlgebroidData(ch, [[[FiberSeries.zero(ch)]]], zeros(ch, 2, 1, 1),
                          R, omega, omega_inv)
        assert check_admissible(a).passed

    def test_so3_flat(self):
        assert check_admissible(so3_flat_algebroid()).passed

    def test_so3_with_curvature_but_flat_connection_fails(self):
        a = so3_flat_algebroid()
        ch = a.chart
        one = FiberSeries.constant(ch, 1)
        R = zeros(ch, 2, 2, 3)
        R[0][1][2] = one
        R[1][0][2] = -one
        bad = AlgebroidData(ch, a.lam, a.theta, R, a.omega, a.omega_inv)
        rep = check_admissible(bad)
        assert not rep.passed
        by_name = {e.name: e for e in rep.entries}
        assert by_name["connection-preserves-bracket"].passed
        assert not by_name["curvature-is-adjoint-of-R"].passed

    def test_randomized_changes_stay_admissible(self):
        r = rng(31)
        for _ in range(8):
            assert check_admissible(rand_admissible(r)).passed


class TestBuild:
    def test_e1_coordinates(self):
        data = build_geometric_data(e1_algebroid())
        assert all(g.is_zero() for row in data.connection.gamma for g in row)
        assert data.vertical.is_zero()
        assert data.fform.component((0, 1)).render() == "1 - x1"

    def test_so3_decoupled(self):
        a = so3_flat_algebroid()
        data = build_geometric_data(a)
        assert all(g.is_zero() for row in data.connection.gamma for g in row)
        assert (data.vertical - so3_vertical(a.chart)).is_zero()
        assert data.fform.component((0, 1)).render() == "1"

    def test_inadmissible_rejected(self):
        a = so3_flat_algebroid()
        ch = a.chart
        one = FiberSeries.constant(ch, 1)
        R = zeros(ch, 2, 2, 3)
        R[0][1][2] = one
        R[1][0][2] = -one
        bad = AlgebroidData(ch, a.lam, a.theta, R, a.omega, a.omega_inv)
        with pytest.raises(ValueError):
            build_geometric_data(bad)

    def test_induced_data_satisfies_coupling_conditions(self):
        r = rng(32)
        for _ in range(6):
            a = rand_admissible(r)
            assert verify_coupling_conditions(build_geometric_data(a)).passed


class TestWongGoldenTable:
    def test_exact_brackets(self):
        a = wong_algebroid(4)
        ch = a.chart
        b, r = 4, 3
        x = [FiberSeries.variable(ch, b + s) for s in range(r)]
        t = build_coupling(a)
        q1, q2, p1, p2 = 0, 1, 2, 3
        # {q, q} = 0
        assert t.bracket(q1, q2).is_zero()
        # {p^i, q^j} = delta
        assert t.bracket(p1, q1).render() == "1"
        assert t.bracket(p2, q2).render() == "1"
        assert t.bracket(p1, q2).is_zero()
        assert t.bracket(p2, q1).is_zero()
        # {p^1, p^2} = R_{12 s} x^s
        expect = FiberSeries.zero(ch)
        for s in range(r):
            expect = expect + a.R[q1][q2][s] * x[s]
        assert (t.bracket(p1, p2) - expect).is_zero()
        # {p^i, x^s} = -theta_i x, {q^i, x^s} = 0
        for i, qi, pi_ in ((0, q1, p1), (1, q2, p2)):
            for s in range(r):
                expect = FiberSeries.zero(ch)
                for tt in range(r):
                    expect = expect - a.theta[i][s][tt] * x[tt]
                assert (t.bracket(pi_, b + s) - expect).is_zero()
                assert t.bracket(qi, b + s).is_zero()
        # {x, x} = lambda x
        for s in range(r):
            for s2 in range(s + 1, r):
                expect = FiberSeries.zero(ch)
                for n in range(r):
                    expect = expect + a.lam[s][s2][n] * x[n]
                assert (t.bracket(b + s, b + s2) - expect).is_zero()

    def test_wong_tensor_is_poisson(self):
        t = build_coupling(wong_algebroid(3))
        assert jacobiator(t.pi).is_zero()


class TestCoisotropy:
    def test_zero_curvature_full_kernel(self):
        a = so3_flat_algebroid()
        rep = coisotropy_check(a, [(0, 0), (1, Fraction(1, 2))])
        assert rep.passed
        assert "kernel dim 2" in rep.entries[0].residual

    def test_cotangent_lift_lagrangian_kernel(self):
        a = wong_algebroid()
        rep = coisotropy_check(a, [(1, 1, 0, 0)])
        assert rep.passed
        assert "kernel dim 2" in rep.entries[0].residual

    def test_trivial_kernel_not_coisotropic(self):
        # kernel {0} has full symplectic orthogonal, so containment fails;
        # consistently, this tensor is not globally defined (its 2-form
        # degenerates along x1 = 1)
        a = e1_algebroid()
        rep = coisotropy_check(a, [(0, 0)])
        assert not rep.passed
        assert "kernel dim 0" in rep.entries[0].residual


class TestChangeConnection:
    def test_identity(self):
        a = so3_flat_algebroid()
        m = ConnectionChange(a.chart, zeros(a.chart, 2, 3))
        a2 = change_connection(a, m)
        assert all((a2.theta[i][s][t] - a.theta[i][s][t]).is_zero()
                   for i in range(2) for s in range(3) for t in range(3))
        assert all((a2.R[i][j][s] - a.R[i][j][s]).is_zero()
                   for i in range(2) for j in range(2) for s in range(3))

    def test_abelian_exterior_derivative(self):
        a = e1_algebroid()
        ch = a.chart
        m = ConnectionChange(ch, [[S("xi2^2", ch)], [S("xi1", ch)]])
        a2 = change_connection(a, m)
        # R' = R + d(mu): (0,1) component gains d_0 mu_1 - d_1 mu_0
        gain = S("xi1", ch).diff(0) - S("xi2^2", ch).diff(1)
        assert (a2.R[0][1][0] - (a.R[0][1][0] + gain)).is_zero()
        assert all((a2.theta[i][0][0] - a.theta[i][0][0]).is_zero() for i in range(2))

    def test_so3_constant_change(self):
        a = so3_flat_algebroid()
        ch = a.chart
        mu = [[S("1", ch), S("0", ch), S("0", ch)],
              [S("0", ch), S("1", ch), S("0", ch)]]
        m = ConnectionChange(ch, mu)
        a2 = change_connection(a, m)
        # R' = [mu_0, mu_1] paired with the structure constants: [e1, e2] = e3
        assert a2.R[0][1][2].render() == "1"
        assert a2.R[0][1][0].is_zero() and a2.R[0][1][1].is_zero()
        # theta' = -ad(mu): theta'[0][s][t] = -mu_0^n lam[n][s][t]
        assert a2.theta[0][1][2].render() == "-1"

    def test_abelian_additivity(self):
        r = rng(33)
        a = e1_algebroid()
        ch = a.chart
        m1 = rand_mu(r, ch)
        m2 = rand_mu(r, ch)
        both = ConnectionChange(ch, [[m1.mu[i][s] + m2.mu[i][s]
                                      for s in range(1)] for i in range(2)])
        one_then_two = change_connection(change_connection(a, m1), m2)
        at_once = change_connection(a, both)
        assert all((one_then_two.R[i][j][0] - at_once.R[i][j][0]).is_zero()
                   for i in range(2) for j in range(2))


class TestConnectionEquivalence:
    def test_mu_zero(self):
        a = so3_flat_algebroid()
        m = ConnectionChange(a.chart, zeros(a.chart, 2, 3))
        assert verify_connection_equivalence(a, change_connection(a, m), m).passed

    def test_abelian_base_dependent(self):
        a = e1_algebroid()
        ch = a.chart
        m = ConnectionChange(ch, [[S("xi2^2 - xi1", ch)], [S("3*xi1*xi2", ch)]])
        assert verify_connection_equivalence(a, change_connection(a, m), m).passed

    def test_so3_constant(self):
        a = so3_flat_algebroid()
        ch = a.chart
        m = ConnectionChange(ch, [[S("2", ch), S("-1", ch), S("1/2", ch)],
                                  [S("1", ch), S("0", ch), S("1", ch)]])
        assert verify_connection_equivalence(a, change_connection(a, m), m).passed

    def test_randomized(self):
        r = rng(34)
        for _ in range(6):
            a = rand_admissible(r)
            m = rand_mu(r, a.chart)
            assert verify_connection_equivalence(a, change_connection(a, m), m).passed


class TestConnectionEquivalenceFails:
    """Data changed by mu2 and checked against mu: the relations hold exactly
    when the two changes give the same data."""

    @staticmethod
    def verdicts(a, mu, mu2):
        m, m2 = (ConnectionChange(a.chart, [[S(e, a.chart) for e in row] for row in x])
                 for x in (mu, mu2))
        rep = verify_connection_equivalence(a, change_connection(a, m2), m)
        return {e.name: e.passed for e in rep.entries}

    def test_so3_other_constant_fails_both_relations(self):
        mu = [["2", "-1", "1/2"], ["1", "0", "1"]]
        mu2 = [["1", "-1", "1/2"], ["1", "0", "1"]]
        assert self.verdicts(so3_flat_algebroid(), mu, mu2) == {
            "connection-relation": False, "two-form-relation": False}

    def test_e1_non_closed_difference_fails_the_two_form_relation(self):
        # mu2 - mu = xi1 dxi2, whose differential dxi1^dxi2 moves R
        mu = [["xi2^2 - xi1"], ["3*xi1*xi2"]]
        mu2 = [["xi2^2 - xi1"], ["3*xi1*xi2 + xi1"]]
        assert self.verdicts(e1_algebroid(), mu, mu2) == {
            "connection-relation": True, "two-form-relation": False}

    def test_e1_closed_difference_passes(self):
        # mu2 - mu = -xi1 dxi1 is closed: both changes give the same data
        mu = [["xi2^2 - xi1"], ["3*xi1*xi2"]]
        mu2 = [["xi2^2 - 2*xi1"], ["3*xi1*xi2"]]
        assert self.verdicts(e1_algebroid(), mu, mu2) == {
            "connection-relation": True, "two-form-relation": True}


class TestRelativeCocycle:
    def test_defining_relation_gives_zero(self):
        r = rng(35)
        a = rand_admissible(r)
        m = rand_mu(r, a.chart)
        a2 = change_connection(a, m)
        C, rep = relative_cocycle(a, a2, m)
        assert rep.passed
        assert all(c.is_zero() for plane in C for row in plane for c in row)

    def test_abelian_exact_difference(self):
        # R' = R + d(beta), mu = 0: the cocycle is d(beta), central and closed
        a = e1_algebroid()
        ch = a.chart
        beta = [S("xi1*xi2", ch), S("xi1^2", ch)]
        R2 = [[list(cell) for cell in row] for row in a.R]
        gain = beta[1].diff(0) - beta[0].diff(1)
        R2[0][1][0] = a.R[0][1][0] + gain
        R2[1][0][0] = -R2[0][1][0]
        a2 = AlgebroidData(ch, a.lam, a.theta, R2, a.omega, a.omega_inv)
        m = ConnectionChange(ch, zeros(ch, 2, 1))
        C, rep = relative_cocycle(a, a2, m)
        assert rep.passed
        assert (C[0][1][0] - gain).is_zero()

    def test_nonzero_closed_representative(self):
        # constant shift of the curvature: nonzero cocycle, closed, central
        ch = ChartSpec(4, 1, 3)
        omega, omega_inv = std_omega(ch)
        z = FiberSeries.zero(ch)
        a = AlgebroidData(ch, [[[z]]], zeros(ch, 4, 1, 1), zeros(ch, 4, 4, 1),
                          omega, omega_inv)
        R2 = zeros(ch, 4, 4, 1)
        R2[0][1][0] = FiberSeries.constant(ch, 2)
        R2[1][0][0] = -R2[0][1][0]
        a2 = AlgebroidData(ch, a.lam, a.theta, R2, a.omega, a.omega_inv)
        m = ConnectionChange(ch, zeros(ch, 4, 1))
        C, rep = relative_cocycle(a, a2, m)
        assert rep.passed
        assert not all(c.is_zero() for plane in C for row in plane for c in row)
        assert cocycle_hform(a, C).component((0, 1)).render() == "2*x1"

    def test_mismatched_theta_rejected(self):
        a = so3_flat_algebroid()
        m = ConnectionChange(a.chart, zeros(a.chart, 2, 3))
        mu1 = rand_mu(rng(36), a.chart)
        a2 = change_connection(a, mu1)
        with pytest.raises(ValueError):
            relative_cocycle(a, a2, m)

    def test_inadmissible_reference_rejected(self):
        # R = xi3 dxi1^dxi2 breaks the Bianchi identity of the reference data
        ch = ChartSpec(4, 1, 3)
        omega, omega_inv = std_omega(ch)
        R = zeros(ch, 4, 4, 1)
        R[0][1][0] = S("xi3", ch)
        R[1][0][0] = -R[0][1][0]
        a = AlgebroidData(ch, zeros(ch, 1, 1, 1), zeros(ch, 4, 1, 1), R, omega, omega_inv)
        assert [e.tag for e in a.admissibility.entries if not e.passed] == ["adm-3"]
        m = ConnectionChange(ch, zeros(ch, 4, 1))
        with pytest.raises(ValueError, match="relative_cocycle requires admissible"):
            relative_cocycle(a, a, m)

    def test_inadmissible_changed_data_fails_the_report(self):
        # the same term added to the changed Wong data: a2 fails its curvature
        # and Bianchi identities, which the report shows as a cocycle that is
        # neither central nor closed
        a = wong_algebroid()
        ch = a.chart
        m = ConnectionChange(ch, [[S("xi2", ch), S("0", ch), S("1", ch)],
                                  [S("0", ch)] * 3, [S("0", ch)] * 3, [S("0", ch)] * 3])
        changed = change_connection(a, m)
        R2 = [[list(cell) for cell in row] for row in changed.R]
        R2[0][1][0] = R2[0][1][0] + S("xi3", ch)
        R2[1][0][0] = -R2[0][1][0]
        a2 = AlgebroidData(ch, a.lam, changed.theta, R2, a.omega, a.omega_inv)
        assert [e.tag for e in a2.admissibility.entries if not e.passed] == ["adm-2", "adm-3"]
        C, rep = relative_cocycle(a, a2, m)
        assert [e.tag for e in rep.entries if not e.passed] == ["cocycle-center",
                                                                "cocycle-closed"]


class TestFiberwiseJacobiEquivalence:
    def test_so3_gives_poisson_vertical(self):
        ch = ChartSpec(0, 3, 3)
        assert jacobiator(so3_vertical(ch)).is_zero()

    def test_non_jacobi_constants_fail(self):
        # same bracket table as in the construction test; the fiber-linear
        # bivector it generates has a nonvanishing Jacobiator
        ch = ChartSpec(0, 3, 3)
        from fiberpoisson import Multivector
        x = [FiberSeries.variable(ch, s) for s in range(3)]
        comps = {(0, 1): x[2], (1, 2): x[0], (0, 2): x[0]}
        V = Multivector(ch, 2, comps)
        assert not jacobiator(V).is_zero()
