import bisect
import functools
import itertools
import math
import operator
import pathlib
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
                          verify_coupling_conditions, DEFAULT_T_SAMPLES,
                          HomotopyFamily, InternalInvariantError)
from fiberpoisson import series, cli, connection, coupling, moser, multivector
from fiberpoisson.report import summarize_residual
from fiberpoisson.series import FloatEvaluator

import oracle

from fixtures import (S, zeros, std_omega, rng, e1_data,
                      so3_flat_algebroid, wong_algebroid, so3_vertical,
                      vertical_from_matrix, rand_admissible, rand_mu,
                      rand_phi, rand_quad_family, rand_valid_data, rand_series)


def e1_data_phi(n, phi1="x1*xi2"):
    data = e1_data(n)
    return data, PhiForm(data.chart, [S(phi1, data.chart), S("0", data.chart)])


def e1_family(n=6, phi1="x1*xi2", samples=(Fraction(0), Fraction(1))):
    return build_family(*e1_data_phi(n, phi1), samples)


def wong_data_phi(n, comps=("3*x1*xi4", "-3*x1*xi3", "2*x2*xi2", "-2*x2*xi1")):
    data = build_geometric_data(wong_algebroid(n))
    return data, PhiForm(data.chart, [S(c, data.chart) for c in comps])


def wong_family(n=4, samples=(Fraction(0), Fraction(1))):
    return build_family(*wong_data_phi(n), samples)


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
        assert {sum(e[ch.base_dim:]) for e in comp.terms} == {1}


class TestBuildFamily:
    def test_constant_family_for_zero_phi(self):
        data = e1_data(4)
        phi = PhiForm(data.chart, [S("0", data.chart)] * 2)
        fam = build_family(data, phi)
        assert fam.dphi.is_zero() and fam.quad.is_zero()
        assert fam.degenerate_samples == []

    def test_chart_without_fiber(self):
        # no fiber direction: no connection coefficient bounds the family's order
        ch = ChartSpec(2, 0, 3)
        omega, omega_inv = std_omega(ch)
        data = GeometricData(Connection(ch, zeros(ch, 2, 0)), Multivector.zero(ch, 2),
                             HForm.from_matrix(ch, omega), omega_inv)
        fam = build_family(data, PhiForm(ch, [S("0", ch)] * 2))
        assert fam.conditions.passed
        assert verify_deformation_equation(fam).passed

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

    def test_against_the_general_inverse(self):
        # X = phi F_t^{-1} with every entry of every Neumann term formed, at every
        # sample of the shipped, random and quad families: each component equal
        # in value and in certified order
        pairs = ([wong_data_phi(n) for n in (2, 3, 4, 5)] + [e1_data_phi(n) for n in (3, 6)]
                 + random_data_phi(42, 20) + quad_data_phi(5, 10))
        checked = 0
        for data, phi in pairs:
            fam = build_family(data, phi)
            for t in fam.t_samples:
                member = fam.member(t)
                if member is None:
                    continue
                G = oracle.neumann_invert(member.fform.matrix(), member.fform_inv_seed)
                for x, col in zip(solve_homological(fam, t), zip(*G)):
                    assert x == series.dot(phi.phi, col)  # in value and order
                    checked += 1
        assert checked == 520

    def test_unverified_time_rejected(self):
        # e1_family(6) verified its members at 0 and 1 only
        fam = e1_family(6)
        with pytest.raises(ValueError, match="t=1/3 is not one of the family's samples"):
            solve_homological(fam, Fraction(1, 3))
        with pytest.raises(ValueError, match="not one of the family's samples"):
            horizontal_field(fam, Fraction(1, 2), [S("0", fam.chart)] * 2)

    def test_horizontal_field_against_the_oracle_lifts(self):
        # sum_i X^i hor_t(d_i) with the oracle's lifts, certified at the least
        # order of the X^i and the fields; X is the homological solution, or
        # random with zero and truncated entries, on random families and on
        # connections with zero and truncated coefficients
        from oracle import hor_lift
        r = rng(111)
        checked = 0
        for k in range(24):
            if k % 2:
                data = rand_valid_data(r)
                phi = rand_phi(r, data)
            else:
                ch = ChartSpec(r.choice([2, 4]), r.choice([1, 2]), r.randint(1, 4))
                omega, omega_inv = std_omega(ch)
                gamma = [[rand_series(r, ch, xdeg=3, terms=4).truncate(r.randint(-1, 4))
                          if r.random() < 0.7 else FiberSeries.zero(ch)
                          for _ in range(ch.fiber_dim)] for _ in range(ch.base_dim)]
                data = GeometricData(Connection(ch, gamma), Multivector.zero(ch, 2),
                                     HForm.from_matrix(ch, omega), omega_inv)
                phi = PhiForm(ch, [S("0", ch)] * ch.base_dim)
            ch, b = data.chart, data.chart.base_dim
            fam = HomotopyFamily(data, phi, (Fraction(0), Fraction(1, 2)))
            for t in fam.t_samples:
                member = fam.member(t)
                if member is None:
                    continue
                X = (solve_homological(fam, t) if k % 4 == 1 else
                     [rand_series(r, ch).truncate(r.randint(-1, ch.trunc_order))
                      if r.random() < 0.8 else FiberSeries.zero(ch) for _ in range(b)])
                got = horizontal_field(fam, t, X)
                fields = [hor_lift(member.connection, i) for i in range(b)]
                comps = {(a,): FiberSeries.sum([x * f.component((a,)) for x, f in zip(X, fields)])
                         for a in range(ch.n_vars)}
                want = Multivector(ch, 1, comps, min(min(x.valid_order, f.valid_order)
                                                     for x, f in zip(X, fields)))
                assert got.valid_order == want.valid_order
                assert got.comps == want.comps
                checked += not got.is_zero()
        assert checked > 20

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
        # the homological solve expands no inverse of F_t: only a failing entry,
        # mapped back to coordinates, expands its member's
        for breaking in [None, *BREAKINGS]:
            calls = count_calls(monkeypatch, series, "matrix_invert")
            rep = verify_deformation_equation(broken_family(breaking, *wong_data_phi(3)))
            failed = [e for e in rep.entries if e.tag == "part-2" and not e.passed]
            assert rep.passed == (breaking is None)
            assert len(calls) == len(failed) == (len(DEFAULT_T_SAMPLES) if breaking else 0)
            monkeypatch.undo()

    def test_every_member_seed_inverts_its_block(self, monkeypatch):
        # a member whose fiber-constant block is the data's keeps the data's
        # certified seed unchecked; every other member's seed is checked by a
        # product, and each seed is an exact inverse of its member's block
        r = rng(71)
        ch = ChartSpec(2, 2, 3)
        half = S("1/2", ch)
        omega, omega_inv = std_omega(ch)
        # a constant vertical bivector moves the block by -t^2/2 {phi ^ phi}_V
        moving = GeometricData(Connection(ch, zeros(ch, 2, 2)),
                               vertical_from_matrix(ch, [[S("0", ch), half], [-half, S("0", ch)]]),
                               HForm.from_matrix(ch, omega), omega_inv)
        reused = checked = 0
        for k in range(12):
            data = rand_valid_data(r) if k else moving
            phi = rand_phi(r, data) if k else PhiForm(ch, [S("x1", ch), S("x2", ch)])
            checks = count_calls(monkeypatch, series, "mat_is_inverse")
            fam = build_family(data, phi)
            members = [m for m in map(fam.member, fam.t_samples) if m is not None]
            same = [m for m in members if m.fform_inv_seed is data.fform_inv_seed]
            assert len(checks) == len(members) - len(same)
            monkeypatch.undo()
            for m in members:
                block = series.mat_fiber_zero_part(m.fform.matrix())
                assert series.mat_is_inverse(m.fform_inv_seed, block)
            reused += len(same)
            checked += len(members) - len(same)
        assert reused and checked

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
        # build_family verified every member in t; part 2 builds each sample's
        # member once, at its first read
        assert conditions == [] and built == list(samples)

    def test_flow_builds_no_member(self, monkeypatch):
        # the numeric pullback reads the family's coefficients, never a member
        built = []
        build = moser.HomotopyFamily._build_member
        monkeypatch.setattr(moser.HomotopyFamily, "_build_member",
                            lambda fam, t: built.append(t) or build(fam, t))
        fam = wong_family(3, samples=DEFAULT_T_SAMPLES)
        rep = numeric_pullback_check(fam, [[0.1, -0.05, 0.02, 0.03, -0.01, 0.02, 0.01]],
                                     steps=10)
        assert rep.passed and built == []

    def test_each_sample_kept_once_in_order(self):
        fam = e1_family(4, samples=(1, Fraction(1, 2), 1, 0, "1/2", 0))
        assert fam.t_samples == (1, Fraction(1, 2), 0)

    def test_member_built_once(self):
        fam = e1_family(4, samples=(Fraction(0), Fraction(1, 2), Fraction(1)))
        assert fam.member(Fraction(1, 2)) is fam.member(Fraction(1, 2))
        assert fam.member(1) is fam.member(Fraction(1))
        assert fam.member(0).fform_inverse is fam.member(0).fform_inverse

    def test_none_exactly_at_degenerate_samples(self):
        # the first rng(42) family with degenerate samples, the 21st: F0_t's
        # (0, 1) entry is 1 + 2 t^2 xi1, invertible near the zero section but
        # with no polynomial inverse, so no member at t > 0 is certified
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
        reasons = {t: "F_t at t=%s: fiber-constant part depends on the base variables; "
                      "supply fform_inv_seed to certify its inverse" % t
                   for t in fam.degenerate_samples}
        assert fam.member_errors == reasons
        assert fam.uncertified_samples == fam.degenerate_samples
        with pytest.raises(ValueError) as exc:
            solve_homological(fam, fam.degenerate_samples[0])
        assert str(exc.value) == reasons[Fraction(1, 4)]
        rep = verify_deformation_equation(fam)
        assert {e.name: e.residual for e in rep.entries if not e.passed} == {
            "deformation-at-t=%s" % t: reason for t, reason in reasons.items()}

    def test_singular_member(self):
        # a constant vertical bivector d_(x1) ^ d_(x2) moves the fiber-constant
        # block by -t^2/2 {phi ^ phi}_V: F_t's (0, 1) entry is 1 - t^2, singular
        # at t = 1 only
        ch = ChartSpec(2, 2, 3)
        one, zero = S("1", ch), S("0", ch)
        omega, omega_inv = std_omega(ch)
        data = GeometricData(Connection(ch, zeros(ch, 2, 2)),
                             vertical_from_matrix(ch, [[zero, one], [-one, zero]]),
                             HForm.from_matrix(ch, omega), omega_inv)
        fam = build_family(data, PhiForm(ch, [S("x1", ch), S("x2", ch)]))
        assert fam.degenerate_samples == [1] and fam.uncertified_samples == []
        reason = "F_t at t=1: fiber-constant part is singular: it has no fform_inv_seed"
        with pytest.raises(ValueError) as exc:
            solve_homological(fam, 1)
        assert str(exc.value) == reason
        rep = verify_deformation_equation(fam)
        assert {e.name: e.residual for e in rep.entries if not e.passed} == {
            "deformation-at-t=1": reason}

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


def random_data_phi(seed, count):
    """The first ``count`` (data, phi) pairs drawn from ``seed``, as the
    randomized family tests draw them."""
    r = rng(seed)
    pairs = []
    for _ in range(count):
        data = rand_valid_data(r)
        pairs.append((data, rand_phi(r, data)))
    return pairs


# the gauge terms (corrections, dphi, quad) broken three ways
TAMPERINGS = {
    "corrections-doubled": lambda c, dphi, quad: ([[x.scale(2) for x in row] for row in c],
                                                  dphi, quad),
    "quad-doubled": lambda c, dphi, quad: (c, dphi, oracle.scaled(quad, 2)),
    "dphi-dropped": lambda c, dphi, quad: (c, HForm.zero(dphi.chart, 2, dphi.valid_order), quad),
}


def tamper(monkeypatch, tampering):
    """Route the gauge terms of every family built after this call through
    ``TAMPERINGS[tampering]``."""
    gauge_terms = moser.gauge_terms
    monkeypatch.setattr(moser, "gauge_terms",
                        lambda data, phi: TAMPERINGS[tampering](*gauge_terms(data, phi)))


class TestFamilyConditions:
    """One verdict for every t, over the coefficients of the powers of t,
    against the members' verdicts at the samples (``oracle.sample_conditions``)."""

    @staticmethod
    def verdicts(data, phi):
        """The new and the per-sample verdict on the family, and the family."""
        fam = HomotopyFamily(data, phi, DEFAULT_T_SAMPLES)
        return fam.conditions.passed, oracle.sample_conditions(fam).passed, fam

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_wong(self, order):
        assert self.verdicts(*wong_data_phi(order))[:2] == (True, True)

    def test_e1(self):
        data = e1_data(6)
        phi = PhiForm(data.chart, [S("x1*xi2", data.chart), S("0", data.chart)])
        assert self.verdicts(data, phi)[:2] == (True, True)

    def test_random_families(self):
        degenerate = 0
        for data, phi in random_data_phi(42, 30):
            new, old, fam = self.verdicts(data, phi)
            assert new and old
            degenerate += bool(fam.degenerate_samples)
        assert degenerate

    def test_kept_by_build_family(self, monkeypatch):
        fam = wong_family(3)
        calls = count_calls(monkeypatch, coupling, "lift_brackets")
        assert fam.conditions is fam.conditions and fam.conditions.passed
        assert calls == []

    @pytest.mark.parametrize("tampering", TAMPERINGS)
    def test_tampered_gauge_terms(self, tampering, monkeypatch):
        # both verdicts catch the same tamperings: all three on Wong, the
        # doubled corrections and the dropped dphi on the fourth family of seed
        # 42, none on the first three; build_family raises exactly when caught
        tamper(monkeypatch, tampering)
        caught = []
        for data, phi in [wong_data_phi(3)] + random_data_phi(42, 4):
            new, old, _ = self.verdicts(data, phi)
            assert new == old
            if new:
                build_family(data, phi)
            else:
                with pytest.raises(InternalInvariantError,
                                   match="family fails the coupling conditions in t"):
                    build_family(data, phi)
            caught.append(not new)
        assert caught == [True, False, False, False, tampering != "quad-doubled"]


class TestReducedIdentity:
    """Part 1 of ``verify_deformation_equation``: the derivative of phi along the
    corrections C, set against the pairing that forms ``quad``."""

    @pytest.mark.parametrize("tampering", [None, "quad-doubled", "corrections-doubled"])
    def test_fails_exactly_where_tampered(self, tampering, monkeypatch):
        # a doubled C or quad leaves -quad or quad as the residual, so part 1
        # fails on exactly the families with a nonzero quad: Wong and the 19th
        # family of seed 42
        if tampering:
            tamper(monkeypatch, tampering)
        failed, with_quad = [], []
        for data, phi in [wong_data_phi(3)] + random_data_phi(42, 20):
            fam = HomotopyFamily(data, phi, DEFAULT_T_SAMPLES)
            entry = verify_deformation_equation(fam).entries[0]
            assert (entry.name, entry.tag) == ("reduced-identity-in-t", "part-1")
            assert entry.passed == (entry.residual == "0")
            failed.append(not entry.passed)
            with_quad.append(not fam.quad.is_zero())
        assert with_quad == [True] + [k == 18 for k in range(20)]
        assert failed == (with_quad if tampering else [False] * 21)


def part2_against_the_reference(fam, monkeypatch):
    """Check every part-2 entry of ``verify_deformation_equation`` on ``fam``
    against ``oracle.deformation_residual``: the frame blocks that the entry
    judges, mapped back to coordinates, equal the reference below their common
    order, and the entry has the reference's verdict, certified order and text.
    Returns the number of failed entries."""
    seen = {}
    frame_residual = moser._frame_residual
    monkeypatch.setattr(moser, "_frame_residual",
                        lambda fam, t: seen.setdefault(t, frame_residual(fam, t)))
    rep = verify_deformation_equation(fam)
    monkeypatch.undo()
    entries = [e for e in rep.entries if e.tag == "part-2"]
    assert [e.name for e in entries] == ["deformation-at-t=%s" % t for t in fam.t_samples]
    for t, e in zip(fam.t_samples, entries):
        member = fam.member(t)
        if member is None:
            assert not e.passed and t not in seen
            continue
        want = oracle.deformation_residual(fam, t)
        got = oracle.frame_to_coordinates(member.connection, series.mat_neg(member.fform_inverse),
                                          *seen[t])
        order = min(got.valid_order, want.valid_order)
        assert got.truncate(order).comps == want.truncate(order).comps
        assert e.certified_order == want.valid_order
        assert e.passed == want.is_zero() and e.residual == summarize_residual(want)
    return sum(not e.passed for e in entries)


# the family broken before its coefficients are formed, with no verdict, so
# that part 2 must catch it
BREAKINGS = {
    "moves-doubled": lambda fam: setattr(fam, "corrections", [[c.scale(2) for c in row]
                                                              for row in fam.corrections]),
    "fform-t-tripled": lambda fam: setattr(fam, "fform_t", [[cs[:1] + [c.scale(3) for c in cs[1:]]
                                                             for cs in row]
                                                            for row in fam.fform_t]),
}


def broken_family(breaking, data, phi):
    """The family of data and phi at the default samples: built by ``build_family``
    when ``breaking`` is None, else built with no verdict and broken as
    ``BREAKINGS[breaking]``.  A family forms its coefficients in t once, at their
    first read (the verdict's), so it is broken before."""
    if breaking is None:
        return build_family(data, phi)
    fam = HomotopyFamily(data, phi, DEFAULT_T_SAMPLES)
    BREAKINGS[breaking](fam)
    return fam


def tampered_wong_data(tampering):
    """Wong data at order 5 with a term added to one connection coefficient or
    one 2-form entry, so that a coupling condition fails; the fiber-constant
    block is the data's, so its seed still certifies it."""
    data, phi = wong_data_phi(5)
    ch = data.chart
    part, (i, j), text = WONG_TAMPERINGS[tampering][0]
    gamma = [list(row) for row in data.connection.gamma]
    fform = dict(data.fform.comps)
    if part == "gamma":
        gamma[i][j] = gamma[i][j] + S(text, ch)
    else:
        fform[i, j] = fform[i, j] + S(text, ch)
    return GeometricData(Connection(ch, gamma), data.vertical,
                         HForm(ch, 2, fform, data.fform.valid_order), data.fform_inv_seed), phi


# the term added, the conditions that the data then fails and the frame blocks
# that are nonzero at some sample: a lift that moves V breaks cond-2 and the
# curvature identity, a form with Casimir values only cond-3, and one with other
# fiber-dependent values only cond-4.  VV is nonzero only with cond-2 broken and
# R_HV only with cond-4; R_HH wherever a member fails cond-3, as the members at
# t > 0 of the first and the last family do: the corrections of their lifts
# differentiate the moved terms of F_t
WONG_TAMPERINGS = {
    "cond-2": (("gamma", (0, 0), "xi2*x1"), {"cond-2", "cond-4"}, {"HH", "HV", "VV"}),
    "cond-3": (("fform", (0, 1), "xi3*(x1^2 + x2^2 + x3^2)"), {"cond-3"}, {"HH"}),
    "cond-4": (("fform", (0, 1), "x1"), {"cond-4"}, {"HH", "HV"}),
}


def quad_data_phi(seed, count):
    """The first ``count`` (data, phi) pairs of ``fixtures.rand_quad_family``
    drawn from ``seed``: families with a nonzero {phi ^ phi}_V, so that F_t
    has a t^2 term and the residuals a t^2 and a t^3 coefficient."""
    r = rng(seed)
    return [rand_quad_family(r) for _ in range(count)]


class TestResidualCoefficients:
    """``HomotopyFamily.residual_coefficients`` summed at each sample, t^k times
    the coefficient of t^k, against the member's own ``coupling_residuals`` and
    dF_t/dt + d_Gamma_t(phi): equal entry by entry, in value and in certified
    order."""

    @staticmethod
    def check(fam):
        def at(coefficients, t):
            return functools.reduce(operator.add, (oracle.scaled(c, t ** k)
                                                   for k, c in enumerate(coefficients)))

        def same(got, want):
            assert got.valid_order == want.valid_order and got.comps == want.comps

        brackets, dF, rho, drift = fam.residual_coefficients
        b = fam.chart.base_dim
        for t in fam.t_samples:
            member = fam.member(t)
            if member is None:
                continue
            want = coupling.coupling_residuals(member)
            for i, B in enumerate(want[0]):
                same(at([Bk[i] for Bk in brackets], t), B)
            same(at(dF, t), want[1])
            for ij, R in want[2].items():
                same(at([rk[ij] for rk in rho], t), R)
            # dF_t/dt from each entry's coefficients of the powers of t.  At t = 0
            # a member's lifts leave out the entries of Gamma - 0 C that vanish, and
            # their order, which the drift's t^1 coefficient keeps
            dFdt = HForm(fam.chart, 2, {
                (i, j): moser._t_poly([c.scale(k) for k, c in enumerate(fam.fform_t[i][j]) if k], t)
                for i, j in itertools.combinations(range(b), 2)})
            got, want = at(drift, t), dFdt + member.connection.cov_ext_deriv(fam.phi.hform())
            order = got.valid_order
            assert order == want.valid_order or (t == 0 and order < want.valid_order)
            assert got.comps == HForm(fam.chart, 2, want.comps, order).comps

    @pytest.mark.parametrize("family, n", [(e1_family, 3), (e1_family, 6)]
                             + [(wong_family, n) for n in (2, 3, 4, 5)])
    def test_shipped_families(self, family, n):
        self.check(family(n, samples=DEFAULT_T_SAMPLES))

    def test_random_families(self):
        for data, phi in random_data_phi(42, 40) + quad_data_phi(5, 8):
            self.check(build_family(data, phi))

    @pytest.mark.parametrize("breaking", BREAKINGS)
    def test_failing_families(self, breaking):
        for pair in ([wong_data_phi(3), e1_data_phi(4)] + random_data_phi(42, 4)
                     + quad_data_phi(5, 4)):
            self.check(broken_family(breaking, *pair))

    def test_formed_once_per_run(self, monkeypatch):
        # one moser-verify run forms the family's coefficients once, for its
        # verdict, and both parts read them: one lift bracket of the family (two
        # when part 2 formed them again), six exterior derivatives (eleven, with
        # part 1's own) and three curvatures (five), the data's among them
        brackets = []
        lift_brackets = moser.lift_brackets
        monkeypatch.setattr(moser, "lift_brackets",
                            lambda *args: brackets.append(args) or lift_brackets(*args))
        derivatives = count_calls(monkeypatch, connection, "exterior_derivative")
        curvatures = count_calls(monkeypatch, connection, "lift_curvature")
        path = pathlib.Path(__file__).resolve().parent / "data" / "wong_family.problem.json"
        assert cli.main(["moser-verify", str(path), "--order", "4"]) == 0
        assert (len(brackets), len(derivatives), len(curvatures)) == (1, 6, 3)

    @pytest.mark.parametrize("tampering", WONG_TAMPERINGS)
    def test_tampered_wong(self, tampering):
        self.check(HomotopyFamily(*tampered_wong_data(tampering), DEFAULT_T_SAMPLES))


class TestDeformationAtTheBracketOrder:
    """Part 2 in the frame of the lifts: each entry has the verdict and the
    certified order of the coordinate reference, which forms [[X_t^h, Pi_t]]
    with the assembled tensor and dPi_t/dt at the member's order."""

    @pytest.mark.parametrize("family, n", [(e1_family, 3), (e1_family, 6)]
                             + [(wong_family, n) for n in (2, 3, 4, 5)])
    def test_shipped_families(self, family, n, monkeypatch):
        assert part2_against_the_reference(family(n, samples=DEFAULT_T_SAMPLES), monkeypatch) == 0

    def test_random_families(self, monkeypatch):
        for data, phi in random_data_phi(42, 20):
            fam = build_family(data, phi)
            assert part2_against_the_reference(fam, monkeypatch) == len(fam.degenerate_samples)

    @pytest.mark.parametrize("breaking", BREAKINGS)
    def test_failing_families(self, breaking, monkeypatch):
        failed = 0
        for pair in [wong_data_phi(3), e1_data_phi(4)] + random_data_phi(42, 4):
            failed += part2_against_the_reference(broken_family(breaking, *pair), monkeypatch)
        assert failed == {"moves-doubled": 10, "fform-t-tripled": 30}[breaking]

    @pytest.mark.parametrize("breaking", [None, *BREAKINGS])
    def test_families_with_quad(self, breaking, monkeypatch):
        # F_t has a t^2 term on most of these families, so the t^2 and t^3
        # coefficients of the residuals are formed and contracted.  Broken, every
        # entry fails but two: at t = 0 the tripled terms of F_t leave -2 d_Gamma(phi)
        # in R_HH, which is zero on one family and above the entry's order on another
        failed = with_quad = 0
        for data, phi in quad_data_phi(5, 10):
            fam = broken_family(breaking, data, phi)
            with_quad += not fam.quad.is_zero()
            failed += part2_against_the_reference(fam, monkeypatch)
        assert with_quad >= 8
        assert failed == {None: 0, "moves-doubled": 50, "fform-t-tripled": 48}[breaking]

    @pytest.mark.parametrize("tampering", WONG_TAMPERINGS)
    def test_tampered_wong(self, tampering, monkeypatch):
        # every entry fails, and its text is the coordinate residual
        fam = HomotopyFamily(*tampered_wong_data(tampering), DEFAULT_T_SAMPLES)
        assert part2_against_the_reference(fam, monkeypatch) == len(DEFAULT_T_SAMPLES)

    def test_product_pairs_on_wong_order_4(self, monkeypatch):
        # the pairs (k1, k2) that series._mul_into multiplies below its top in
        # one moser-verify run; 94,418 with dPi_t/dt formed at the member's
        # order, 54,086 with every entry of the antisymmetric matrices and the
        # horizontal bivectors formed by wedges, 35,642 with the moved term of
        # dPi_t/dt still formed by wedges, 35,314 with part 2 in coordinates,
        # 26,287 in the frame of the lifts with derivatives of X_t, 14,987
        # with X_t contracted into the member's coupling residuals, 9,458
        # with t^k X_t contracted into the coefficients of t^k of the members'
        # residuals and X_t solved from the seed, the coefficients formed for the
        # verdict and again for part 2, and 9,039 with them formed once per family
        pairs = [0]
        mul_into = series._mul_into

        def counted(out, lhs, rhs, top):
            keys = [k for k, _ in rhs]
            pairs[0] += sum(bisect.bisect_left(keys, top - k1) for k1, _ in lhs)
            return mul_into(out, lhs, rhs, top)

        monkeypatch.setattr(series, "_mul_into", counted)
        path = pathlib.Path(__file__).resolve().parent / "data" / "wong_family.problem.json"
        assert cli.main(["moser-verify", str(path), "--order", "4"]) == 0
        assert 0 < pairs[0] <= 9039


class TestFrameBlocks:
    """The blocks of ``moser._frame_residual`` against the coordinate reference
    read on the dual coframe (``oracle.frame_blocks``), exactly below their
    common order: R_HH = F_t HH F_t, R_HV = -F_t HV and VV."""

    @staticmethod
    def nonzero_blocks(fam):
        """Check the three identities at every sample of ``fam`` with a member;
        returns the names of the blocks that are nonzero at some sample."""
        b, r = fam.chart.base_dim, fam.chart.fiber_dim
        seen = set()
        for t in fam.t_samples:
            member = fam.member(t)
            if member is None:
                continue
            hh, hv, vv = moser._frame_residual(fam, t)
            HH, HV, VV = oracle.frame_blocks(member.connection, oracle.deformation_residual(fam, t))
            F = member.fform.matrix()
            FHHF, FHV = series.mat_mul(series.mat_mul(F, HH), F), series.mat_mul(F, HV)
            for name, got, want in ([("HH", hh[k, l], FHHF[k][l]) for k, l in hh]
                                    + [("HV", hv[j][u], -FHV[j][u])
                                       for j in range(b) for u in range(r)]
                                    + [("VV", vv.component((b + s, b + u)), VV[s][u])
                                       for s in range(r) for u in range(s + 1, r)]):
                order = min(got.valid_order, want.valid_order)
                assert (got.truncate(order) - want.truncate(order)).is_zero(), (name, t)
                if got.truncate(order):
                    seen.add(name)
        return seen

    def test_coordinates_against_the_oracle_wedges(self):
        # the map back on random connections, H and blocks, zero and truncated
        # entries among them: certified to the order it is given, at most the
        # least order of the oracle's factors
        r = rng(103)
        lowered = 0
        for _ in range(30):
            ch = ChartSpec(r.choice([2, 4]), r.choice([0, 1, 2, 3]), r.randint(1, 4))
            b, f = ch.base_dim, ch.fiber_dim

            def entry():
                u = r.random()
                if u < 0.15:
                    return FiberSeries.zero(ch, r.randint(0, ch.trunc_order))
                if u < 0.3:
                    return FiberSeries.zero(ch)
                return rand_series(r, ch, xdeg=3, terms=4).truncate(r.randint(0, ch.trunc_order))

            conn = Connection(ch, [[entry() for _ in range(f)] for _ in range(b)])
            H = series.mat_antisymmetric([[entry() for _ in range(b)] for _ in range(b)],
                                         FiberSeries.zero(ch))
            hh = {(i, j): entry() for i in range(b) for j in range(i + 1, b)}
            hv = [[entry() for _ in range(f)] for _ in range(b)]
            vv = Multivector(ch, 2, {(b + s, b + u): entry()
                                     for s in range(f) for u in range(s + 1, f)})
            want = oracle.frame_to_coordinates(conn, H, hh, hv, vv)
            order = r.randint(0, want.valid_order)
            got = moser._coordinates(conn, H, hh, hv, vv, order)
            assert got.valid_order == order
            assert got.comps == want.truncate(order).comps
            lowered += order < want.valid_order
        assert lowered

    @pytest.mark.parametrize("breaking", [None, *BREAKINGS])
    def test_random_families(self, breaking):
        # the doubled corrections move R_HV; the tripled t-coefficients move
        # R_HH, and R_HV through X_t
        seen = set()
        for data, phi in random_data_phi(42, 20):
            seen |= self.nonzero_blocks(broken_family(breaking, data, phi))
        assert seen == {None: set(), "moves-doubled": {"HV"}, "fform-t-tripled": {"HH", "HV"}}[breaking]

    @pytest.mark.parametrize("breaking", [None, *BREAKINGS])
    def test_families_with_quad(self, breaking):
        # with a zero connection, X_t of fiber degree 2 contracts the tripled
        # terms of the curvature identity above R_HV's order
        seen = set()
        for data, phi in quad_data_phi(5, 10):
            seen |= self.nonzero_blocks(broken_family(breaking, data, phi))
        assert seen == {None: set(), "moves-doubled": {"HV"}, "fform-t-tripled": {"HH"}}[breaking]

    @pytest.mark.parametrize("tampering", WONG_TAMPERINGS)
    def test_tampered_wong(self, tampering):
        data, phi = tampered_wong_data(tampering)
        _, conditions, blocks = WONG_TAMPERINGS[tampering]
        assert {e.tag for e in verify_coupling_conditions(data).entries
                if e.required and not e.passed} == conditions
        assert self.nonzero_blocks(HomotopyFamily(data, phi, DEFAULT_T_SAMPLES)) == blocks


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


class TestFloatFamily:
    """The compiled family, its t-polynomials folded into one coefficient
    matrix per time, against the exact members at the family's samples."""

    @pytest.mark.parametrize("family", [lambda: wong_family(4, samples=DEFAULT_T_SAMPLES),
                                        lambda: e1_family(6, samples=DEFAULT_T_SAMPLES)],
                             ids=["wong", "e1"])
    def test_matches_exact_members(self, family):
        fam = family()
        b, r, n = fam.chart.base_dim, fam.chart.fiber_dim, fam.chart.n_vars
        ff = moser._FloatFamily(fam)
        points = np.random.default_rng(21).uniform(-0.5, 0.5, (6, n))
        for t in fam.t_samples:
            member = fam.member(t)
            F, gam, phi, vert = ff(float(t), points)
            assert (F + F.transpose(0, 2, 1) == 0).all()
            for k, z in enumerate(points):
                exact = [Fraction(x) for x in z]
                for got, entries in [
                        (F[k], [member.fform.component((i, j)) for i in range(b) for j in range(b)]),
                        (gam[k], [g for row in member.connection.gamma for g in row]),
                        (phi[k], fam.phi.phi),
                        (vert[k], [member.vertical.component((b + u, b + v))
                                   for u in range(r) for v in range(r)])]:
                    w = np.array([float(e.evaluate(exact)) for e in entries])
                    assert np.max(np.abs(got.ravel() - w)) <= 1e-13 * np.max(np.abs(w))


    def test_pi_matches_the_assembled_tensor(self):
        # the two statements of Pi: ``assemble`` on an exact member, the
        # coordinate formula in ``_pi_matrix``.  They agree to the certified
        # order, so their gap is O(|z|^(order + 1)): below 1e-8 of the largest
        # entry at |z| <= 1e-2 on Wong and e1 at order 6, and at |z| <= 1e-3 on
        # the random families, certified to order 2 or 3.  Gamma vanishes on
        # the zero section in these families, so the block Gamma^T H Gamma is
        # O(|z|^2): the points at 1e-2 are the ones that see it
        families = [(wong_family(6, samples=DEFAULT_T_SAMPLES), 1e-2),
                    (e1_family(6, samples=DEFAULT_T_SAMPLES), 1e-2)]
        families += [(build_family(data, phi), 1e-3) for data, phi in random_data_phi(42, 10)]
        points = np.random.default_rng(22)
        checked = 0
        for fam, radius in families:
            n = fam.chart.n_vars
            ff = moser._FloatFamily(fam)
            for t in fam.t_samples:
                member = fam.member(t)
                if member is None:
                    continue
                pi = coupling.assemble(member).pi
                evaluate = FloatEvaluator([pi.component((i, j)) for i in range(n)
                                           for j in range(n)])
                zs = points.uniform(-radius, radius, (3, n))
                for z, got in zip(zs, evaluate(zs)):
                    want = moser._pi_matrix(ff, float(t), z)
                    assert np.max(np.abs(got - want.ravel())) <= 1e-8 * np.max(np.abs(want))
                    checked += 1
        # twelve families, five samples each, none degenerate
        assert checked == 12 * 5 * 3


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
