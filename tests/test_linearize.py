import pathlib

import pytest

from fiberpoisson import (ChartSpec, FiberSeries, Multivector, HForm,
                          Connection, GeometricData, linearize_data,
                          extract_algebroid, first_approx_check, assemble,
                          build_geometric_data, verify_coupling_conditions)

from fiberpoisson.cli import Problem

from fixtures import (S, zeros, std_omega, rng, e1_data,
                      so3_flat_algebroid, rand_admissible, rand_valid_data,
                      vertical_from_matrix)
from oracle import degree_filter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def perturbed_e1(n=5):
    """E1 data plus second-order terms in the 2-form that keep the
    conditions intact (any rank-one 2-form entry works on a 2-dim base)."""
    data = e1_data(n)
    ch = data.chart
    fcomps = {(0, 1): data.fform.component((0, 1)) + S("2*x1^2 - x1^3", ch)}
    return GeometricData(data.connection, data.vertical,
                         HForm(ch, 2, fcomps), data.fform_inv_seed)


class TestLinearizeData:
    def test_fixed_point_on_linear_data(self):
        r = rng(51)
        for _ in range(5):
            data = build_geometric_data(rand_admissible(r))
            lin = linearize_data(data)
            assert (lin.vertical - data.vertical).is_zero()
            assert (lin.fform - data.fform).is_zero()
            assert all((a - b).is_zero() for ra, rb in
                       zip(lin.connection.gamma, data.connection.gamma)
                       for a, b in zip(ra, rb))

    def test_strips_second_order_perturbation(self):
        data = perturbed_e1()
        base = e1_data(5)
        lin = linearize_data(data)
        assert (lin.fform - base.fform).is_zero()
        assert verify_coupling_conditions(lin).passed

    def test_degree_filter_contract(self):
        # output differs from input only in fiber degrees >= 2
        data = perturbed_e1()
        lin = linearize_data(data)
        df = data.fform - lin.fform
        assert all(min(sum(e[df.chart.base_dim:]) for e in s.terms) >= 2
                   for s in df.comps.values())

    def test_idempotent(self):
        data = perturbed_e1()
        once = linearize_data(data)
        twice = linearize_data(once)
        assert (once.fform - twice.fform).is_zero()
        assert (once.vertical - twice.vertical).is_zero()

    def test_second_order_stability(self):
        # two inputs differing only at fiber degree >= 2 linearize identically
        d1 = e1_data(5)
        d2 = perturbed_e1()
        l1 = linearize_data(d1)
        l2 = linearize_data(d2)
        assert (l1.fform - l2.fform).is_zero()
        assert (l1.vertical - l2.vertical).is_zero()

    def test_preconditions(self):
        ch = ChartSpec(2, 1, 3)
        omega, omega_inv = std_omega(ch)
        gamma = zeros(ch, 2, 1)
        gamma[0][0] = S("xi1", ch)  # nonzero on the zero section
        data = GeometricData(Connection(ch, gamma), Multivector.zero(ch, 2),
                             HForm(ch, 2, {(0, 1): omega[0][1]}), omega_inv)
        with pytest.raises(ValueError):
            linearize_data(data)


def outcome(linearize, data):
    """What a linearization gives: its error, or the renders and certified
    orders of its parts, its assembled tensor and its conditions report."""
    try:
        out = linearize(data)
    except ValueError as err:
        return type(err), str(err)
    parts = [out.vertical, out.fform] + [g for row in out.connection.gamma for g in row]
    tensor = assemble(out)
    return ([(p.render(), p.valid_order) for p in parts],
            (tensor.pi.render(), tensor.certified_order),
            out.conditions.render(), out.conditions.to_dict())


class TestAgainstDegreeFilter:
    """The algebroid's induced data are the input's fiber-linear parts:
    ``linearize_data`` agrees with the term-by-term degree filter."""

    def test_seeded_data(self):
        r = rng(7)
        built = 0
        for k in range(56):
            data = (rand_valid_data(r) if k % 2 else build_geometric_data(rand_admissible(r)))
            got = outcome(linearize_data, data)
            assert got == outcome(degree_filter, data)
            built += isinstance(got[0], list)
        assert built >= 40

    @pytest.mark.parametrize("order", [None, 0, 1, 2, 3, 5])
    @pytest.mark.parametrize("path", ["problems/e1.problem.json",
                                      "tests/data/wong_family.problem.json"])
    def test_shipped_data(self, path, order):
        data = Problem.load(str(ROOT / path), order).geometric_data()
        got = outcome(linearize_data, data)
        assert got == outcome(degree_filter, data)
        assert isinstance(got[0], list)


class TestExtract:
    def test_round_trip(self):
        r = rng(52)
        for _ in range(8):
            a = rand_admissible(r)
            back = extract_algebroid(build_geometric_data(a))
            ch = a.chart
            b, rr = ch.base_dim, ch.fiber_dim
            assert all((back.lam[s][t][n] - a.lam[s][t][n]).is_zero()
                       for s in range(rr) for t in range(rr) for n in range(rr))
            assert all((back.theta[i][s][t] - a.theta[i][s][t]).is_zero()
                       for i in range(b) for s in range(rr) for t in range(rr))
            assert all((back.R[i][j][s] - a.R[i][j][s]).is_zero()
                       for i in range(b) for j in range(b) for s in range(rr))
            assert all((back.omega[i][j] - a.omega[i][j]).is_zero()
                       for i in range(b) for j in range(b))

    def test_e1_read_off(self):
        back = extract_algebroid(e1_data())
        assert back.R[0][1][0].render() == "1"
        assert back.omega[0][1].render() == "1"
        assert back.lam[0][0][0].is_zero()
        assert all(t.is_zero() for i in range(2) for row in [back.theta[i][0]] for t in row)

    def test_so3_read_off(self):
        a = so3_flat_algebroid()
        back = extract_algebroid(build_geometric_data(a))
        assert back.lam[0][1][2].render() == "1"
        assert back.lam[1][0][2].render() == "-1"

    def test_extraction_from_perturbed_data(self):
        back = extract_algebroid(perturbed_e1())
        assert back.R[0][1][0].render() == "1"


class TestFirstApprox:
    def test_linearization_is_first_approximation(self):
        data = perturbed_e1()
        assert first_approx_check(data, linearize_data(data)).passed

    def test_self(self):
        data = e1_data()
        assert first_approx_check(data, data).passed

    def test_perturbed_constant_part_fails(self):
        data = e1_data(4)
        ch = data.chart
        fcomps = {(0, 1): S("2 - x1", ch)}
        seed = [[FiberSeries.zero(ch), S("-1/2", ch)],
                [S("1/2", ch), FiberSeries.zero(ch)]]
        other = GeometricData(data.connection, data.vertical,
                              HForm(ch, 2, fcomps), seed)
        rep = first_approx_check(data, other)
        assert not rep.passed


class TestInputFaults:
    """A failed output check is an input error when the input already fails
    the coupling conditions, and an internal fault otherwise."""

    @staticmethod
    def broken_bianchi_data():
        import pathlib
        from fiberpoisson.cli import Problem
        root = pathlib.Path(__file__).resolve().parent.parent
        return Problem.load(str(root / "problems" / "broken_bianchi.problem.json")) \
            .geometric_data()

    @staticmethod
    def failing_report():
        from fiberpoisson import CheckReport
        report = CheckReport("forced")
        report.add("forced", "forced", None, False, "forced")
        return report

    @pytest.mark.parametrize("fn", [linearize_data, extract_algebroid])
    def test_input_failing_coupling_conditions_raises_value_error(self, fn):
        data = self.broken_bianchi_data()
        assert not verify_coupling_conditions(data).passed
        with pytest.raises(ValueError, match="input data fails the coupling conditions"):
            fn(data)

    def test_linearize_output_failure_of_verified_input_is_internal(self, monkeypatch):
        from fiberpoisson import InternalInvariantError, coupling
        data = e1_data(4)
        real = coupling.verify_coupling_conditions
        monkeypatch.setattr(coupling, "verify_coupling_conditions",
                            lambda d: real(d) if d is data else self.failing_report())
        with pytest.raises(InternalInvariantError):
            linearize_data(data)

    def test_extract_output_failure_of_verified_input_is_internal(self, monkeypatch):
        from fiberpoisson import InternalInvariantError, algebroid
        data = e1_data(4)
        monkeypatch.setattr(algebroid, "check_admissible", lambda a: self.failing_report())
        with pytest.raises(InternalInvariantError):
            extract_algebroid(data)
