import pytest

from fiberpoisson import (ChartSpec, FiberSeries, Multivector, HForm,
                          GeometricData, assemble, decompose,
                          verify_coupling_conditions, jacobiator, interior, v_sharp)

from fixtures import (S, zeros, std_omega, rng, so3_flat_algebroid, e1_data,
                      rand_geometric_data, rand_valid_data, mutate_data,
                      vertical_from_matrix, flat_connection)
from fiberpoisson import build_geometric_data, series

from oracle import coupling_criterion_test
from test_moser import count_calls


def flat_data(ch, fcomps, vertical=None):
    omega, omega_inv = std_omega(ch)
    if vertical is None:
        vertical = Multivector.zero(ch, 2)
    return GeometricData(flat_connection(ch), vertical,
                         HForm(ch, 2, fcomps), omega_inv)


def e1_raw(n=4):
    ch = ChartSpec(2, 1, n)
    return flat_data(ch, {(0, 1): S("1 - x1", ch)})


def broken_bianchi(n=3):
    # 4-dim base, rank-1 fiber, flat connection, F_{12} = 1 - xi3*x1:
    # the 2-form is not covariantly closed and the tensor is not Poisson
    ch = ChartSpec(4, 1, n)
    omega, omega_inv = std_omega(ch)
    fcomps = {(0, 1): omega[0][1] - S("xi3*x1", ch), (2, 3): omega[2][3]}
    return GeometricData(flat_connection(ch), Multivector.zero(ch, 2),
                         HForm(ch, 2, fcomps), omega_inv)


class TestAssemble:
    def test_geometric_series(self):
        data = e1_raw(4)
        t = assemble(data)
        assert t.pi.component((0, 1)).render() == "1 + x1 + x1^2 + x1^3 + x1^4"
        assert t.pi.component((0, 2)).is_zero()

    def test_constant_symplectic(self):
        ch = ChartSpec(2, 1, 3)
        data = flat_data(ch, {(0, 1): S("1", ch)})
        t = assemble(data)
        # H F = -identity fixes the sign of the constant block
        assert t.pi.component((0, 1)).render() == "1"

    def test_singular_form_rejected(self):
        ch = ChartSpec(2, 1, 3)
        omega, omega_inv = std_omega(ch)
        with pytest.raises(ValueError):
            GeometricData(flat_connection(ch), Multivector.zero(ch, 2),
                          HForm(ch, 2, {}), omega_inv)

    def test_horizontal_part_annihilates_vertical_coframe(self):
        r = rng(21)
        for _ in range(8):
            data = rand_geometric_data(r)
            ch = data.chart
            t = assemble(data)
            pi_h = t.pi - data.vertical.truncate(t.pi.valid_order)
            for s in range(ch.fiber_dim):
                alpha = [FiberSeries.zero(ch) for _ in range(ch.n_vars)]
                alpha[ch.base_dim + s] = FiberSeries.constant(ch, 1)
                for i in range(ch.base_dim):
                    alpha[i] = data.connection.gamma[i][s]
                assert interior(alpha, pi_h).is_zero()


class TestDecompose:
    def test_round_trip(self):
        r = rng(22)
        for _ in range(10):
            data = rand_geometric_data(r)
            t = assemble(data)
            back = decompose(t.pi)
            assert all((a - b).is_zero() for ra, rb in
                       zip(back.connection.gamma, data.connection.gamma)
                       for a, b in zip(ra, rb))
            assert (back.vertical - data.vertical.truncate(back.vertical.valid_order)).is_zero()
            assert (back.fform - HForm(data.chart, 2, data.fform.comps,
                                       back.fform.valid_order)).is_zero()

    def test_block_diagonal(self):
        ch = ChartSpec(2, 2, 3)
        vm = zeros(ch, 2, 2)
        vm[0][1] = S("x1 - x2^2", ch)
        vm[1][0] = -vm[0][1]
        V = vertical_from_matrix(ch, vm)
        data = flat_data(ch, {(0, 1): S("1", ch)}, V)
        back = decompose(assemble(data).pi)
        assert all(g.is_zero() for row in back.connection.gamma for g in row)
        assert (back.vertical - V.truncate(back.vertical.valid_order)).is_zero()
        assert back.fform.component((0, 1)).render() == "1"

    def test_recovers_nonzero_connection(self):
        from fixtures import rand_admissible
        a = rand_admissible(rng(23))
        data = build_geometric_data(a)
        assert any(not g.is_zero() for row in data.connection.gamma for g in row)
        back = decompose(assemble(data).pi)
        assert all((x - y).is_zero() for rx, ry in
                   zip(back.connection.gamma, data.connection.gamma)
                   for x, y in zip(rx, ry))

    def test_inverse_certified_once(self, monkeypatch):
        # the check of the base block's seed Q0^-1 is the one product that
        # certifies the recovered data's seed -Q0 too
        data = e1_data(4)
        pi = assemble(data).pi
        calls = count_calls(monkeypatch, series, "mat_is_inverse")
        back = decompose(pi)
        assert len(calls) == 1
        assert (back.fform - HForm(data.chart, 2, data.fform.comps,
                                   back.fform.valid_order)).is_zero()
        assert all((a - b).is_zero() for ra, rb in zip(back.fform_inverse, data.fform_inverse)
                   for a, b in zip(ra, rb))

    def test_degenerate_rejected(self):
        ch = ChartSpec(2, 1, 3)
        pi = Multivector(ch, 2, {(0, 2): S("1", ch)})
        with pytest.raises(ValueError):
            decompose(pi)

    def test_base_dependent_block_needs_seed(self):
        ch = ChartSpec(2, 1, 3)
        pi = Multivector(ch, 2, {(0, 1): S("1 + xi1", ch)})
        with pytest.raises(ValueError):
            decompose(pi)
        fz = [[S("0", ch), S("-1", ch)], [S("1", ch), S("0", ch)]]
        # wrong seed is detected by exact multiplication
        with pytest.raises(ValueError):
            decompose(pi, fz)


class TestVerifier:
    def test_e1_passes_with_vacuous_closedness(self):
        rep = verify_coupling_conditions(e1_raw())
        assert rep.passed
        by_name = {e.name: e for e in rep.entries}
        assert by_name["covariant-closedness"].passed

    def test_broken_bianchi_fails(self):
        data = broken_bianchi()
        rep = verify_coupling_conditions(data)
        assert not rep.passed
        by_name = {e.name: e for e in rep.entries}
        assert not by_name["covariant-closedness"].passed
        assert "x1" in by_name["covariant-closedness"].residual
        assert not jacobiator(assemble(data).pi).is_zero()

    def test_flat_closed_passes(self):
        # flat connection, no vertical part, constant nondegenerate closed form
        ch = ChartSpec(4, 2, 3)
        omega, _ = std_omega(ch)
        fcomps = {(0, 1): omega[0][1], (2, 3): omega[2][3],
                  (0, 2): S("1/2", ch), (2, 0): None}
        fcomps.pop((2, 0))
        from fiberpoisson import linalg
        F = HForm(ch, 2, fcomps)
        const = [[s.constant_term() for s in row] for row in F.matrix()]
        seed = [[FiberSeries.constant(ch, c) for c in row]
                for row in linalg.invert(const)]
        data = GeometricData(flat_connection(ch), Multivector.zero(ch, 2), F, seed)
        assert verify_coupling_conditions(data).passed

    def test_so3_flat(self):
        data = build_geometric_data(so3_flat_algebroid())
        rep = verify_coupling_conditions(data)
        assert rep.passed
        assert jacobiator(assemble(data).pi).is_zero()


class TestBiconditional:
    def test_valid_data(self):
        r = rng(24)
        for _ in range(6):
            data = rand_valid_data(r)
            rep = coupling_criterion_test(data)
            assert rep.passed
            by_name = {e.name: e for e in rep.entries}
            assert by_name["conditions"].passed and by_name["jacobiator"].passed

    def test_mutations_flip_both_sides(self):
        r = rng(25)
        flipped = 0
        while flipped < 6:
            data = rand_valid_data(r)
            bad = mutate_data(r, data)
            conds = verify_coupling_conditions(bad)
            if conds.passed:
                continue
            rep = coupling_criterion_test(bad)
            by_name = {e.name: e for e in rep.entries}
            assert not by_name["jacobiator"].passed
            assert by_name["biconditional"].passed
            flipped += 1

    def test_casimir_entry_is_informational(self):
        rep = verify_coupling_conditions(broken_bianchi())
        by_name = {e.name: e for e in rep.entries}
        entry = by_name["closedness-defect-casimir-valued"]
        assert not entry.required
        # V = 0 here, so the defect is trivially Casimir-valued even though
        # closedness itself fails
        assert entry.passed


class TestVSharp:
    def test_vertical_hamiltonian_components(self):
        ch = ChartSpec(2, 2, 3)
        vm = zeros(ch, 2, 2)
        vm[0][1] = S("1", ch)
        vm[1][0] = S("-1", ch)
        V = vertical_from_matrix(ch, vm)
        h = v_sharp(V, S("x1", ch))
        # (V# dg)^t = sum_n V^{nt} d_n g: only the x2 component survives
        assert h.comps[(3,)].render() == "1"
        assert (2,) not in h.comps


    @pytest.mark.parametrize("fiber", [0, 1, 2, 3])
    def test_matches_the_contraction_of_the_full_differential(self, fiber):
        # only V's directions are differentiated: the field and its certified
        # order are those of the contraction of every derivative of f
        from fixtures import rand_series
        r = rng(60 + fiber)
        for _ in range(15):
            ch = ChartSpec(r.choice([2, 4]), fiber, r.randint(1, 4))
            vm = zeros(ch, fiber, fiber)
            for s, t in [(s, t) for s in range(fiber) for t in range(s + 1, fiber)]:
                if r.random() < 0.5:
                    vm[s][t] = rand_series(r, ch).truncate(r.randint(-1, ch.trunc_order))
                    vm[t][s] = -vm[s][t]
            V = vertical_from_matrix(ch, vm)
            f = rand_series(r, ch, xdeg=3, terms=4).truncate(r.randint(-1, ch.trunc_order))
            got = v_sharp(V, f)
            want = interior([f.diff(n) for n in range(ch.n_vars)], V)
            assert got.valid_order == want.valid_order
            assert got.comps == want.comps


class TestLiftBrackets:
    @pytest.mark.parametrize("case", ["vertical", "general"])
    def test_matches_the_schouten_bracket(self, case):
        # the coordinate formula against schouten(hor_lift(conn, i), V) with the
        # oracle's lift: same fields, same order, zero and truncated coefficients
        # included; a V with base components as well, which the formula reads the
        # same way
        from itertools import combinations
        from fiberpoisson import Connection, schouten
        from fiberpoisson.coupling import lift_brackets
        from fixtures import rand_series
        from oracle import hor_lift
        r = rng({"vertical": 91, "general": 92}[case])
        nonzero = 0
        for _ in range(30):
            ch = ChartSpec(r.choice([2, 4]), r.choice([1, 2, 3]), r.randint(1, 4))

            def coefficient():
                g = rand_series(r, ch, xdeg=3, terms=4)
                u = r.random()
                if u < 0.2:
                    return g.truncate(r.randint(1, ch.trunc_order))
                return g if u < 0.8 else FiberSeries.zero(ch)
            conn = Connection(ch, [[coefficient() for _ in range(ch.fiber_dim)]
                                   for _ in range(ch.base_dim)])
            lo = ch.base_dim if case == "vertical" else 0
            V = Multivector(ch, 2, {ab: rand_series(r, ch, xdeg=3, terms=3)
                                    for ab in combinations(range(lo, ch.n_vars), 2)
                                    if r.random() < 0.7})
            got = list(lift_brackets(conn.lifts(), V,
                                     min(conn.valid_order(), V.valid_order) - 1))
            assert len(got) == ch.base_dim
            for i, bracket in enumerate(got):
                want = schouten(hor_lift(conn, i), V)
                assert bracket.valid_order == want.valid_order
                assert bracket.comps == want.comps
                nonzero += not want.is_zero()
        assert nonzero > 20
