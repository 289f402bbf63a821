"""
Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time
from fractions import Fraction

from fiberpoisson import (ChartSpec, FiberSeries, PhiForm, BasePath,
                          ConnectionChange, assemble, decompose, jacobiator,
                          schouten, verify_coupling_conditions,
                          build_geometric_data, build_coupling,
                          change_connection, verify_connection_equivalence,
                          relative_cocycle, build_family, verify_deformation_equation,
                          numeric_pullback_check, extract_algebroid,
                          parallel_transport, holonomy_compare, HForm)

from fixtures import (S, rng, e1_algebroid, e1_data,
                      so3_flat_algebroid, wong_algebroid, rand_multivector,
                      rand_admissible, rand_geometric_data, rand_valid_data,
                      mutate_data, rand_mu, rand_phi)
from oracle import oracle_schouten, coupling_criterion_test, certified_order

import numpy as np


def report(n, ok, text):
    print("\nACCEPTANCE %2d: %s  %s" % (n, "PASS" if ok else "FAIL", text))
    assert ok, text


def lsq_slope(steps, devs):
    xs = [math.log(1.0 / s) for s in steps]
    ys = [math.log(d) for d in devs]
    k = len(xs)
    xbar, ybar = sum(xs) / k, sum(ys) / k
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) \
        / sum((x - xbar) ** 2 for x in xs)


def test_01_schouten_oracle_equivalence():
    t0 = time.time()
    r = rng(101)
    charts = [ChartSpec(0, 2, 3), ChartSpec(0, 3, 3), ChartSpec(0, 4, 3),
              ChartSpec(2, 1, 3), ChartSpec(2, 2, 3), ChartSpec(4, 0, 3)]
    count = 0
    while count < 200:
        ch = r.choice(charts)
        p = r.randint(0, min(3, ch.n_vars))
        q = r.randint(0, min(3, ch.n_vars))
        A = rand_multivector(r, ch, p, xdeg=3, terms=2)
        B = rand_multivector(r, ch, q, xdeg=3, terms=2)
        got = schouten(A, B)
        want = oracle_schouten(A, B)
        assert (got - want).is_zero(), (p, q, A.comps, B.comps)
        count += 2
    elapsed = time.time() - t0
    report(1, elapsed < 60.0,
           "optimized bracket == permutation-expansion oracle on %d "
           "multivectors (%.1f s)" % (count, elapsed))


def test_02_coupling_criterion_biconditional():
    r = rng(102)
    valid = 0
    while valid < 50:
        data = rand_valid_data(r)
        rep = coupling_criterion_test(data)
        assert certified_order(rep) >= 1
        assert rep.passed
        by = {e.name: e for e in rep.entries}
        assert by["conditions"].passed and by["jacobiator"].passed
        valid += 1
    mutated = 0
    attempts = 0
    while mutated < 50:
        attempts += 1
        assert attempts < 500, "mutation generator stalled"
        data = rand_valid_data(r)
        bad = mutate_data(r, data)
        conds = verify_coupling_conditions(bad)
        if conds.passed:
            continue  # this perturbation landed in the valid set; retry
        rep = coupling_criterion_test(bad)
        by = {e.name: e for e in rep.entries}
        assert not by["jacobiator"].passed, "conditions failed but tensor Poisson"
        assert by["biconditional"].passed
        assert certified_order(rep) >= 1
        mutated += 1
    report(2, True, "conditions <=> vanishing Jacobiator on %d valid and %d "
                    "mutated data sets" % (valid, mutated))


def test_03_wong_golden_table():
    a = wong_algebroid(4)
    ch = a.chart
    b, r = 4, 3
    x = [FiberSeries.variable(ch, b + s) for s in range(r)]
    t = build_coupling(a)
    q = [0, 1]
    p = [2, 3]
    ok = True
    ok &= t.pi.component((q[0], q[1])).is_zero()
    for i in range(2):
        for j in range(2):
            expect = FiberSeries.constant(ch, 1 if i == j else 0)
            ok &= (t.pi.component((p[i], q[j])) - expect).is_zero()
    expect = FiberSeries.zero(ch)
    for s in range(r):
        expect = expect + a.R[0][1][s] * x[s]
    ok &= (t.pi.component((p[0], p[1])) - expect).is_zero()
    for i in range(2):
        for s in range(r):
            expect = FiberSeries.zero(ch)
            for tt in range(r):
                expect = expect - a.theta[i][s][tt] * x[tt]
            ok &= (t.pi.component((p[i], b + s)) - expect).is_zero()
            ok &= t.pi.component((q[i], b + s)).is_zero()
    for s in range(r):
        for s2 in range(s + 1, r):
            expect = FiberSeries.zero(ch)
            for n in range(r):
                expect = expect + a.lam[s][s2][n] * x[n]
            ok &= (t.pi.component((b + s, b + s2)) - expect).is_zero()
    report(3, ok, "cotangent-lift fixture reproduces the bracket table exactly")


def test_04_low_order_bracket_expansions():
    r = rng(104)
    checked = 0
    while checked < 20:
        a = rand_admissible(r)
        ch = a.chart
        b, rr = ch.base_dim, ch.fiber_dim
        x = [FiberSeries.variable(ch, b + s) for s in range(rr)]
        t = build_coupling(a)
        S_lin = [[FiberSeries.zero(ch) for _ in range(b)] for _ in range(b)]
        for i in range(b):
            for j in range(b):
                for s in range(rr):
                    S_lin[i][j] = S_lin[i][j] + a.R[i][j][s] * x[s]
        gam = [[FiberSeries.zero(ch) for _ in range(rr)] for _ in range(b)]
        for i in range(b):
            for s in range(rr):
                for tt in range(rr):
                    gam[i][s] = gam[i][s] + a.theta[i][s][tt] * x[tt]
        for i in range(b):
            for j in range(b):
                if i == j:
                    continue
                expect = -a.omega_inv[i][j]
                for u in range(b):
                    for v in range(b):
                        expect = expect - a.omega_inv[i][u] * S_lin[u][v] * a.omega_inv[v][j]
                got = t.pi.component((i, j)).fiber_part(0, 1)
                assert (got - expect.truncate(got.valid_order)).is_zero()
            for s in range(rr):
                expect = FiberSeries.zero(ch)
                for u in range(b):
                    expect = expect + a.omega_inv[i][u] * gam[u][s]
                got = t.pi.component((i, b + s)).fiber_part(0, 1)
                assert (got - expect.truncate(got.valid_order)).is_zero()
        for s in range(rr):
            for s2 in range(rr):
                if s == s2:
                    continue
                expect = FiberSeries.zero(ch)
                for n in range(rr):
                    expect = expect + a.lam[s][s2][n] * x[n]
                for u in range(b):
                    for v in range(b):
                        expect = expect - a.omega_inv[u][v] * gam[u][s] * gam[v][s2]
                got = t.pi.component((b + s, b + s2)).fiber_part(0, 2)
                assert (got - expect.truncate(got.valid_order)).is_zero()
        checked += 1
    report(4, True, "assembled brackets match the low-order expansions on "
                    "%d randomized admissible data sets" % checked)


def test_05_closed_form_geometric_series():
    t0 = time.time()
    for n in range(1, 9):
        a = e1_algebroid(n)
        t = build_coupling(a)
        ch = a.chart
        expect = FiberSeries(ch, {(0, 0, k): Fraction(1) for k in range(n + 1)})
        assert (t.pi.component((0, 1)) - expect).is_zero()
        assert jacobiator(t.pi).is_zero()
    elapsed = time.time() - t0
    report(5, elapsed < 5.0,
           "rank-one fixture gives 1 + x + ... + x^N with zero Jacobiator "
           "for N <= 8 (%.2f s)" % elapsed)


def test_06_round_trips():
    r = rng(106)
    for _ in range(50):
        data = rand_geometric_data(r)
        t = assemble(data)
        back = decompose(t.pi)
        assert all((x - y).is_zero() for rx, ry in
                   zip(back.connection.gamma, data.connection.gamma)
                   for x, y in zip(rx, ry))
        assert (back.vertical
                - data.vertical.truncate(back.vertical.valid_order)).is_zero()
        assert (back.fform - HForm(data.chart, 2, data.fform.comps,
                                   back.fform.valid_order)).is_zero()
    for _ in range(50):
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
    report(6, True, "decompose(assemble) and extract(build) are exact "
                    "identities on 50 + 50 randomized data sets")


def test_07_deformation_equation():
    r = rng(107)
    done = 0
    while done < 20:
        data = rand_valid_data(r)
        phi = rand_phi(r, data)
        fam = build_family(data, phi)
        if fam.degenerate_samples:
            continue
        rep = verify_deformation_equation(fam)
        by = {e.name: e for e in rep.entries}
        assert by["reduced-identity-in-t"].passed
        sample_entries = [e for e in rep.entries if e.name.startswith("deformation-at")]
        assert len(sample_entries) == 5
        assert all(e.passed for e in sample_entries)
        done += 1
    report(7, True, "reduced identity holds in t and the deformation "
                    "equation vanishes at 5 samples on %d families" % done)


def test_08_connection_change_equivalence():
    r = rng(108)
    for _ in range(20):
        a = rand_admissible(r)
        m = rand_mu(r, a.chart)
        assert verify_connection_equivalence(a, change_connection(a, m), m).passed
        a2 = change_connection(a, m)
        C, rep = relative_cocycle(a, a2, m)
        assert rep.passed
        assert all(c.is_zero() for plane in C for row in plane for c in row)
    report(8, True, "changed-splitting data satisfies both equivalence "
                    "relations exactly and yields a vanishing cocycle "
                    "on 20 randomized pairs")


def _e1_family(n, phi1):
    data = e1_data(n)
    ch = data.chart
    phi = PhiForm(ch, [S(phi1, ch), S("0", ch)])
    return build_family(data, phi, (Fraction(0), Fraction(1)))


def _wong_family(n=4):
    data = build_geometric_data(wong_algebroid(n))
    ch = data.chart
    phi = PhiForm(ch, [S("3*x1*xi4", ch), S("-3*x1*xi3", ch),
                       S("2*x2*xi2", ch), S("-2*x2*xi1", ch)])
    return build_family(data, phi, (Fraction(0), Fraction(1)))


def test_09_numeric_pullback():
    fam = _e1_family(6, "x1*xi2")
    pts = [[0.3, -0.2, 0.08], [0.1, 0.5, -0.05], [1.0, 2.0, 0.1]]
    rep = numeric_pullback_check(fam, pts, steps=100)
    worst = max(e.detail for e in rep.entries)
    ok = worst < 1e-6
    # convergence order measured on a polynomial-exact family whose
    # deformation flow is genuinely nonlinear
    fam2 = _wong_family(4)
    steps = [8, 16, 32, 64]
    devs = [numeric_pullback_check(fam2, [[0.3, -0.4, 0.9, 0.7, 0.5, -0.6, 0.4]],
                                   steps=s).entries[0].detail for s in steps]
    slope = lsq_slope(steps, devs)
    ok = ok and 3.6 <= slope <= 4.4
    report(9, ok, "pullback deviation %.2e < 1e-6 at 100 steps; "
                  "convergence order %.2f" % (worst, slope))


def test_10_holonomy():
    # constant-generator fixture against the exponential comparison
    a0 = so3_flat_algebroid(3)
    ch = a0.chart
    mu = ConnectionChange(ch, [[S("2", ch), S("-1", ch), S("1/2", ch)],
                               [S("0", ch)] * 3])
    path = BasePath([(0, 0), (1, 0)])
    rep = holonomy_compare(a0, mu, path, 1000)
    dev_const = rep.entries[0].detail
    ok = dev_const < 1e-8

    # abelian: the comparison operator stays the identity to roundoff
    ab = e1_algebroid(3)
    mu_ab = ConnectionChange(ab.chart, [[S("xi1", ab.chart)], [S("2", ab.chart)]])
    rep_ab = holonomy_compare(ab, mu_ab, path, 200)
    ok = ok and rep_ab.entries[0].detail < 1e-14

    # convergence order on a fixture with a nonflat base connection
    mu0 = ConnectionChange(ch, [[S("2*xi1", ch), S("-xi2", ch), S("1", ch)],
                                [S("1", ch), S("xi1", ch), S("0", ch)]])
    base = change_connection(a0, mu0)
    mu1 = ConnectionChange(ch, [[S("1", ch), S("xi2", ch), S("-1/2", ch)],
                                [S("xi1^2", ch), S("0", ch), S("2", ch)]])
    path2 = BasePath([(0, 0), (1, Fraction(1, 2)), (Fraction(1, 2), 1)])
    dev_nonflat = holonomy_compare(base, mu1, path2, 1000).entries[0].detail
    ok = ok and dev_nonflat < 1e-8
    steps = [8, 16, 32, 64]
    devs = [holonomy_compare(base, mu1, path2, s).entries[0].detail
            for s in steps]
    slope = lsq_slope(steps, devs)
    ok = ok and 3.6 <= slope <= 4.4
    report(10, ok, "transport comparison %.2e / %.2e < 1e-8 at 1000 steps; "
                   "abelian exact; convergence order %.2f"
           % (dev_const, dev_nonflat, slope))
