"""
The deformation equation of a homotopy family, checked in sympy's sparse
polynomial ring over the rationals in (t, xi, x), sharing no code with the
series ring: it reads only the strings of a problem document.

From the data (Gamma, V, F) and the 1-form phi of the document, at fiber
order k, it builds the family

    Gamma_t = Gamma - t C,        C_iu = (V# dphi_i)^u = sum_s V^{su} d_(x s) phi_i,
    F_t     = F - t dGamma(phi) - (t^2/2) {phi ^ phi}_V,

with (dGamma phi)_ij = h_i(phi_j) - h_j(phi_i), h_i = d_i - sum_s Gamma_is d_(x s),
and {phi ^ phi}_V(u_i, u_j) = 2 sum_{s,u} V^{su} d_(x s) phi_i d_(x u) phi_j.  Then
H_t = -F_t^{-1} by the Neumann series from the inverse of F_t's fiber-constant
block (which must be a constant matrix), X_t = phi F_t^{-1}, the field
X_t^h = sum_i X^i hor_t(d_i) and Pi_t = L^T H_t L + V with L = [1 | -Gamma_t].
The residual is the Lie derivative L_{X_t^h} Pi_t plus the t-derivative of
Pi_t, whose terms of fiber degree below k are exact: every product is cut
above degree k, and each term of the residual differentiates once in a fiber
direction at most.  It is a polynomial in t, so a zero residual holds for
every t.
"""

import sympy
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations
from sympy.polys.domains import QQ
from sympy.polys.rings import ring


def deformation_residual(doc, order, moves=1, t_terms=1):
    """The nonzero components (a, c), a < c, of L_{X_t^h} Pi_t + d/dt Pi_t to
    fiber degree ``order`` - 1, as polynomials in (t, xi, x), for the family of
    the problem document ``doc`` at fiber order ``order``.  ``moves`` scales C
    in Gamma_t and ``t_terms`` the terms of F_t in t: a family broken so."""
    chart = doc["chart"]
    b, r, k = chart["base_dim"], chart["fiber_dim"], order
    n = b + r
    names = ["t"] + ["xi%d" % (i + 1) for i in range(b)] + ["x%d" % (s + 1) for s in range(r)]
    R, *gens = ring(names, QQ)
    t = gens[0]
    symbols = {name: sympy.Symbol(name) for name in names}

    def cut(p, top):
        """p without its terms of fiber degree above ``top``."""
        return R({m: c for m, c in p.items() if sum(m[1 + b:]) <= top})

    def read(text):
        expr = parse_expr(str(text), local_dict=symbols,
                          transformations=standard_transformations + (convert_xor,))
        return cut(R.from_expr(expr), k)

    def d(p, a):
        """The derivative in coordinate a: xi_(a+1) for a < b, else x_(a-b+1)."""
        return p.diff(gens[1 + a])

    def mul(*factors):
        out = R(1)
        for f in factors:
            out = cut(out * f, k)
        return out

    gamma = [[read(s) for s in row] for row in doc["connection"]]
    V = [[read(s) for s in row] for row in doc["vertical"]]
    F = [[read(s) for s in row] for row in doc["fform"]]
    phi = [read(s) for s in doc["phi"]]

    C = [[sum((mul(V[s][u], d(p, b + s)) for s in range(r)), R(0)) for u in range(r)]
         for p in phi]

    def hor(i, f):
        return d(f, i) - sum((mul(gamma[i][s], d(f, b + s)) for s in range(r)), R(0))

    dphi = [[hor(i, phi[j]) - hor(j, phi[i]) for j in range(b)] for i in range(b)]
    quad = [[2 * sum((mul(V[s][u], d(phi[i], b + s), d(phi[j], b + u))
                      for s in range(r) for u in range(r)), R(0))
             for j in range(b)] for i in range(b)]
    gamma_t = [[gamma[i][s] - moves * t * C[i][s] for s in range(r)] for i in range(b)]
    F_t = [[F[i][j] - t_terms * (t * dphi[i][j] + t ** 2 / 2 * quad[i][j]) for j in range(b)]
           for i in range(b)]

    # the Neumann series F_t^{-1} = sum_m (-F0^{-1} dF)^m F0^{-1}
    F0 = [[cut(f, 0) for f in row] for row in F_t]
    if any(m != (0,) * (n + 1) for row in F0 for f in row for m in f.keys()):
        raise ValueError("the fiber-constant block of F_t is not a constant matrix")
    inv = sympy.Matrix([[f.coeff(1) for f in row] for row in F0]).inv()
    F0_inv = [[R(QQ(inv[i, j].p, inv[i, j].q)) for j in range(b)] for i in range(b)]
    K = [[-sum((mul(F0_inv[i][m], F_t[m][j] - F0[m][j]) for m in range(b)), R(0))
          for j in range(b)] for i in range(b)]
    term, G = F0_inv, F0_inv
    while any(term[i][j] for i in range(b) for j in range(b)):
        term = [[sum((mul(K[i][m], term[m][j]) for m in range(b)), R(0)) for j in range(b)]
                for i in range(b)]
        G = [[G[i][j] + term[i][j] for j in range(b)] for i in range(b)]
    H = [[-g for g in row] for row in G]

    X = [sum((mul(phi[j], G[j][s]) for j in range(b)), R(0)) for s in range(b)]
    field = X + [-sum((mul(X[i], gamma_t[i][s]) for i in range(b)), R(0)) for s in range(r)]

    P = [[R(0)] * n for _ in range(n)]
    for i in range(b):
        for j in range(b):
            P[i][j] = H[i][j]
        for u in range(r):
            P[i][b + u] = -sum((mul(H[i][j], gamma_t[j][u]) for j in range(b)), R(0))
            P[b + u][i] = -P[i][b + u]
    for s in range(r):
        for u in range(r):
            P[b + s][b + u] = V[s][u] + sum((mul(gamma_t[i][s], H[i][j], gamma_t[j][u])
                                             for i in range(b) for j in range(b)), R(0))

    out = {}
    for a in range(n):
        for c in range(a + 1, n):
            res = P[a][c].diff(t) + sum((mul(field[e], d(P[a][c], e))
                                         - mul(P[e][c], d(field[a], e))
                                         - mul(P[a][e], d(field[c], e)) for e in range(n)), R(0))
            res = cut(res, k - 1)
            if res:
                out[a, c] = res
    return out


def at(doc, residual, t, top):
    """The components of a residual of ``deformation_residual`` on ``doc`` that
    are nonzero at the rational t once cut above fiber degree ``top``."""
    b = doc["chart"]["base_dim"]
    out = {}
    for key, p in residual.items():
        value = p.subs(p.ring.gens[0], QQ(t.numerator, t.denominator))
        value = p.ring({m: c for m, c in value.items() if sum(m[1 + b:]) <= top})
        if value:
            out[key] = value
    return out
