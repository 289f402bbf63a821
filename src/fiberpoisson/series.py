"""
Exact truncated series arithmetic on a fiber-bundle chart.

A chart carries base coordinates ``xi1 .. xi{2k}`` and fiber coordinates
``x1 .. x{r}``.  A :class:`FiberSeries` is a polynomial in the base
variables and a power series in the fiber variables, truncated at a
recorded total fiber degree.  Coefficients are exact rationals
(:class:`fractions.Fraction`); floats appear only in :class:`FloatEvaluator`
and its one-series call ``evaluate_float``.

The truncation bookkeeping follows one rule throughout: every object
knows up to which total fiber degree its stored terms are certified
(``valid_order``).  Base-variable degrees are never truncated.
Differentiating in a fiber variable lowers the certified order by one;
sums and products certify the minimum of their operands' orders.
"""

from fractions import Fraction
from operator import add, itemgetter

import numpy as np


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("expected an exact rational, got %r" % (c,))


class ChartSpec:
    """
    Dimensions and truncation order of a single trivializing chart.

    Parameters
    ----------
    base_dim : int
        Number of base coordinates ``xi``.  Must be even and >= 0;
        modules that declare a symplectic base additionally require
        ``base_dim >= 2``.
    fiber_dim : int
        Number of fiber coordinates ``x`` (>= 0).
    trunc_order : int
        Maximal retained total degree in the fiber variables (>= 0).
    """

    __slots__ = ("base_dim", "fiber_dim", "trunc_order")

    def __init__(self, base_dim, fiber_dim, trunc_order):
        if base_dim < 0 or base_dim % 2 != 0:
            raise ValueError("base_dim must be a nonnegative even integer")
        if fiber_dim < 0:
            raise ValueError("fiber_dim must be nonnegative")
        if trunc_order < 0:
            raise ValueError("trunc_order must be nonnegative")
        self.base_dim = base_dim
        self.fiber_dim = fiber_dim
        self.trunc_order = trunc_order

    @property
    def n_vars(self):
        return self.base_dim + self.fiber_dim

    def var_name(self, idx):
        if idx < 0 or idx >= self.n_vars:
            raise IndexError("variable index out of range")
        if idx < self.base_dim:
            return "xi%d" % (idx + 1)
        return "x%d" % (idx - self.base_dim + 1)

    def fiber_degree(self, exps):
        return sum(exps[self.base_dim:])

    def __eq__(self, other):
        return (isinstance(other, ChartSpec)
                and self.base_dim == other.base_dim
                and self.fiber_dim == other.fiber_dim
                and self.trunc_order == other.trunc_order)

    def __hash__(self):
        return hash((self.base_dim, self.fiber_dim, self.trunc_order))

    def __repr__(self):
        return "ChartSpec(base_dim=%d, fiber_dim=%d, trunc_order=%d)" % (
            self.base_dim, self.fiber_dim, self.trunc_order)


def _check_same_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatchError("series live on different charts: %r vs %r"
                                 % (a.chart, b.chart))


class FiberSeries:
    """
    Exact-rational coefficient function on a chart.

    Terms are stored as a map from exponent tuples (base exponents
    first, then fiber exponents) to nonzero rationals.  Monomials whose
    total fiber degree exceeds ``valid_order`` are never stored.

    ``truncated`` records that certified content was discarded while
    building this object (a literal term beyond the chart order, or a
    fiber derivative that exhausted the certified order).  The flag is
    carried through arithmetic as metadata.
    """

    __slots__ = ("chart", "valid_order", "terms", "truncated")

    def __init__(self, chart, terms=None, valid_order=None, truncated=False):
        # valid_order may be negative: "no certified content"
        vo = chart.trunc_order if valid_order is None else min(valid_order, chart.trunc_order)
        clean = {}
        dropped = False
        if terms:
            n = chart.n_vars
            for exps, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                if len(exps) != n:
                    raise ValueError("exponent tuple of wrong length: %r" % (exps,))
                if chart.fiber_degree(exps) > vo:
                    dropped = True
                    continue
                exps = tuple(exps)
                prev = clean.get(exps)
                if prev is None:
                    clean[exps] = coeff
                else:
                    s = prev + coeff
                    if s == 0:
                        del clean[exps]
                    else:
                        clean[exps] = s
        self.chart = chart
        self.valid_order = vo
        self.terms = clean
        self.truncated = bool(truncated or dropped)

    @classmethod
    def _trusted(cls, chart, terms, valid_order, truncated):
        """Wrap an internal result without re-validation: ``terms`` must
        already map tuples to nonzero Fractions of fiber degree at most
        ``valid_order <= chart.trunc_order``."""
        out = cls.__new__(cls)
        out.chart = chart
        out.valid_order = valid_order
        out.terms = terms
        out.truncated = truncated
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, chart, valid_order=None):
        return cls(chart, {}, valid_order)

    @classmethod
    def constant(cls, chart, value, valid_order=None):
        exps = (0,) * chart.n_vars
        return cls(chart, {exps: _as_fraction(value)}, valid_order)

    @classmethod
    def variable(cls, chart, idx, valid_order=None):
        exps = [0] * chart.n_vars
        exps[idx] = 1
        return cls(chart, {tuple(exps): Fraction(1)}, valid_order)

    @classmethod
    def monomial(cls, chart, exps, coeff, valid_order=None):
        return cls(chart, {tuple(exps): _as_fraction(coeff)}, valid_order)

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_fiber_independent(self):
        b = self.chart.base_dim
        return all(sum(e[b:]) == 0 for e in self.terms)

    def fiber_degrees(self):
        b = self.chart.base_dim
        return {sum(e[b:]) for e in self.terms}

    def constant_term(self):
        return self.terms.get((0,) * self.chart.n_vars, Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FiberSeries):
            return NotImplemented
        return (self.chart == other.chart and self.terms == other.terms
                and self.valid_order == other.valid_order)

    def __hash__(self):
        return hash((self.chart, self.valid_order, frozenset(self.terms.items())))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FiberSeries.constant(self.chart, other, self.valid_order)
        _check_same_chart(self, other)
        vo = min(self.valid_order, other.valid_order)
        out = self.truncate(vo).terms.copy()
        for exps, c in other.truncate(vo).terms.items():
            s = out.get(exps)
            if s is None:
                out[exps] = c
            else:
                s += c
                if s:
                    out[exps] = s
                else:
                    del out[exps]
        return FiberSeries._trusted(self.chart, out, vo, self.truncated or other.truncated)

    __radd__ = __add__

    def __neg__(self):
        out = {e: -c for e, c in self.terms.items()}
        return FiberSeries._trusted(self.chart, out, self.valid_order, self.truncated)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FiberSeries.constant(self.chart, other, self.valid_order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _check_same_chart(self, other)
        vo = min(self.valid_order, other.valid_order)
        b = self.chart.base_dim
        # other's terms in ascending fiber degree: the inner loop stops at
        # the first term that would overshoot the certified order
        rhs = sorted(((sum(e[b:]), e, c) for e, c in other.terms.items()),
                     key=itemgetter(0))
        out = {}
        for e1, c1 in self.terms.items():
            budget = vo - sum(e1[b:])
            for d2, e2, c2 in rhs:
                if d2 > budget:
                    break
                exps = tuple(map(add, e1, e2))
                s = out.get(exps)
                if s is None:
                    out[exps] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[exps] = s
                    else:
                        del out[exps]
        return FiberSeries._trusted(self.chart, out, vo, self.truncated or other.truncated)

    __rmul__ = __mul__

    def scale(self, c):
        c = _as_fraction(c)
        if c == 0:
            return FiberSeries.zero(self.chart, self.valid_order)
        out = {e: c * v for e, v in self.terms.items()}
        return FiberSeries._trusted(self.chart, out, self.valid_order, self.truncated)

    def diff(self, idx):
        """Exact partial derivative in direction ``idx`` (0-based, base then fiber)."""
        chart = self.chart
        if idx < 0 or idx >= chart.n_vars:
            raise IndexError("variable index out of range")
        out = {}
        for exps, c in self.terms.items():
            k = exps[idx]
            if k:
                out[exps[:idx] + (k - 1,) + exps[idx + 1:]] = c if k == 1 else c * k
        if idx < chart.base_dim:
            return FiberSeries._trusted(chart, out, self.valid_order, self.truncated)
        vo = self.valid_order - 1
        return FiberSeries._trusted(chart, out, vo, self.truncated or vo < 0)

    def truncate(self, order):
        """Drop fiber degrees above ``order`` and lower the certified order (no flag)."""
        vo = min(self.valid_order, order)
        if vo == self.valid_order:
            return self
        fd = self.chart.fiber_degree
        out = {e: c for e, c in self.terms.items() if fd(e) <= vo}
        return FiberSeries._trusted(self.chart, out, vo, self.truncated)

    # -- structural helpers -------------------------------------------

    def fiber_part(self, lo, hi):
        """Terms whose total fiber degree lies in [lo, hi]; certified order kept."""
        fd = self.chart.fiber_degree
        out = {e: c for e, c in self.terms.items() if lo <= fd(e) <= hi}
        return FiberSeries(self.chart, out, self.valid_order, self.truncated)

    def xi_coefficient(self, fiber_exps):
        """Coefficient of the fiber monomial ``x^fiber_exps`` as a base polynomial."""
        b = self.chart.base_dim
        fiber_exps = tuple(fiber_exps)
        zeros = (0,) * self.chart.fiber_dim
        out = {}
        for exps, c in self.terms.items():
            if exps[b:] == fiber_exps:
                out[exps[:b] + zeros] = c
        return FiberSeries(self.chart, out, self.valid_order, self.truncated)

    def substitute_fiber(self, gmat):
        """
        Substitute ``x_s -> sum_t gmat[s][t] * x_t`` (entries base polynomials).

        The map is fiber-linear, so total fiber degree is preserved and the
        certified order is unchanged.
        """
        chart = self.chart
        r = chart.fiber_dim
        b = chart.base_dim
        for row in gmat:
            for g in row:
                if not g.is_fiber_independent():
                    raise ValueError("fiber substitution matrix must be fiber independent")
        images = [FiberSeries.zero(chart, self.valid_order) for _ in range(r)]
        for s in range(r):
            for t in range(r):
                g = gmat[s][t]
                if g:
                    images[s] = images[s] + g.truncate(self.valid_order) * FiberSeries.variable(chart, b + t, self.valid_order)
        result = FiberSeries.zero(chart, self.valid_order)
        for exps, c in self.terms.items():
            term = FiberSeries.monomial(chart, exps[:b] + (0,) * r, c, self.valid_order)
            for s in range(r):
                for _ in range(exps[b + s]):
                    term = term * images[s]
            result = result + term
        return result

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point):
        """Exact evaluation at a point given as a sequence of n_vars rationals."""
        point = [_as_fraction(v) for v in point]
        if len(point) != self.chart.n_vars:
            raise ValueError("point has wrong dimension")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    def evaluate_float(self, point):
        return float(FloatEvaluator([self])([point])[0, 0])

    # -- rendering ------------------------------------------------------

    def _sort_key(self, exps):
        return (sum(exps), exps)

    def render(self):
        """Canonical text form: graded-lex term order, xi variables before x."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=self._sort_key):
            coeff = self.terms[exps]
            factors = []
            for idx, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.chart.var_name(idx)
                factors.append(name if e == 1 else "%s^%d" % (name, e))
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "<FiberSeries %s (order %d)>" % (self.render(), self.valid_order)


class FloatEvaluator:
    """
    A list of series on one chart compiled for float evaluation: an
    exponent matrix over the distinct monomials of all the series and a
    coefficient matrix with one column per series.  Called on an
    ``(m, n_vars)`` array of points it gives the ``(m, len(series))``
    values.  Monomials are products of per-variable power tables, so no
    points x monomials x variables array is formed.
    """

    def __init__(self, series):
        charts = {s.chart for s in series}
        if len(charts) > 1:
            raise ChartMismatchError("series live on different charts")
        self.n_vars = charts.pop().n_vars if charts else None
        index = {}
        try:
            terms = [(index.setdefault(e, len(index)), j, float(c))
                     for j, s in enumerate(series) for e, c in s.terms.items()]
        except OverflowError:
            raise ValueError("a series coefficient lies outside the float range")
        self.exponents = np.array(list(index), dtype=int).reshape(len(index), self.n_vars or 0)
        self.tops = [max(col, default=0) for col in self.exponents.T.tolist()]
        self.coefficients = np.zeros((len(index), len(series)))
        for k, j, c in terms:
            self.coefficients[k, j] = c

    def __call__(self, points):
        z = np.asarray(points, dtype=float)
        if z.ndim != 2 or self.n_vars not in (None, z.shape[1]):
            raise ValueError("points must be an array of shape (m, %s)" % self.n_vars)
        mono = np.ones((len(z), len(self.exponents)))
        for v, (e, top) in enumerate(zip(self.exponents.T, self.tops)):
            powers = np.ones((len(z), top + 1))
            for k in range(1, top + 1):
                powers[:, k] = powers[:, k - 1] * z[:, v]
            mono *= powers[:, e]
        return mono @ self.coefficients


# -- matrices of series ------------------------------------------------

def mat_identity(chart, n, valid_order=None):
    return [[FiberSeries.constant(chart, 1, valid_order) if i == j
             else FiberSeries.zero(chart, valid_order) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for s in range(1, k):
                acc = acc + A[i][s] * B[s][j]
            row.append(acc)
        out.append(row)
    return out


def mat_neg(A):
    return [[-a for a in row] for row in A]


def mat_fiber_zero_part(A):
    return [[a.fiber_part(0, 0) for a in row] for row in A]


def mat_is_identity(A):
    n = len(A)
    for i in range(n):
        for j in range(n):
            d = A[i][j] - (1 if i == j else 0)
            if not d.is_zero():
                return False
    return True


def mat_is_inverse(A, B):
    """True iff B is an exact two-sided inverse of the square matrix A."""
    return mat_is_identity(mat_mul(A, B)) and mat_is_identity(mat_mul(B, A))


def mat_valid_order(A):
    return min(a.valid_order for row in A for a in row)


def matrix_invert(M, M0_inv):
    """
    Invert a square series matrix by Neumann expansion.

    ``M0_inv`` must be an exact two-sided inverse of the fiber-degree-0
    part of ``M`` (verified by multiplication).  Writing
    ``M = M0 + dM`` with ``dM`` of fiber degree >= 1, the inverse is
    ``G = sum_m (-M0_inv dM)^m M0_inv``, which terminates at the
    truncation order.  The result satisfies ``M G = G M = identity``
    exactly up to the common certified order.
    """
    n = len(M)
    if any(len(row) != n for row in M) or len(M0_inv) != n:
        raise ValueError("matrix_invert expects square matrices of matching size")
    chart = M[0][0].chart
    for row in M:
        for a in row:
            if a.chart != chart:
                raise ChartMismatchError("matrix entries live on different charts")
    M0 = mat_fiber_zero_part(M)
    if not mat_is_inverse(M0_inv, M0):
        raise ValueError("M0_inv is not an exact inverse of the fiber-degree-0 part")
    vo = min(mat_valid_order(M), mat_valid_order(M0_inv))
    dM = [[a - a0 for a, a0 in zip(ra, r0)] for ra, r0 in zip(M, M0)]
    K = mat_neg(mat_mul(M0_inv, dM))
    G = [[a.truncate(vo) for a in row] for row in M0_inv]
    P = G
    for _ in range(vo):
        P = mat_mul(K, P)
        if all(a.is_zero() for row in P for a in row):
            break
        G = [[g + p for g, p in zip(rg, rp)] for rg, rp in zip(G, P)]
    return G
