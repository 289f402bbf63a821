"""
Exact truncated series arithmetic on a fiber-bundle chart.

A chart carries base coordinates ``xi1 .. xi{2k}`` and fiber coordinates
``x1 .. x{r}``.  A :class:`FiberSeries` is a polynomial in the base
variables and a power series in the fiber variables, truncated at a
recorded total fiber degree.  Coefficients are exact rationals; floats
appear only in :class:`FloatEvaluator` and its one-series call
``evaluate_float``.

The truncation bookkeeping follows one rule throughout: every object
knows up to which total fiber degree its stored terms are certified
(``valid_order``), the only record of truncation: a term above it is
dropped where it arises.  Base-variable degrees are never truncated.
Differentiating in a fiber variable lowers the certified order by one;
sums and products certify the minimum of their operands' orders.

A series stores packed monomials (Monagan and Pearce, *Sparse polynomial
arithmetic*, 2007) mapped to nonzero integer numerators over one positive
denominator, no factor common to all of them, so equal series are stored
alike.  The exponents e_0 .. e_{n-1} (base first) pack into the integer
sum_v e_v << 16 v + (fiber degree) << 16 n: one 16-bit field per variable
and the fiber degree in the unbounded top field.  A product's key is the
sum of its factors' keys, and keys ordered as integers are ordered by
fiber degree first.  Every exact product is :func:`dot`, one dict over one
denominator per sum of products; ``a * b`` is its one-pair case.  No
exponent may exceed MAX_FIELD = 2^16 - 1: such a monomial is refused, and a
product whose operands could carry one field into the next raises
ValueError (checked once per pair against a per-series exponent bound); a
field never wraps.  Only this module reads packed keys: ``FiberSeries.terms``
views them as exponent tuples with :class:`fractions.Fraction` values.
"""

import dataclasses
import functools
import operator
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from . import linalg

FIELD_BITS = 16
MAX_FIELD = (1 << FIELD_BITS) - 1


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


def _rational(c):
    """c itself if it is an exact rational (an int or a Fraction)."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError("expected an exact rational, got %r" % (c,))


@dataclasses.dataclass(frozen=True, slots=True)
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

    base_dim: int
    fiber_dim: int
    trunc_order: int

    def __post_init__(self):
        if self.base_dim < 0 or self.base_dim % 2 != 0:
            raise ValueError("base_dim must be a nonnegative even integer")
        if self.fiber_dim < 0:
            raise ValueError("fiber_dim must be nonnegative")
        if self.trunc_order < 0:
            raise ValueError("trunc_order must be nonnegative")

    @property
    def n_vars(self):
        return self.base_dim + self.fiber_dim

    def var_name(self, idx):
        if idx < 0 or idx >= self.n_vars:
            raise IndexError("variable index out of range")
        if idx < self.base_dim:
            return "xi%d" % (idx + 1)
        return "x%d" % (idx - self.base_dim + 1)


def _check_same_chart(a, b):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatchError("series live on different charts: %r vs %r"
                                 % (a.chart, b.chart))


def _certified(chart, valid_order):
    """The certified order given as ``valid_order`` (default and cap the chart's);
    it may be negative: "no certified content"."""
    return chart.trunc_order if valid_order is None else min(valid_order, chart.trunc_order)


# -- packed monomials ----------------------------------------------------

def _top(chart, order):
    """The least key of fiber degree above ``order``."""
    return (order + 1) << (FIELD_BITS * chart.n_vars)


def _pack(chart, exps):
    if len(exps) != chart.n_vars:
        raise ValueError("exponent tuple of wrong length: %r" % (exps,))
    key = 0
    for v, e in enumerate(exps):
        e = operator.index(e)
        if not 0 <= e <= MAX_FIELD:
            raise ValueError("exponent %d outside 0..%d" % (e, MAX_FIELD))
        key |= e << (FIELD_BITS * v)
    return key | (sum(exps[chart.base_dim:]) << (FIELD_BITS * chart.n_vars))


@functools.lru_cache(maxsize=64)
def key_units(chart):
    """The keys of the chart's variables: a monomial's key is the sum of its variables' units."""
    return tuple((1 << (FIELD_BITS * v)) + ((v >= chart.base_dim) << (FIELD_BITS * chart.n_vars))
                 for v in range(chart.n_vars))


def _unpack(chart, key):
    return tuple((key >> (FIELD_BITS * v)) & MAX_FIELD for v in range(chart.n_vars))


def _product_bound(a, b):
    """An exponent bound for a * b; ValueError when a field could overflow.
    The stored bounds may be loose, so past MAX_FIELD compare the exact
    maxima per field."""
    bound = a._bound + b._bound
    if bound > MAX_FIELD:
        bound = max(max(((k >> (FIELD_BITS * v)) & MAX_FIELD for k in a._num), default=0)
                    + max(((k >> (FIELD_BITS * v)) & MAX_FIELD for k in b._num), default=0)
                    for v in range(a.chart.n_vars))
        if bound > MAX_FIELD:
            raise ValueError("a product's exponent would exceed %d" % MAX_FIELD)
    return bound


def _mul_into(out, lhs, rhs, top):
    """Add the products of the (key, numerator) pairs of ``lhs`` with the
    sorted pairs ``rhs`` into ``out``, keeping keys below ``top``; zero
    sums stay in ``out``."""
    get = out.get
    for k1, c1 in lhs:
        lim = top - k1
        for k2, c2 in rhs:
            if k2 >= lim:
                break
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2


def _nonzero(out):
    return {k: c for k, c in out.items() if c} if 0 in out.values() else out


class _Terms(Mapping):
    """Read-only view of a series' terms: exponent tuples (base exponents
    first) to nonzero Fractions."""

    __slots__ = ("_series",)

    def __init__(self, series):
        self._series = series

    def __len__(self):
        return len(self._series._num)

    def __iter__(self):
        return (_unpack(self._series.chart, k) for k in self._series._num)

    def __getitem__(self, exps):
        s = self._series
        try:
            key = _pack(s.chart, exps)
        except (TypeError, ValueError):
            raise KeyError(exps)
        return Fraction(s._num[key], s._den)

    def __repr__(self):
        return repr(dict(self.items()))


class FiberSeries:
    """
    Exact-rational coefficient function on a chart.  ``terms`` views its
    terms as exponent tuples (base exponents first) mapped to nonzero
    rationals; no term of fiber degree above ``valid_order`` is stored,
    and a given term above it is dropped.
    """

    __slots__ = ("chart", "valid_order", "_num", "_den", "_bound")

    def __init__(self, chart, terms=None, valid_order=None):
        vo = _certified(chart, valid_order)
        top = _top(chart, vo)
        clean = {}
        bound = 0
        if terms:
            for exps, coeff in terms.items():
                coeff = _rational(coeff)
                if coeff == 0:
                    continue
                key = _pack(chart, exps)
                if key < top:
                    clean[key] = clean.get(key, 0) + coeff
                    bound = max(bound, max(exps, default=0))
        clean = _nonzero(clean)
        # reduced fractions over their least common denominator share no factor
        den = lcm(*(c.denominator for c in clean.values()))
        self.chart, self.valid_order = chart, vo
        self._num = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._den, self._bound = den, bound

    @classmethod
    def _reduced(cls, chart, num, den, valid_order, bound):
        """Wrap an internal result without re-validation, cancelling the
        common factor of ``den`` and the numerators: ``num`` must map keys
        of fiber degree at most ``valid_order <= chart.trunc_order`` to
        nonzero integers."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: c // g for k, c in num.items()}
        out = cls.__new__(cls)
        out.chart, out.valid_order = chart, valid_order
        out._num, out._den, out._bound = num, den, bound
        return out

    @property
    def terms(self):
        return _Terms(self)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, chart, valid_order=None):
        return cls._reduced(chart, {}, 1, _certified(chart, valid_order), 0)

    @classmethod
    def constant(cls, chart, value, valid_order=None):
        value = _rational(value)
        vo = _certified(chart, valid_order)
        num = {0: value.numerator} if value and vo >= 0 else {}
        return cls._reduced(chart, num, value.denominator, vo, 0)

    @classmethod
    def variable(cls, chart, idx, valid_order=None):
        exps = [0] * chart.n_vars
        exps[idx] = 1
        return cls(chart, {tuple(exps): Fraction(1)}, valid_order)

    @classmethod
    def monomial(cls, chart, exps, coeff, valid_order=None):
        return cls(chart, {tuple(exps): _rational(coeff)}, valid_order)

    @classmethod
    def from_keys(cls, chart, pairs, den, bound):
        """The sum of num/den * x^key over (key, num) pairs with exponents at
        most ``bound``; keys above the chart order are dropped."""
        top = _top(chart, chart.trunc_order)
        out = {}
        get = out.get
        for k, c in pairs:
            if k < top:
                out[k] = get(k, 0) + c
        return cls._reduced(chart, _nonzero(out), den, chart.trunc_order, bound)

    @classmethod
    def sum(cls, parts):
        """The sum of a nonempty sequence of series on one chart, added
        into one dict over the least common denominator of the parts."""
        first = parts[0]
        vo, bound = first.valid_order, 0
        for s in parts:
            _check_same_chart(first, s)
            if s.valid_order < vo:
                vo = s.valid_order
            if s._bound > bound:
                bound = s._bound
        parts = [s if s.valid_order == vo else s.truncate(vo) for s in parts]
        den = lcm(*[s._den for s in parts])
        # the longest part seeds the dict, the others are added into it
        sizes = [len(s._num) for s in parts]
        h = sizes.index(max(sizes))
        head = parts[h]
        f = den // head._den
        out = head._num.copy() if f == 1 else {k: c * f for k, c in head._num.items()}
        get = out.get
        for i, s in enumerate(parts):
            if i != h:
                f = den // s._den
                for k, c in s._num.items():
                    out[k] = get(k, 0) + c * f
        return cls._reduced(first.chart, _nonzero(out), den, vo, bound)

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self._num

    def is_fiber_independent(self):
        top = _top(self.chart, 0)
        return all(k < top for k in self._num)

    def constant_term(self):
        return Fraction(self._num.get(0, 0), self._den)

    def __bool__(self):
        return bool(self._num)

    def __len__(self):
        """The number of stored terms."""
        return len(self._num)

    def __eq__(self, other):
        if not isinstance(other, FiberSeries):
            return NotImplemented
        return (self.chart == other.chart and self._den == other._den
                and self._num == other._num and self.valid_order == other.valid_order)

    def __hash__(self):
        return hash((self.chart, self.valid_order, self._den, frozenset(self._num.items())))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FiberSeries.constant(self.chart, other, self.valid_order)
        return FiberSeries.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        out = {k: -c for k, c in self._num.items()}
        return FiberSeries._reduced(self.chart, out, self._den, self.valid_order, self._bound)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return dot((self,), (other,))

    __rmul__ = __mul__

    def scale(self, c):
        c = _rational(c)
        if c == 0:
            return FiberSeries.zero(self.chart, self.valid_order)
        p = c.numerator
        out = {k: p * v for k, v in self._num.items()}
        return FiberSeries._reduced(self.chart, out, self._den * c.denominator,
                                    self.valid_order, self._bound)

    def diff(self, idx):
        """Exact partial derivative in direction ``idx`` (0-based, base then fiber)."""
        chart = self.chart
        if idx < 0 or idx >= chart.n_vars:
            raise IndexError("variable index out of range")
        pos, unit = FIELD_BITS * idx, key_units(chart)[idx]
        vo = self.valid_order - (idx >= chart.base_dim)
        out = {k - unit: c * e for k, c in self._num.items() if (e := (k >> pos) & MAX_FIELD)}
        return FiberSeries._reduced(chart, out, self._den, vo, self._bound)

    def truncate(self, order):
        """Drop fiber degrees above ``order`` and lower the certified order."""
        vo = min(self.valid_order, order)
        if vo == self.valid_order:
            return self
        top = _top(self.chart, vo)
        out = {k: c for k, c in self._num.items() if k < top}
        return FiberSeries._reduced(self.chart, out, self._den, vo, self._bound)

    # -- structural helpers -------------------------------------------

    def fiber_part(self, lo, hi):
        """Terms whose total fiber degree lies in [lo, hi]; certified order kept."""
        low, top = _top(self.chart, lo - 1), _top(self.chart, hi)
        out = {k: c for k, c in self._num.items() if low <= k < top}
        return FiberSeries._reduced(self.chart, out, self._den, self.valid_order, self._bound)

    def xi_coefficient(self, fiber_exps):
        """Coefficient of the fiber monomial ``x^fiber_exps`` as a base polynomial."""
        chart = self.chart
        pos = FIELD_BITS * chart.base_dim
        want = _pack(chart, (0,) * chart.base_dim + tuple(fiber_exps)) >> pos
        mask = (1 << pos) - 1
        out = {k & mask: c for k, c in self._num.items() if k >> pos == want}
        return FiberSeries._reduced(chart, out, self._den, self.valid_order, self._bound)

    def substitute_fiber(self, gmat):
        """
        Substitute ``x_s -> sum_t gmat[s][t] * x_t`` (entries base polynomials).

        The map is fiber-linear, so total fiber degree is preserved and the
        certified order is unchanged.
        """
        chart, vo = self.chart, self.valid_order
        b, r = chart.base_dim, chart.fiber_dim
        if not all(g.is_fiber_independent() for row in gmat for g in row):
            raise ValueError("fiber substitution matrix must be fiber independent")
        x = [FiberSeries.variable(chart, b + t, vo) for t in range(r)]
        zero = FiberSeries.zero(chart, vo)
        # zero entries are left out: they would cap the certified order
        images = [dot([zero] + [g for g in row if g],
                      [zero] + [x[t] for t, g in enumerate(row) if g]) for row in gmat]
        return FiberSeries.sum([zero] + [
            prod([im for im, e in zip(images, exps[b:]) for _ in range(e)],
                 start=FiberSeries.monomial(chart, exps[:b] + (0,) * r, c, vo))
            for exps, c in self.terms.items()])

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point):
        """Exact evaluation at a point given as a sequence of n_vars rationals."""
        point = [_rational(v) for v in point]
        if len(point) != self.chart.n_vars:
            raise ValueError("point has wrong dimension")
        return Fraction(sum(c * prod(x ** e for x, e in zip(point, exps) if e)
                            for exps, c in zip(self.terms, self._num.values())), self._den)

    def evaluate_float(self, point):
        return float(FloatEvaluator([self])([point])[0, 0])

    # -- rendering ------------------------------------------------------

    def render(self):
        """Canonical text form: graded-lex term order, xi variables before x."""
        if not self._num:
            return "0"
        parts = []
        for exps, c in sorted(zip(self.terms, self._num.values()),
                              key=lambda t: (sum(t[0]), t[0])):
            factors = []
            for idx, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.chart.var_name(idx)
                factors.append(name if e == 1 else "%s^%d" % (name, e))
            mag = Fraction(abs(c), self._den)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "<FiberSeries %s (order %d)>" % (self.render(), self.valid_order)


class FloatEvaluator:
    """
    A list of series on one chart compiled for float evaluation: the
    distinct monomials of all the series and a coefficient matrix with one
    column per series.  Called on an ``(m, n_vars)`` array of points it gives
    the ``(m, len(series))`` values, ``monomials(points) @ coefficients``.
    The powers z_v^e that the monomials use form one table, built by
    repeated squaring over the bits of the exponents; a monomial is the
    product of its variables' powers, gathered from the table in one step.
    No array larger than points x monomials x variables is formed.
    """

    def __init__(self, series):
        charts = {s.chart for s in series}
        if len(charts) > 1:
            raise ChartMismatchError("series live on different charts")
        chart = charts.pop() if charts else None
        self.n_vars = chart.n_vars if chart else None
        index = {}
        try:
            terms = [(index.setdefault(k, len(index)), j, c / s._den)
                     for j, s in enumerate(series) for k, c in s._num.items()]
        except OverflowError:
            raise ValueError("a series coefficient lies outside the float range")
        exponents = [_unpack(chart, k) for k in index]
        self.coefficients = np.zeros((len(index), len(series)))
        for k, j, c in terms:
            self.coefficients[k, j] = c
        # the table's rows: 1, then z_v^e for each power (v, e) that a monomial
        # uses; gather[v, k] is the row of the power of z_v in monomial k
        powers = sorted({(v, e) for exps in exponents for v, e in enumerate(exps) if e})
        row_of = {p: u for u, p in enumerate(powers, 1)}
        self._gather = np.array([[row_of.get(p, 0) for p in enumerate(exps)] for exps in exponents],
                                dtype=int).reshape(len(index), self.n_vars or 0).T
        self._bases = np.array([v for v, _ in powers], dtype=int)
        e = np.array([e for _, e in powers], dtype=int)[:, None]
        # bits[j] marks the powers whose exponent has bit j set
        self._bits = [(e >> j) & 1 == 1 for j in range(int(e.max(initial=0)).bit_length())]

    def monomials(self, points):
        """The ``(m, monomials)`` values of the monomials at the points."""
        z = np.asarray(points, dtype=float)
        if z.ndim != 2 or self.n_vars not in (None, z.shape[1]):
            raise ValueError("points must be an array of shape (m, %s)" % self.n_vars)
        # one row of the table per power, one column per point
        table = np.ones((len(self._bases) + 1, len(z)))
        square = z.T[self._bases]
        for j, bit in enumerate(self._bits):
            if j:
                square *= square
            table[1:] *= np.where(bit, square, 1.0)
        return table[self._gather].prod(axis=0).T

    def __call__(self, points):
        return self.monomials(points) @ self.coefficients


# -- matrices of series ------------------------------------------------

def mat_identity(chart, n):
    return [[FiberSeries.constant(chart, 1) if i == j else FiberSeries.zero(chart)
             for j in range(n)] for i in range(n)]


def dot(xs, ys, weights=None):
    """sum_s weights[s] * xs[s] * ys[s] for nonempty sequences of series on
    one chart and integer weights (default 1), accumulated into one dict
    over one denominator: the ring's only product.  It certifies the least
    order of all its operands, zero ones included."""
    first = xs[0]
    chart, vo = first.chart, first.valid_order
    # one pass: charts, the least order, the nonzero pairs and their denominators' lcm
    pairs, den = [], 1
    for x, y, w in zip(xs, ys, weights or [1] * len(xs), strict=True):
        for s in (x, y):
            if s.chart is not chart:
                _check_same_chart(first, s)
            if s.valid_order < vo:
                vo = s.valid_order
        if x._num and y._num and w:
            d = x._den * y._den
            pairs.append((x, y, w, d))
            if den % d:
                den = lcm(den, d)
    top = _top(chart, vo)
    out = {}
    bound = 0
    for x, y, w, d in pairs:
        bound = max(bound, _product_bound(x, y))
        f = den // d * w
        lhs = x._num.items() if f == 1 else [(k, c * f) for k, c in x._num.items()]
        _mul_into(out, lhs, sorted(y._num.items()), top)
    return FiberSeries._reduced(chart, _nonzero(out), den, vo, bound)


def mat_mul(A, B, upper=False):
    """The product A B; with ``upper`` only its entries i < j are formed and
    the others are None."""
    cols = [list(col) for col in zip(*B, strict=True)]
    return [[dot(row, col) if not upper or i < j else None for j, col in enumerate(cols)]
            for i, row in enumerate(A)]


def mat_neg(A):
    return [[-a for a in row] for row in A]


def mat_fiber_zero_part(A):
    return [[a.fiber_part(0, 0) for a in row] for row in A]


def mat_is_identity(A):
    return all((a - (1 if i == j else 0)).is_zero()
               for i, row in enumerate(A) for j, a in enumerate(row))


def mat_is_inverse(A, B):
    """True iff B is an exact two-sided inverse of the square matrix A."""
    return mat_is_identity(mat_mul(A, B)) and mat_is_identity(mat_mul(B, A))


def mat_valid_order(A):
    return min(a.valid_order for row in A for a in row)


def block_inverse(M, M0_inv=None, seed_name="M0_inv", valid_order=None):
    """
    The certified seed of a Neumann inverse of the square series matrix
    ``M``: an exact two-sided inverse of its fiber-degree-0 block M0,
    verified by multiplication.  A given ``M0_inv`` is returned once it
    passes; without one, M0 must be constant in the base variables and its
    inverse is computed by exact elimination, as constant series certified
    to ``valid_order`` (default the chart's).

    Raises ValueError naming ``seed_name`` when the seed is no inverse,
    when M0 is singular, or when M0 depends on the base variables and no
    seed is given.
    """
    M0 = mat_fiber_zero_part(M)
    if M0_inv is None:
        if not all((a - a.constant_term()).is_zero() for row in M0 for a in row):
            raise ValueError("fiber-constant part depends on the base variables; "
                             "supply %s to certify its inverse" % seed_name)
        try:
            inv = linalg.invert([[a.constant_term() for a in row] for row in M0])
        except ValueError:
            raise ValueError("fiber-constant part is singular: it has no %s" % seed_name)
        M0_inv = [[FiberSeries.constant(M[0][0].chart, c, valid_order) for c in row]
                  for row in inv]
    if not mat_is_inverse(M0_inv, M0):
        raise ValueError("%s does not certify the inverse of the fiber-constant part"
                         % seed_name)
    return [list(row) for row in M0_inv]


def mat_antisymmetric(U, zero):
    """The antisymmetric matrix whose entries i < j are U's, with ``zero`` on
    its diagonal."""
    return [[U[i][j] if i < j else -U[j][i] if i > j else zero for j in range(len(U))]
            for i in range(len(U))]


def matrix_invert(M, M0_inv):
    """
    Invert an antisymmetric square series matrix by Neumann expansion.

    ``M0_inv`` is the inverse of the fiber-degree-0 part M0 of ``M`` that
    ``block_inverse`` has certified.  Writing ``M = M0 + dM`` with ``dM``
    of fiber degree >= 1, the inverse is ``G = sum_m (-M0_inv dM)^m
    M0_inv``, which terminates at the truncation order.  The result
    satisfies ``M G = G M = identity`` exactly up to the common certified
    order vo, at which every entry is certified.  Each term of the sum is
    antisymmetric, as M0_inv is, so only its entries i < j are formed, and
    summed once.  Raises ValueError when M is not antisymmetric.
    """
    n = len(M)
    # M_ij + M_ji, and 2 M_ii on the diagonal, must vanish
    if any(M[i][j] + M[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("matrix_invert needs an antisymmetric matrix")
    vo = min(mat_valid_order(M), mat_valid_order(M0_inv))
    K = mat_neg(mat_mul(M0_inv, [[a.truncate(vo).fiber_part(1, vo) for a in row] for row in M]))
    zero = FiberSeries.zero(M[0][0].chart, vo)
    terms = [[[a.truncate(vo) for a in row] for row in M0_inv]]
    for _ in range(vo):
        terms.append(mat_antisymmetric(mat_mul(K, terms[-1], upper=True), zero))
        if all(a.is_zero() for row in terms[-1] for a in row):
            break
    return mat_antisymmetric([[FiberSeries.sum([T[i][j] for T in terms]) if i < j else None
                               for j in range(n)] for i in range(n)], zero)
