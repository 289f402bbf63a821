"""
Antisymmetric multivector fields and base forms with series components,
and the Schouten-Nijenhuis calculus on a chart.

Both kinds of tensor share one base class, ``AntisymmetricTensor``: it
stores components only on strictly increasing index tuples and owns their
validation, the signed ``component`` lookup, ``+``/``-``/``scale``,
``render`` and ``from_matrix``.  A ``Multivector`` indexes all
base-then-fiber directions and renders them ``d1, d2, ...``; an ``HForm``
indexes base directions only and renders them ``dxi1, dxi2, ...``.

The bracket is normalized so that ``schouten(X, f) = X(f)`` for a vector
field X and a function f, and ``schouten(X, Y)`` is the Lie bracket of
vector fields.  With this normalization the bracket of two monomials
``a d_I`` and ``b d_J`` (|I| = p, |J| = q) expands to

    sum_k (-1)^(p+k) a (d_{i_k} b)  d_{I\\i_k} ^ d_J
  + sum_m (-1)^m     b (d_{j_m} a)  d_I ^ d_{J\\j_m}

with 1-based positions k, m; every identity check downstream asserts
vanishing, so it is independent of this sign convention.

Certified orders: a bracket always lowers the certified fiber order by
one (a conservative rule; fiber differentiation may lose one order and
we do not track which components actually used one).
"""

from .series import FiberSeries, ChartMismatchError, _check_same_chart, dot


def merge_sign(I, J):
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    swaps = 0
    for j in J:
        for i in I:
            if i > j:
                swaps += 1
    return -1 if swaps % 2 else 1


def _merge(I, J):
    if set(I) & set(J):
        return None, 0
    return tuple(sorted(I + J)), merge_sign(I, J)


def _permutation_sign(perm, sorted_tuple):
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        if perm[i] != sorted_tuple[i]:
            j = perm.index(sorted_tuple[i], i + 1)
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


class AntisymmetricTensor:
    """
    Antisymmetric tensor of fixed degree with series components, the
    shared base of :class:`Multivector` and :class:`HForm`.

    ``comps`` maps strictly increasing index tuples to
    :class:`FiberSeries`; zero components are never stored.  Degree 0 is
    a single function stored at the empty tuple.  A subclass names the
    chart attribute bounding its indices (``_index_range``) and the text
    of one direction in ``render`` (``_prefix``).
    """

    _index_range = None
    _prefix = None

    def __init__(self, chart, degree, comps=None, valid_order=None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.chart = chart
        self.degree = degree
        vo = chart.trunc_order if valid_order is None else valid_order
        if comps:
            vo = min([vo] + [s.valid_order for s in comps.values()])
        clean = {}
        if comps:
            bound = getattr(chart, self._index_range)
            for idx, s in comps.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(set(idx)):
                    raise ValueError("component index must be a strictly increasing "
                                     "%d-tuple, got %r" % (degree, idx))
                if any(i < 0 or i >= bound for i in idx):
                    raise IndexError("component index out of range: %r" % (idx,))
                if s.chart != chart:
                    raise ChartMismatchError("component lives on a different chart")
                s = s.truncate(vo)
                if not s.is_zero():
                    clean[idx] = s
        self.comps = clean
        self.valid_order = vo

    @classmethod
    def zero(cls, chart, degree, valid_order=None):
        return cls(chart, degree, {}, valid_order)

    @classmethod
    def from_matrix(cls, chart, M, valid_order=None, offset=0):
        """The degree-2 tensor whose components on the indices ``offset ..``
        are the entries of the full antisymmetric matrix M of series."""
        comps = {}
        for i in range(len(M)):
            if not M[i][i].is_zero():
                raise ValueError("matrix must have zero diagonal")
            for j in range(i + 1, len(M)):
                if not (M[i][j] + M[j][i]).is_zero():
                    raise ValueError("matrix must be antisymmetric")
                if not M[i][j].is_zero():
                    comps[(offset + i, offset + j)] = M[i][j]
        return cls(chart, 2, comps, valid_order)

    def is_zero(self):
        return not self.comps

    def component(self, idx):
        """Component at any index tuple, with the antisymmetric sign."""
        idx = tuple(idx)
        if len(set(idx)) != len(idx):
            return FiberSeries.zero(self.chart, self.valid_order)
        order = tuple(sorted(idx))
        s = self.comps.get(order)
        if s is None:
            return FiberSeries.zero(self.chart, self.valid_order)
        sign = _permutation_sign(idx, order)
        return s if sign == 1 else -s

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add tensors of different degree")
        _check_same_chart(self, other)
        vo = min(self.valid_order, other.valid_order)
        out = {idx: s for idx, s in self.comps.items()}
        for idx, s in other.comps.items():
            out[idx] = out[idx] + s if idx in out else s
        return type(self)(self.chart, self.degree, out, vo)

    def __neg__(self):
        return type(self)(self.chart, self.degree,
                          {i: -s for i, s in self.comps.items()}, self.valid_order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return type(self)(self.chart, self.degree,
                          {i: s.scale(c) for i, s in self.comps.items()}, self.valid_order)

    def render(self):
        """Canonical text: components in tuple order, directions 1-based."""
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps):
            body = self.comps[idx].render()
            if " " in body:
                body = "(" + body + ")"
            wedge = "^".join("%s%d" % (self._prefix, i + 1) for i in idx)
            parts.append("%s*%s" % (body, wedge) if wedge else body)
        return " + ".join(parts)

    def __repr__(self):
        return "<%s deg %d: %s (order %d)>" % (type(self).__name__, self.degree,
                                              self.render(), self.valid_order)


class Multivector(AntisymmetricTensor):
    """Antisymmetric contravariant tensor field; indices run over all
    base-then-fiber directions."""

    _index_range = "n_vars"
    _prefix = "d"

    @classmethod
    def basis(cls, chart, idx, valid_order=None):
        """The coordinate vector field d_idx (0-based direction)."""
        one = FiberSeries.constant(chart, 1, valid_order)
        return cls(chart, 1, {(idx,): one}, valid_order)

    @classmethod
    def function(cls, chart, series):
        return cls(chart, 0, {(): series}, series.valid_order)

    def is_vertical(self):
        b = self.chart.base_dim
        return all(all(i >= b for i in idx) for idx in self.comps)

    def truncate(self, order):
        return Multivector(self.chart, self.degree, self.comps, min(self.valid_order, order))

    def fiber_part(self, lo, hi):
        out = {i: s.fiber_part(lo, hi) for i, s in self.comps.items()}
        return Multivector(self.chart, self.degree, out, self.valid_order)


def _collect(terms):
    """{K: sum of sign * x * y} over the (K, sign, x, y) in ``terms``, one
    fused sum per index tuple K."""
    groups = {}
    for K, sign, x, y in terms:
        groups.setdefault(K, []).append((x, y, sign))
    return {K: dot(*zip(*g)) for K, g in groups.items()}


def wedge(A, B):
    """Exterior product; graded-commutative, A^B = (-1)^(pq) B^A."""
    _check_same_chart(A, B)
    degree = A.degree + B.degree
    vo = min(A.valid_order, B.valid_order)
    if degree > A.chart.n_vars:
        return Multivector.zero(A.chart, degree, vo)
    merged = ((_merge(I, J), a, b) for I, a in A.comps.items() for J, b in B.comps.items())
    return Multivector(A.chart, degree, _collect((K, sign, a, b) for (K, sign), a, b in merged
                                                 if K is not None), vo)


def interior(alpha, T):
    """
    Contraction of a 1-form into the first slot of a multivector.

    ``alpha`` is a list of n_vars series components (the d(xi) components
    first, then the dx components).
    """
    if T.degree == 0:
        raise ValueError("cannot contract a 1-form into a 0-vector")
    chart = T.chart
    if len(alpha) != chart.n_vars:
        raise ValueError("1-form needs %d components" % chart.n_vars)
    vo = min([T.valid_order] + [a.valid_order for a in alpha])
    out = _collect((I[:k] + I[k + 1:], -1 if k % 2 else 1, alpha[idx], c)
                   for I, c in T.comps.items() for k, idx in enumerate(I))
    return Multivector(chart, T.degree - 1, out, vo)


def schouten(A, B):
    """
    Schouten-Nijenhuis bracket of multivector fields.

    Graded antisymmetry: [[A,B]] = -(-1)^((p-1)(q-1)) [[B,A]]; graded
    Leibniz over the wedge; restricts to X(f) and the Lie bracket in
    degrees (1,0) and (1,1).
    """
    _check_same_chart(A, B)
    return _bracket(A, B, ((I, J, 1) for I in A.comps for J in B.comps))


def jacobiator(P):
    """[[P, P]] for a bivector P; zero (at certified order) iff P is Poisson."""
    if P.degree != 2:
        raise ValueError("jacobiator expects a bivector")
    # the bracket of two bivectors is symmetric, monomial pair by monomial
    # pair: sum over I <= J and count each pair I < J twice
    idx = sorted(P.comps)
    return _bracket(P, P, ((I, J, 1 if I == J else 2)
                           for n, I in enumerate(idx) for J in idx[n:]))


def _bracket(A, B, pairs):
    """sum of weight * [[a d_I, b d_J]] over the (I, J, weight) in ``pairs``,
    each derivative of a component taken once."""
    p, q = A.degree, B.degree
    vo = min(A.valid_order, B.valid_order) - 1
    if p == 0 and q == 0:
        return Multivector.zero(A.chart, 0, vo)
    diffs = {}

    def diff(T, I, i):
        key = (T is A, I, i)
        if key not in diffs:
            diffs[key] = T.comps[I].diff(i)
        return diffs[key]

    def terms():
        for I, J, weight in pairs:
            for k, ik in enumerate(I):
                K, sign = _merge(I[:k] + I[k + 1:], J)
                if K is not None:
                    s = -1 if (p + k + 1) % 2 else 1
                    yield K, weight * s * sign, A.comps[I], diff(B, J, ik)
            for m, jm in enumerate(J):
                K, sign = _merge(I, J[:m] + J[m + 1:])
                if K is not None:
                    s = -1 if (m + 1) % 2 else 1
                    yield K, weight * s * sign, B.comps[J], diff(A, I, jm)

    return Multivector(A.chart, p + q - 1, _collect(terms()), vo)


def lie_derivative(X, T):
    """Lie derivative of a multivector along a vector field, as a bracket."""
    if X.degree != 1:
        raise ValueError("lie_derivative expects a vector field in the first slot")
    return schouten(X, T)


class HForm(AntisymmetricTensor):
    """
    Base k-form with function values: components on strictly increasing
    base-index tuples only.
    """

    _index_range = "base_dim"
    _prefix = "dxi"

    def matrix(self):
        """Degree-2 form as a full antisymmetric base-dim square matrix."""
        if self.degree != 2:
            raise ValueError("matrix() is defined for 2-forms")
        n = self.chart.base_dim
        return [[self.component((i, j)) for j in range(n)] for i in range(n)]
