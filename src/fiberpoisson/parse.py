"""
Text grammar for entering coefficient functions.

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := rational | var | factor '^' uint | '(' expr ')'
    rational := uint ('/' uint)?
    var      := 'xi' uint | 'x' uint        (1-indexed)

Whitespace is insignificant.  Parsing is exact: rationals are never
rounded.  A literal term whose total fiber degree exceeds the chart's
truncation order is dropped and the ``truncated`` flag is set on the
result.
"""

import re
from fractions import Fraction
from operator import add

from .series import FiberSeries

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>xi\d+|x\d+)|(?P<op>[-+*/^()]))")

# Parentheses and unary minuses open at one time.  The parser recurses once
# per level, so deeper input is refused before it exhausts the Python stack.
MAX_NESTING = 100
# Bounds on every intermediate polynomial, checked once per '^' or '*' before
# the work: a variable's exponent, and a product's term count |a| * |b|.
MAX_EXPONENT = 100
MAX_TERMS = 10000


class ParseError(ValueError):
    """Syntax or name error, carrying the 0-based position in the input."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0],
                             len(text) - len(stripped))
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "var":
            tokens.append(("var", m.group("var"), m.start("var")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Poly:
    """Untruncated exponent-dict polynomial used only while parsing; its
    coefficients are nonzero, and no variable's exponent exceeds ``deg``."""

    __slots__ = ("terms", "deg")

    def __init__(self, terms, deg):
        self.terms = terms
        self.deg = deg

    def __neg__(self):
        return _Poly({e: -c for e, c in self.terms.items()}, self.deg)

    def __mul__(self, other):
        if len(self.terms) == 1:
            self, other = other, self
        if len(other.terms) == 1:
            # shifting exponents by one monomial is injective: no collisions
            ((e2, c2),) = other.terms.items()
            return _Poly({tuple(map(add, e1, e2)): c1 if c2 == 1 else c1 * c2
                          for e1, c1 in self.terms.items()}, self.deg + other.deg)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return _Poly(out, self.deg + other.deg)


class _Parser:
    def __init__(self, text, chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, pos)

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError("unexpected trailing input %r" % val, pos)
        return value

    def expr(self):
        kind, val, pos = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        out = {}
        deg = 0
        while True:
            term = self.term()
            deg = max(deg, term.deg)
            for e, c in term.terms.items():
                s = out.get(e, 0) + (-c if negate else c)
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                negate = val == "-"
            else:
                return _Poly(out, deg)

    def term(self):
        value = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                value = self.product(value, self.factor(), pos)
            else:
                return value

    def product(self, a, b, pos):
        """a * b, refused when it could exceed MAX_TERMS or MAX_EXPONENT."""
        if len(a.terms) * len(b.terms) > MAX_TERMS:
            raise ParseError("product of more than %d terms" % MAX_TERMS, pos)
        if a.deg + b.deg > MAX_EXPONENT:
            raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
        return a * b

    def factor(self):
        value = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                kind, val, pos = self.next()
                if kind != "num":
                    raise ParseError("expected an integer exponent", pos)
                n = int(val)
                if n > MAX_EXPONENT:
                    raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
                base = value
                value = base if n else _Poly({(0,) * self.chart.n_vars: Fraction(1)}, 0)
                for _ in range(n - 1):
                    value = self.product(value, base, pos)
            else:
                return value

    def atom(self):
        kind, val, pos = self.next()
        n = self.chart.n_vars
        if kind == "op" and val in "-(":
            return self.nested(val, pos)
        if kind == "num":
            num = Fraction(int(val))
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, val3, pos3 = self.next()
                if kind3 != "num":
                    raise ParseError("expected an integer denominator", pos3)
                if int(val3) == 0:
                    raise ParseError("zero denominator", pos3)
                num /= int(val3)
            return _Poly({(0,) * n: num} if num else {}, 0)
        if kind == "var":
            if val.startswith("xi"):
                k = int(val[2:]) - 1
                if not 0 <= k < self.chart.base_dim:
                    raise ParseError("unknown variable %r" % val, pos)
                idx = k
            else:
                k = int(val[1:]) - 1
                if not 0 <= k < self.chart.fiber_dim:
                    raise ParseError("unknown variable %r" % val, pos)
                idx = self.chart.base_dim + k
            exps = [0] * n
            exps[idx] = 1
            return _Poly({tuple(exps): Fraction(1)}, 1)
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError("unexpected token %r" % val, pos)

    def nested(self, op, pos):
        """A negated atom or a parenthesised expression, one level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested deeper than %d levels" % MAX_NESTING, pos)
        self.depth += 1
        if op == "-":
            value = -self.atom()
        else:
            value = self.expr()
            self.expect_op(")")
        self.depth -= 1
        return value


def parse_series(text, chart):
    """Parse an expression into a :class:`FiberSeries` at the chart order."""
    poly = _Parser(text, chart).parse()
    return FiberSeries(chart, poly.terms, chart.trunc_order)
