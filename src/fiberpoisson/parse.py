"""
Text grammar for entering coefficient functions.

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := rational | var | factor '^' uint | '(' expr ')'
    rational := uint ('/' uint)?
    var      := 'xi' uint | 'x' uint        (1-indexed)

Whitespace is insignificant.  Parsing is exact: rationals are never
rounded.  An expression is expanded exactly in the series ring, on a
chart whose order no parsed term reaches (``MAX_EXPONENT`` bounds every
term's total degree), and truncated once to the chart order; a term of
the expansion above that order is dropped and the ``truncated`` flag is
set on the result.
"""

import functools
import re
from fractions import Fraction

from .series import ChartSpec, FiberSeries

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>xi\d+|x\d+)|(?P<op>[-+*/^()]))")

# Parentheses and unary minuses open at one time.  The parser recurses once
# per level, so deeper input is refused before it exhausts the Python stack.
MAX_NESTING = 100
# Bounds on every intermediate polynomial, checked once per '^' or '*' before
# the work: a term's total degree, and a product's term count |a| * |b|.
MAX_EXPONENT = 100
MAX_TERMS = 10000


class ParseError(ValueError):
    """Syntax or name error, carrying the 0-based position in the input."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _tokenize(text):
    tokens = []
    end = 0
    for m in iter(_TOKEN.scanner(text).match, None):
        tokens.append((m.lastgroup, m[m.lastindex], m.start(m.lastindex)))
        end = m.end()
    stripped = text[end:].lstrip()
    if stripped:
        raise ParseError("unexpected character %r" % stripped[0], len(text) - len(stripped))
    return tokens


class _Parser:
    """Recursive descent over the token list.  A value is a pair (series,
    deg): the series lives on ``self.chart``, of order at least
    MAX_EXPONENT, and deg bounds the total degree of its terms."""

    def __init__(self, text, chart):
        self.chart, self.variables = _parse_chart(chart)
        # the end sentinel is consumed only on the way to a ParseError
        self.tokens = _tokenize(text) + [(None, None, len(text))]
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, pos)

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError("unexpected trailing input %r" % val, pos)
        return value[0]

    def expr(self):
        kind, val, pos = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        parts = []
        deg = 0
        while True:
            term, tdeg = self.term()
            deg = max(deg, tdeg)
            parts.append(-term if negate else term)
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                negate = val == "-"
            else:
                return FiberSeries.sum(parts), deg

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
        (sa, da), (sb, db) = a, b
        if len(sa) * len(sb) > MAX_TERMS:
            raise ParseError("product of more than %d terms" % MAX_TERMS, pos)
        if da + db > MAX_EXPONENT:
            raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
        return sa * sb, da + db

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
                value = base if n else (FiberSeries.constant(self.chart, 1), 0)
                for _ in range(n - 1):
                    value = self.product(value, base, pos)
            else:
                return value

    def atom(self):
        kind, val, pos = self.next()
        if kind == "op" and val in "-(":
            return self.nested(val, pos)
        if kind == "num":
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, val3, pos3 = self.next()
                if kind3 != "num":
                    raise ParseError("expected an integer denominator", pos3)
                if int(val3) == 0:
                    raise ParseError("zero denominator", pos3)
                num = Fraction(num, int(val3))
            return FiberSeries.constant(self.chart, num), 0
        if kind == "var":
            base = val.startswith("xi")
            k = int(val[2 if base else 1:]) - 1
            if not 0 <= k < (self.chart.base_dim if base else self.chart.fiber_dim):
                raise ParseError("unknown variable %r" % val, pos)
            return self.variables[k if base else self.chart.base_dim + k], 1
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError("unexpected token %r" % val, pos)

    def nested(self, op, pos):
        """A negated atom or a parenthesised expression, one level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested deeper than %d levels" % MAX_NESTING, pos)
        self.depth += 1
        if op == "-":
            value, deg = self.atom()
            value = -value, deg
        else:
            value = self.expr()
            self.expect_op(")")
        self.depth -= 1
        return value


@functools.lru_cache(maxsize=64)
def _parse_chart(chart):
    """The chart a parse expands on (the same variables, at an order no
    parsed term reaches) and its variables, made once per chart."""
    pchart = ChartSpec(chart.base_dim, chart.fiber_dim, max(chart.trunc_order, MAX_EXPONENT))
    return pchart, tuple(FiberSeries.variable(pchart, idx) for idx in range(pchart.n_vars))


def parse_series(text, chart):
    """Parse an expression into a :class:`FiberSeries` at the chart order."""
    return _Parser(text, chart).parse().on_chart(chart)
