"""
Text grammar for entering coefficient functions.

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*' factor | '/' divisor)*
    factor   := '-' factor | power
    power    := uint | var | power '^' uint | '(' expr ')'
    divisor  := factor, written with uint, '-' and '^' alone, nonzero
    var      := 'xi' uint | 'x' uint        (1-indexed)

Whitespace is insignificant, and a unary minus binds looser than '^'
(``2*-x1^2`` is -2 x1^2).  A '/' divides by the integer factor after it,
its powers taken first, as sympy and Python read it: ``2/4^2`` is 1/8 and
``2/4/2`` is 1/4.  Parsing is exact: rationals are never rounded.  A text
without '(' is split once at its signs; when each piece is a whole term, written
``p/q*xi1*x2^3``, the text is their sum, and a caller's memo reads each distinct
whole term once.  Any other text, and every text with a '(', is read token by
token by the grammar reader, which raises every error.  There a term without
parentheses is one packed monomial (the key units of its variables add, its
numerators and denominators multiply) and parenthesised parts are expanded in
the series ring.  Both happen on the caller's chart, so a term above its order
drops as it arises, and the bounds below count only the terms that are kept;
fiber degree is additive, so no term at or below the order changes.
"""

import functools
import re
from math import lcm

from .series import FiberSeries, key_units

_FINE = re.compile(r"(?P<num>\d+)|(?P<var>xi\d+|x\d+)|(?P<op>[-+*/^()])|(?P<bad>\S)")
# a whole term: a number p or p/q, or a power of a variable, then '*' and more powers
_WHOLE = re.compile(r"(?:\d+(?:/\d+)?|xi?\d+(?:\^\d+)?)(?:\*xi?\d+(?:\^\d+)?)*")
_SIGNS = re.compile(r"([-+])")

# Parentheses and unary minuses open at one time.  The parser recurses once
# per level, so deeper input is refused before it exhausts the Python stack.
MAX_NESTING = 100
# Bounds on every intermediate polynomial, checked once per '^', '*' or '/'
# before the work: a term's total degree, and a product's term count |a| * |b|.
MAX_EXPONENT = 100
MAX_TERMS = 10000
# A longer digit run is never converted: as a number it is refused, as an
# exponent it is above MAX_EXPONENT and as a variable index it names no
# variable.  The bound is CPython's default int_max_str_digits.
MAX_DIGITS = 4300
# A power is refused before the work when its exponent times the bit length of
# the base's largest numerator or denominator exceeds that of a MAX_DIGITS-digit
# number, and a written product or quotient when its factors' numerators, or
# denominators, add up to more bits: MAX_EXPONENT does not bound numbers, whose
# degree is 0.
MAX_POWER_BITS = (10 ** MAX_DIGITS - 1).bit_length()


class ParseError(ValueError):
    """Syntax or name error, carrying the 0-based position in the input."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _tokenize(text):
    tokens = [(m.lastgroup, m[0], m.start()) for m in _FINE.finditer(text)]
    for kind, val, pos in tokens:
        if kind == "bad":
            raise ParseError("unexpected character %r" % val, pos)
    return tokens


def _bits(series):
    """The bit lengths of the largest numerator and denominator of a series' coefficients."""
    values = series.terms.values()
    return (max((c.numerator.bit_length() for c in values), default=0),
            max((c.denominator.bit_length() for c in values), default=0))


@functools.lru_cache(maxsize=64)
def _names(chart):
    """The key units of the chart's variables, by name."""
    return {chart.var_name(v): unit for v, unit in enumerate(key_units(chart))}


def _monomial(text, names):
    """A whole term's tuple (key, num, den, deg), or None where it may break a bound: an
    unknown variable, a zero divisor, a degree past MAX_EXPONENT, or MAX_DIGITS
    characters (fewer keep its numbers below both bit bounds)."""
    if len(text) >= MAX_DIGITS:
        return None
    factors, num, den, key, deg = text.split("*"), 1, 1, 0, 0
    if factors[0][0].isdigit():
        num, _, den = factors.pop(0).partition("/")
        num, den = int(num), int(den or 1)
    for f in factors:
        name, _, n = f.partition("^")
        if name not in names:
            return None
        n = int(n or 1)
        key, deg = key + names[name] * n, deg + n
    return (key, num, den, deg) if den and deg <= MAX_EXPONENT else None


def _sum(chart, monomials, deg):
    """The series of (key, num, den) monomials of degree at most ``deg``, over one denominator."""
    den = lcm(*{d for _, _, d in monomials})
    pairs = ((key, num * (den // d)) for key, num, d in monomials)
    return FiberSeries.from_keys(chart, pairs, den, deg)


def _flat(text, chart, memo):
    """The series of a sign and whole terms joined by '+' and '-'; None for other text."""
    pieces = _SIGNS.split(text)
    if pieces[0].strip() or len(pieces) == 1:
        pieces.insert(0, "+")
    else:  # a leading sign
        del pieces[0]
    names, monomials, deg = _names(chart), [], 0
    for sign, body in zip(pieces[::2], pieces[1::2]):
        body = body.strip()
        if body not in memo:  # None for a piece that is no whole term
            memo[body] = _monomial(body, names) if _WHOLE.fullmatch(body) else None
        if (value := memo[body]) is None:
            return None
        key, num, den, tdeg = value
        monomials.append((key, -num if sign == "-" else num, den))
        deg = max(deg, tdeg)
    return _sum(chart, monomials, deg)


def _number(val, pos):
    if len(val) > MAX_DIGITS:
        raise ParseError("number longer than %d digits" % MAX_DIGITS, pos)
    return int(val)


class _Parser:
    """Recursive descent over the text's tokens (numbers, variables and
    operators, told by their text alone), raising every error at its
    position.  A factor or term is a tuple (key, num, den, deg): the
    monomial num/den * x^key of total degree at most deg, its key packed on
    ``self.chart`` (a key may lie above the chart order until it is summed).
    Where parentheses enter, num is a series on that chart, key 0 and den 1."""

    def __init__(self, text, chart):
        self.chart, self.units = chart, key_units(chart)
        # the end sentinel is consumed only on the way to a ParseError
        self.tokens = _tokenize(text) + [(None, None, len(text))]
        self.i = 0
        self.depth = 0

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def parse(self):
        series, deg = self.expr()
        kind, val, pos = self.tokens[self.i]
        if kind is not None:
            raise ParseError("unexpected trailing input %r" % val, pos)
        return series

    def expr(self):
        """(series, deg): the monomials summed over one denominator, then the rest."""
        negate = False
        if self.tokens[self.i][1] in ("+", "-"):
            negate = self.next()[1] == "-"
        monomials, parts, deg = [], [], 0
        while True:
            key, num, den, tdeg = self.term()
            num = -num if negate else num
            if isinstance(num, FiberSeries):
                parts.append(num)
            else:
                monomials.append((key, num, den))
            deg = max(deg, tdeg)
            if self.tokens[self.i][1] not in ("+", "-"):
                break
            negate = self.next()[1] == "-"
        if monomials:
            parts.append(_sum(self.chart, monomials, deg))
        return (parts[0] if len(parts) == 1 else FiberSeries.sum(parts)), deg

    def term(self):
        value = self.factor()
        while self.tokens[self.i][1] in ("*", "/"):
            kind, val, pos = self.next()
            rhs = self.factor() if val == "*" else self.reciprocal()
            # a series' coefficients, and a monomial's number past the bound as
            # it stands, are measured in lowest terms at the chart order
            if isinstance(value[1], FiberSeries) or isinstance(rhs[1], FiberSeries) or \
                    value[1].bit_length() + rhs[1].bit_length() > MAX_POWER_BITS or \
                    value[2].bit_length() + rhs[2].bit_length() > MAX_POWER_BITS:
                value, rhs = self.expand(value), self.expand(rhs)
                (na, da), (nb, db) = _bits(value[1]), _bits(rhs[1])
                if na + nb > MAX_POWER_BITS or da + db > MAX_POWER_BITS:
                    raise ParseError("product of more than %d digits" % MAX_DIGITS, pos)
            value = self.product(value, rhs, pos)
        return value

    def product(self, a, b, pos):
        """a * b, refused when it could exceed MAX_TERMS or MAX_EXPONENT.
        Monomials multiply by adding keys; next to a series, a monomial is
        expanded into one first."""
        if isinstance(a[1], FiberSeries) or isinstance(b[1], FiberSeries):
            a, b = self.expand(a), self.expand(b)
            if len(a[1]) * len(b[1]) > MAX_TERMS:
                raise ParseError("product of more than %d terms" % MAX_TERMS, pos)
        if a[3] + b[3] > MAX_EXPONENT:
            raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
        return a[0] + b[0], a[1] * b[1], a[2] * b[2], a[3] + b[3]

    def reciprocal(self):
        """1/d for the divisor d after a '/': a factor written with numbers,
        '-' and '^' alone, so an integer, and nonzero."""
        first = self.i
        kind, val, pos = self.tokens[first]
        if kind != "num" and val != "-":
            raise ParseError("expected an integer denominator", pos)
        num = self.factor()[1]
        # one token is a number; a longer factor is scanned
        if self.i > first + 1 and any(k == "var" or v == "("
                                      for k, v, _ in self.tokens[first:self.i]):
            raise ParseError("expected an integer denominator", pos)
        if num == 0:
            raise ParseError("zero denominator", pos)
        return 0, -1 if num < 0 else 1, abs(num), 0

    def expand(self, value):
        key, num, den, deg = value
        if isinstance(num, FiberSeries):
            return value
        return 0, FiberSeries.from_keys(self.chart, [(key, num)], den, deg), 1, deg

    def factor(self):
        value = self.atom()
        while self.tokens[self.i][1] == "^":
            self.i += 1
            kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("expected an integer exponent", pos)
            n = int(val) if len(val) <= MAX_DIGITS else MAX_EXPONENT + 1
            if n > MAX_EXPONENT:
                raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
            # the powers of a variable are bounded by MAX_EXPONENT alone
            if (value[1] != 1 or value[2] != 1) and \
                    n * max(_bits(self.expand(value)[1])) > MAX_POWER_BITS:
                raise ParseError("power of more than %d digits" % MAX_DIGITS,
                                 self.tokens[self.i - 2][2])
            if isinstance(value[1], FiberSeries):
                base, value = value, (value if n else (0, 1, 1, 0))
                for _ in range(n - 1):
                    value = self.product(value, base, pos)
            elif value[3] * n > MAX_EXPONENT:
                raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
            else:
                value = value[0] * n, value[1] ** n, value[2] ** n, value[3] * n
        return value

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return 0, _number(val, pos), 1, 0
        if kind == "var":
            base = val[1] == "i"
            digits = val[2 if base else 1:]
            k = int(digits) - 1 if len(digits) <= MAX_DIGITS else -1
            if not 0 <= k < (self.chart.base_dim if base else self.chart.fiber_dim):
                raise ParseError("unknown variable %r" % val, pos)
            return self.units[k if base else self.chart.base_dim + k], 1, 1, 1
        if val in ("-", "("):
            return self.nested(val, pos)
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError("unexpected token %r" % val, pos)

    def nested(self, op, pos):
        """A negated factor (its powers taken first) or a parenthesised
        expression, one level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested deeper than %d levels" % MAX_NESTING, pos)
        self.depth += 1
        if op == "-":
            key, num, den, deg = self.factor()
            value = key, -num, den, deg
        else:
            series, deg = self.expr()
            value = 0, series, 1, deg
            kind, val, pos = self.next()
            if val != ")":
                raise ParseError("expected %r" % ")", pos)
        self.depth -= 1
        return value


def parse_series(text, chart, memo=None):
    """Parse an expression into a :class:`FiberSeries` at the chart order.  ``memo`` maps
    each whole term of a flat sum to its reading on ``chart``: pass one dict for the texts
    of one chart."""
    memo = {} if memo is None else memo
    if "(" not in text and (series := _flat(text, chart, memo)) is not None:
        return series
    return _Parser(text, chart).parse()
