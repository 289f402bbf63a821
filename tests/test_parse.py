import math
import random
import re
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fiberpoisson import ChartSpec, FiberSeries, parse_series, ParseError, series
from fiberpoisson.parse import (MAX_DIGITS, MAX_NESTING, MAX_EXPONENT, MAX_POWER_BITS, MAX_TERMS,
                                _bits)
from oracle import reference_parse


def chart(b=2, r=2, n=3):
    return ChartSpec(b, r, n)


def test_literal_terms():
    s = parse_series("3/2*xi1^2*x2 - x1", chart())
    assert len(s.terms) == 2
    assert s.terms[(2, 0, 0, 1)] == Fraction(3, 2)
    assert s.terms[(0, 0, 1, 0)] == Fraction(-1)
    assert s.valid_order == 3


def test_zero():
    s = parse_series("0", chart())
    assert s.terms == {}


def test_over_order_literal_flagged():
    s = parse_series("x1*x1*x1*x1", ChartSpec(2, 1, 3))
    assert s.is_zero()


def test_parentheses_and_powers():
    s = parse_series("(1 + x1)^2 * (xi2 - 1)", chart())
    t = parse_series("xi2 + 2*x1*xi2 + x1^2*xi2 - 1 - 2*x1 - x1^2", chart())
    assert s.terms == t.terms


def test_unary_minus():
    s = parse_series("-x1 + -2", chart())
    assert s.terms[(0, 0, 1, 0)] == -1
    assert s.terms[(0, 0, 0, 0)] == -2


def test_long_sum_equals_sum_of_parsed_terms():
    ch = chart(n=4)
    r = random.Random(5)
    names = ["xi1", "xi2", "x1", "x2"]

    def monomial():
        factors = ["%d/%d" % (r.randint(1, 9), r.randint(1, 4))]
        for _ in range(r.randint(0, 3)):
            factors.append("%s^%d" % (r.choice(names), r.randint(1, 2)))
        return "*".join(factors)

    terms = []
    for _ in range(300):
        k = r.random()
        if k < 0.2:
            text = "(%s - %s)*(%s + %s)" % (monomial(), monomial(), monomial(), monomial())
        elif k < 0.3:
            text = "(%s + %s)^2" % (monomial(), monomial())
        else:
            text = monomial()
        terms.append(("-" if r.random() < 0.5 else "+", text))
        if r.random() < 0.3:   # the same term again, cancelling or doubling it
            terms.append((r.choice("+-"), text))
    whole = parse_series(" ".join("%s %s" % t for t in terms), ch)
    total = parse_series("0", ch)
    for sign, text in terms:
        part = parse_series(text, ch)
        total = total - part if sign == "-" else total + part
    assert whole == total
    assert len(whole.terms) > 100


def test_rationals_exact():
    s = parse_series("1/3 + 1/6", chart())
    assert s.constant_term() == Fraction(1, 2)


def test_whitespace_insignificant():
    a = parse_series(" 2 * xi1 ^ 2 ", chart())
    b = parse_series("2*xi1^2", chart())
    assert a.terms == b.terms


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_series("x3", ChartSpec(2, 2, 3))
    with pytest.raises(ParseError):
        parse_series("xi5", ChartSpec(2, 2, 3))


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_series("1 + $", chart())
    assert err.value.pos == 4


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_series("1 1", chart())


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_series("1/0", chart())


@pytest.mark.parametrize("text, message, pos", [
    ("x1^10^11", "exponent above 100", 6),
    ("x1^60*x1^60", "exponent above 100", 5),
    ("(x1)^60*x1^60", "exponent above 100", 7),
    ("x1*", "unexpected end of input", 3),
    ("2 3", "unexpected trailing input '3'", 2),
    ("1/0", "zero denominator", 2),
    ("1/x1", "expected an integer denominator", 2),
    ("x1^x2", "expected an integer exponent", 3),
    ("x9", "unknown variable 'x9'", 0),
    ("xi3", "unknown variable 'xi3'", 0),
    ("x1 +  @", "unexpected character '@'", 6),
])
def test_term_error_message_and_position(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_series(text, chart())
    assert str(err.value) == "%s (at position %d)" % (message, pos)
    assert err.value.pos == pos


@pytest.mark.parametrize("text, message, pos", [
    ("9" * 5000, "number longer than %d digits" % MAX_DIGITS, 0),
    ("x1 + 1/" + "7" * 5000, "number longer than %d digits" % MAX_DIGITS, 7),
    ("x1^" + "1" * 5000, "exponent above %d" % MAX_EXPONENT, 3),
    ("(x1)^" + "0" * 5000, "exponent above %d" % MAX_EXPONENT, 5),
    ("2 - x" + "1" * 5000, "unknown variable %r" % ("x" + "1" * 5000), 4),
], ids=["number", "denominator", "exponent", "nested-exponent", "variable"])
def test_long_digit_run_is_a_parse_error(text, message, pos):
    # int() of such a run raises a bare ValueError past int_max_str_digits
    with pytest.raises(ParseError) as err:
        parse_series(text, chart())
    assert str(err.value) == "%s (at position %d)" % (message, pos)


def test_digit_runs_up_to_the_bound_are_read():
    run = "0" * (MAX_DIGITS - 1)
    got = parse_series("x%s2^%s3 + 1/%s2" % (run, run, run), chart())
    assert got == parse_series("x2^3 + 1/2", chart())


def test_missing_paren():
    with pytest.raises(ParseError):
        parse_series("(1 + x1", chart())


@pytest.mark.parametrize("text", ["x1^0", "(1 + x1)^0", "2^0", "0^0", "xi2^0",
                                  "(x1 - xi1)^2^0"])
def test_zero_exponent_gives_one(text):
    s = parse_series(text, chart())
    assert s.render() == "1"
    assert s.terms == {(0, 0, 0, 0): Fraction(1)}


def test_zero_exponent_inside_an_expression():
    got = parse_series("3*x1^0*xi1 - (2 + x2)^0 + 0^0*x2", chart())
    assert got.terms == parse_series("3*xi1 - 1 + x2", chart()).terms


@pytest.mark.parametrize("text", ["(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_parse_error(text):
    # a recursion error here would escape as a traceback instead of exit 2
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_series(text, chart())


def test_moderate_nesting_parses():
    depth = MAX_NESTING // 2
    text = "(" * depth + "-" * (depth - 1) + "x1" + ")" * depth + " + 1"
    assert parse_series(text, chart()).terms == parse_series("1 - x1", chart()).terms


def test_nesting_bound_is_exact():
    ok = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse_series(ok, chart()).render() == "x1"
    with pytest.raises(ParseError, match="at position %d" % MAX_NESTING):
        parse_series("(" + ok + ")", chart())


def test_exponent_bound_is_exact():
    assert parse_series("xi1^%d" % MAX_EXPONENT, chart()).terms == {
        (MAX_EXPONENT, 0, 0, 0): Fraction(1)}
    with pytest.raises(ParseError, match="exponent above %d" % MAX_EXPONENT):
        parse_series("xi1^%d" % (MAX_EXPONENT + 1), chart())
    # the bound holds for exponents a product builds up, and for numbers
    half = MAX_EXPONENT // 2
    assert parse_series("xi1^%d*xi1^%d" % (half, MAX_EXPONENT - half), chart())
    for text in ["xi1^%d*xi1^%d" % (half, MAX_EXPONENT - half + 1),
                 "(xi1^%d)^2*xi2" % (half + 1), "2^%d" % (MAX_EXPONENT + 1)]:
        with pytest.raises(ParseError, match="exponent above"):
            parse_series(text, chart())


def test_product_term_bound_is_exact():
    # the bound counts the terms a product's operands keep at the chart order
    ch = chart()
    monomials = ["xi1^%d*xi2^%d*x1^%d*x2^%d" % e
                 for e in product(range(5), range(5), range(4), range(4))
                 if e[2] + e[3] <= ch.trunc_order]
    k = math.isqrt(MAX_TERMS)
    a = "(" + " + ".join(monomials[:k]) + ")"
    b = "(" + " + ".join(monomials[-k:]) + ")"
    assert parse_series("%s*%s" % (a, b), ch)
    b_more = "(" + " + ".join(monomials[-k - 1:]) + ")"
    with pytest.raises(ParseError, match="product of more than %d terms" % MAX_TERMS):
        parse_series("%s*%s" % (a, b_more), ch)
    # terms above the order drop before the count: k + 40 written, k kept
    a_high = "(" + " + ".join(monomials[:k] + ["x1^%d*xi1^%d" % (ch.trunc_order + 1, e)
                                               for e in range(40)]) + ")"
    assert parse_series("%s*%s" % (a_high, b), ch) == parse_series("%s*%s" % (a, b), ch)


@pytest.mark.parametrize("text, rendered", [
    ("x1^5 - x1^5", "0"),
    ("x1^2*x1^3", "0"),
    ("(1 + x1)^5 - x1^5", "1 + 5*x1 + 10*x1^2 + 10*x1^3 + 5*x1^4"),
], ids=["cancelling", "product", "expansion"])
def test_terms_above_the_order_drop_in_exact_expansion(text, rendered):
    # a term above the chart order is dropped where it arises: no term at
    # or below the order changes
    s = parse_series(text, ChartSpec(2, 1, 4))
    assert s.render() == rendered


# -- differential test against the reference parse through the ring ---------

CHARTS = [ChartSpec(2, 2, 3), ChartSpec(2, 2, 1), ChartSpec(2, 2, 0), ChartSpec(4, 2, 4)]
NAMES = ["xi1", "xi2", "x1", "x2"]


@st.composite
def _powers(draw, base):
    exps = draw(st.lists(st.integers(0, 4), max_size=2))
    return base + "".join(draw(st.sampled_from(["^", " ^", "^ "])) + str(e) for e in exps)


_numbers = st.one_of(st.integers(0, 12).map(str),
                     st.tuples(st.integers(0, 9), st.integers(1, 8)).map("%d/%d".__mod__))


def _factor(expr):
    simple = st.one_of(_numbers, st.sampled_from(NAMES))
    nested = st.one_of(expr.map("(%s)".__mod__), simple.map("-%s".__mod__))
    return st.one_of(simple, simple, nested).flatmap(_powers)


def _term(expr):
    # one join in four is a '/', whose divisor must be a number
    joined = st.tuples(st.sampled_from("***/"), _factor(expr)).map("".join)
    return st.tuples(_factor(expr), st.lists(joined, max_size=3)).map(
        lambda p: p[0] + "".join(p[1]))


def _expr(term):
    signed = st.tuples(st.sampled_from([" + ", " - ", "+", "-"]), term).map("".join)
    return st.tuples(st.sampled_from(["", "-", "+"]), term, st.lists(signed, max_size=4)).map(
        lambda p: p[0] + p[1] + "".join(p[2]))


# parenthesis-free expressions first, then mixed ones nested at most twice
_flat = _expr(_term(st.nothing()))
_mixed = _expr(_term(_expr(_term(_expr(_term(st.nothing()))))))


@st.composite
def expressions(draw):
    text = draw(st.one_of(_flat, _mixed))
    if draw(st.booleans()):
        # a term above every chart order that cancels
        high = draw(st.sampled_from(["x1^5*xi2", "3/2*x1^2*x2^3", "(1 + x1)^5", "-x2^6"]))
        text = "%s + %s - %s" % (text, high, high) if draw(st.booleans()) else \
            "%s - %s + %s" % (high, text, high)
    return text


def _outcome(parse, text, ch):
    try:
        s = parse(text, ch)
    except ParseError as err:
        return str(err), err.pos
    return s


_settings = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_settings
@given(expressions(), st.sampled_from(CHARTS))
def test_parse_agrees_with_the_ring_reference(text, ch):
    got = _outcome(parse_series, text, ch)
    assert got == _outcome(reference_parse, text, ch), text


@_settings
@given(expressions(), st.sampled_from(CHARTS), st.data())
def test_one_edit_gives_the_reference_outcome(text, ch, data):
    # an edit mostly makes the text malformed: the same message and position
    # as the reference, and where it does not, the same series
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from("0123456789xi+-*/^() @"))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    tail = text[at:] if edit == "insert" else text[at + 1:]
    edited = text[:at] + ("" if edit == "delete" else char) + tail
    assert _outcome(parse_series, edited, ch) == _outcome(reference_parse, edited, ch), edited


def _sympy_reading(text, ch):
    """The terms of ``text`` read by sympy with '^' as '**', truncated to the
    chart order.  The grammar's powers associate to the left and their
    exponents are integers, so a chain base^a^b is written base**(a*b)."""
    sympy = pytest.importorskip("sympy")
    py = re.sub(r"(\^\s*\d+\s*)+", lambda m: "**(%s)" % "*".join(re.findall(r"\d+", m[0])),
                text)
    py = re.sub(r"(xi|x)(\d+)", lambda m: "%s%d" % (m[1], int(m[2])), py)
    names = ["xi%d" % (i + 1) for i in range(ch.base_dim)] + \
        ["x%d" % (i + 1) for i in range(ch.fiber_dim)]
    xs = sympy.symbols(names)
    poly = sympy.Poly(sympy.expand(sympy.sympify(py, locals=dict(zip(names, xs)))), *xs)
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()
            if c != 0 and sum(m[ch.base_dim:]) <= ch.trunc_order}


@pytest.mark.parametrize("text", ["1/2^3", "0^0", "x1^2^3", "-x1^2", "1 + -x1^2", "2*-x1^2",
                                  "- -x1", "x01*xi02", "(x1)^3^0*x2", "0*x1^60*x1^40",
                                  "x1^10^10", "x1^10^10*2", "x1^50*(x2)^50", "x1^50*x2^51",
                                  "-(x1 - 2)^2*-xi1^3", "9^100^100^100", "(1 + x1 + xi1)^12",
                                  "2/4^2", "1/2^3*x1", "x1/2", "1/-2^2"])
def test_agrees_with_the_ring_reference_on_corner_cases(text):
    # and with sympy's reading wherever the text parses
    for ch in CHARTS:
        got = _outcome(parse_series, text, ch)
        assert got == _outcome(reference_parse, text, ch)
        if not isinstance(got, tuple):
            assert got.terms == _sympy_reading(text, ch), (text, ch)


def test_power_of_five_variables_agrees_with_the_ring_reference():
    text, ch = "(1 + x1 + x2 + xi1 + xi2)^12", ChartSpec(2, 2, 3)
    assert parse_series(text, ch) == reference_parse(text, ch)


@pytest.mark.parametrize("text, rendered", [
    ("1 + -x1^2", "1 - x1^2"), ("2*-x1^2", "-2*x1^2"), ("-x1^2", "-x1^2"),
    ("(-x1)^2", "x1^2"), ("x2*-(1 + x1)^2", "-x2 - 2*x1*x2 - x1^2*x2"), ("- -x1^3", "x1^3"),
])
def test_unary_minus_binds_looser_than_a_power(text, rendered):
    assert parse_series(text, ChartSpec(2, 2, 3)).render() == rendered


@pytest.mark.parametrize("text, rendered", [
    ("2/4^2", "1/8"), ("2/4/2", "1/4"), ("3/2^0", "3"), ("1/-2^2", "-1/4"), ("1/--2", "1/2"),
    ("1/-1/2", "-1/2"), ("x1/2", "1/2*x1"), ("x1^2/3*x2", "1/3*x1^2*x2"),
    ("(1 + x1)/2", "1/2 + 1/2*x1"),
])
def test_a_divisor_takes_its_powers_first(text, rendered):
    assert parse_series(text, ChartSpec(2, 2, 3)).render() == rendered


@pytest.mark.parametrize("text, message, pos", [
    ("1/(2)", "expected an integer denominator", 2),
    ("1/-(2)", "expected an integer denominator", 2),
    ("1/-x1^0", "expected an integer denominator", 2),
    ("x1/", "expected an integer denominator", 3),
    ("1/0^2", "zero denominator", 2),
    ("1/-0", "zero denominator", 2),
    ("1/2^101", "exponent above 100", 4),
])
def test_a_divisor_is_a_nonzero_integer_factor(text, message, pos):
    for parse in (parse_series, reference_parse):
        assert _outcome(parse, text, chart()) == ("%s (at position %d)" % (message, pos), pos)


def _refused_with_work(text, monkeypatch):
    """The ParseError of parsing ``text``, the number of series products
    formed before it, and the bit length of the largest number in any
    series formed: the parser expands every number it measures into one."""
    largest, products = [0], [0]
    real_from_keys, real_dot = FiberSeries.from_keys.__func__, series.dot

    def measured(s):
        largest[0] = max(largest[0], *_bits(s))
        return s

    def dot(*args, **kwargs):
        products[0] += 1
        return measured(real_dot(*args, **kwargs))
    monkeypatch.setattr(FiberSeries, "from_keys",
                        classmethod(lambda cls, *args: measured(real_from_keys(cls, *args))))
    monkeypatch.setattr(series, "dot", dot)
    with pytest.raises(ParseError) as err:
        parse_series(text, chart())
    return err.value, products[0], largest[0]


@pytest.mark.parametrize("text, pos", [("9^100^100^100", 5), ("(9^100)^100^100", 7),
                                       ("x1 + (1/3 + x2)^100^100", 19)])
def test_power_of_too_many_digits_is_refused_before_the_work(text, pos, monkeypatch):
    # of the powers, only (1/3 + x2)^100 is formed, in 99 products
    err, formed, largest = _refused_with_work(text, monkeypatch)
    assert formed == (99 if "x2" in text else 0)
    assert largest <= MAX_POWER_BITS
    assert str(err) == "power of more than %d digits (at position %d)" % (MAX_DIGITS, pos)


def test_power_digit_bound_is_exact():
    # 2^142 has MAX_POWER_BITS // 100 + 1 bits: its 99th power is read, its
    # 100th refused; small bases keep every exponent up to MAX_EXPONENT
    assert (2 ** 142).bit_length() * 99 <= MAX_POWER_BITS < (2 ** 142).bit_length() * 100
    got = parse_series("(2^71*2^71)^99", chart())
    assert got.terms == {(0, 0, 0, 0): Fraction(2 ** (142 * 99))}
    with pytest.raises(ParseError, match="power of more than"):
        parse_series("(2^71*2^71)^100", chart())
    assert parse_series("2^100", chart()).terms == {(0, 0, 0, 0): Fraction(2 ** 100)}
    assert parse_series("x1^100", ChartSpec(2, 2, 100)).render() == "x1^100"


@pytest.mark.parametrize("text, pos", [("*".join(["(9^100)^45"] * 300), 10),
                                       ("*".join(["9^100"] * 300), 45 * 6 - 1)])
def test_product_of_too_many_digits_is_refused_before_the_work(text, pos, monkeypatch):
    # the powers (9^100)^45 on either side of the refused '*' take 44 products
    # each, the plain numbers none; the refused product is never formed
    err, formed, largest = _refused_with_work(text, monkeypatch)
    assert formed == (2 * 44 if "(" in text else 0)
    assert largest <= MAX_POWER_BITS
    assert str(err) == "product of more than %d digits (at position %d)" % (MAX_DIGITS, pos)
    monkeypatch.undo()
    assert _outcome(reference_parse, text, chart()) == (str(err), pos)
    assert parse_series("9^100*9^100", chart()).terms == {(0, 0, 0, 0): Fraction(9 ** 200)}


def test_product_digit_bound_is_exact():
    # the bit lengths of the factors' numbers add: 7143 + 7142 bits are read,
    # one bit more is refused, at the '*'
    assert (2 ** 7142).bit_length() + (2 ** 7141).bit_length() == MAX_POWER_BITS
    got = parse_series("%d*%d" % (2 ** 7142, 2 ** 7141), chart())
    assert got.terms == {(0, 0, 0, 0): Fraction(2 ** 14283)}
    text = "x1*%d/3*%d" % (2 ** 7142, 2 ** 7142)
    with pytest.raises(ParseError, match="product of more than") as err:
        parse_series(text, chart())
    assert err.value.pos == text.rindex("*")
    assert _outcome(reference_parse, text, chart()) == (str(err.value), err.value.pos)
    # denominators add the same way, apart from numerators
    assert parse_series("1/%d*3/%d" % (2 ** 7142, 2 ** 7141), chart())
    with pytest.raises(ParseError, match="product of more than"):
        parse_series("1/%d*3/%d" % (2 ** 7142, 2 ** 7142), chart())
    # a factor counts the bits it keeps at the chart order: none for 0 or a
    # monomial above the order
    big = "9" * MAX_DIGITS
    assert len(bin(int(big))) - 2 == MAX_POWER_BITS
    for text in ["x1^4*" + big, "0*" + big, "x1*" + big, "(1 + x1^4)*" + big]:
        for ch in CHARTS:
            assert _outcome(parse_series, text, ch) == _outcome(reference_parse, text, ch)
    assert parse_series("x1^4*" + big, chart()).is_zero()


def test_product_digit_bound_reads_numbers_in_lowest_terms():
    # 2^100 and (1/2)^100 cancel in every pair, so no product grows
    text = "*".join(["2^100", "1/2^100"] * 200)
    assert parse_series(text, chart()).render() == "1"
    assert parse_series(text, chart()) == reference_parse(text, chart())
    text = "*".join(["%d/%d" % (2 ** 7000, 2 ** 6999)] * 3)
    assert parse_series(text, chart()).render() == "8"


# -- whole terms in text the grammar reader takes --------------------------------
# Text with a '(', or with a piece that is no whole term, goes to the grammar
# reader.  There a whole term (one piece of the flat split, ``p/q*xi1*x2^3``) is
# read by the fine tokens wherever it stands and at every bound; each case below
# checks that reading against the ring reference on the same input.

@pytest.mark.parametrize("text", [
    "1/2/3", "(x1 + 1)^2*x1", "2/-3*x1", "2/4^2*x1", "x1/2", "2*-x1*x2^2", "x1^(2)",
    "-x1^2 + 1/2*xi1*x2^3", "2/3*x1*x1^101"])
def test_a_whole_term_token_begins_only_where_a_term_begins(text):
    # read as one token anywhere else, the tail of each of these would parse
    # differently or raise a different error
    for ch in CHARTS:
        assert _outcome(parse_series, text, ch) == _outcome(reference_parse, text, ch), text


@st.composite
def _whole_terms(draw):
    """A term that is one token where a term begins: a number, then
    '*'-joined powers of variables."""
    powers = draw(st.lists(st.tuples(st.sampled_from(NAMES),
                                     st.sampled_from(["", "^0", "^1", "^2", "^3"])).map("".join),
                           max_size=3))
    number = draw(st.one_of(_numbers, st.just(""))) if powers else draw(_numbers)
    return "*".join(([number] if number else []) + powers)


# at a term start, each at or past one bound: degree, variable, divisor, digits
_EDGES = ["x1^100", "x1^101", "x1^50*x2^51", "xi9", "1/0*x1", "1" * (MAX_DIGITS + 1) + "*x1"]


@pytest.mark.parametrize("context", ["%s", "-%s", "x2 - %s + 1", "(1 - %s)*x2", "xi1*(%s)^0"])
@pytest.mark.parametrize("edge", _EDGES)
def test_a_whole_term_at_a_bound_reads_as_its_fine_tokens(edge, context):
    text = context % edge
    for ch in CHARTS:
        assert _outcome(parse_series, text, ch) == _outcome(reference_parse, text, ch), text


# fine-token terms: parenthesised factors (whose terms are whole-term tokens
# again), '*-', chained '^' and '/' after a term
_fine_terms = _term(_expr(st.one_of(_whole_terms(), _term(st.nothing()))))


@st.composite
def _whole_and_fine_terms(draw):
    terms = draw(st.lists(st.one_of(_whole_terms(), _fine_terms), min_size=1, max_size=6))
    if draw(st.booleans()):
        terms.insert(draw(st.integers(0, len(terms))), draw(st.sampled_from(_EDGES)))
    signs = [draw(st.sampled_from(["", "-", "+"]))] + \
        draw(st.lists(st.sampled_from([" + ", " - ", "+", "-"]),
                      min_size=len(terms) - 1, max_size=len(terms) - 1))
    return "".join(sign + term for sign, term in zip(signs, terms))


@_settings
@given(_whole_and_fine_terms(), st.sampled_from(CHARTS))
def test_whole_and_fine_term_tokens_agree_with_the_ring_reference(text, ch):
    assert _outcome(parse_series, text, ch) == _outcome(reference_parse, text, ch), text


# -- a flat sum of whole terms, read in one split --------------------------------

_SPACES = ["", " ", "  ", "\t", "\n", " \n ", "\u00a0", "\u2003"]
# a whole term, or now and then one at or past a bound
_flat_terms = st.one_of(_whole_terms(), _whole_terms(), _whole_terms(), st.sampled_from(_EDGES))


@st.composite
def _flat_sums(draw):
    def space():
        return draw(st.sampled_from(_SPACES))
    terms = draw(st.lists(_flat_terms, min_size=1, max_size=6))
    text = space() + draw(st.sampled_from(["", "+", "-"])) + space() + terms[0]
    for term in terms[1:]:
        text += space() + draw(st.sampled_from("+-")) + space() + term
    return text + space()


def _agree_with_the_reference(texts, ch):
    """Each text's outcome, read with a fresh memo and with one memo shared
    across ``texts``, is the reference's."""
    shared = {}
    for text in texts:
        want = _outcome(reference_parse, text, ch)
        for memo in ({}, shared):
            assert _outcome(lambda t, c: parse_series(t, c, memo), text, ch) == want, text


@_settings
@given(st.lists(_flat_sums(), min_size=1, max_size=4), st.sampled_from(CHARTS))
def test_a_flat_sum_gives_the_reference_outcome(texts, ch):
    _agree_with_the_reference(texts, ch)


def test_a_sum_refused_at_its_last_piece_gives_the_reference_outcome():
    # every piece but the last is a whole term; the last is none, or one that
    # may break a bound, so the token reader reads the text and gives the error
    texts = ["x1 +", "x1 ++ x2", "x1 - 1/0", "x1 + x01", "x1 + xi9", "x1 + x2^101",
             "x1 - " + "7" * MAX_DIGITS, "x1 - " + "7" * (MAX_DIGITS + 1),
             "x1 + " + "7" * (MAX_DIGITS - 3) + "*x2", "x1 - 2 * x2", "x1 - 2x2"]
    for ch in CHARTS:
        _agree_with_the_reference(texts, ch)
        _agree_with_the_reference(texts[::-1], ch)
