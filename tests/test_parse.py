import math
import random
from itertools import product
from fractions import Fraction

import pytest

from fiberpoisson import ChartSpec, parse_series, ParseError
from fiberpoisson.parse import MAX_NESTING, MAX_EXPONENT, MAX_TERMS


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
    assert not s.truncated


def test_over_order_literal_flagged():
    s = parse_series("x1*x1*x1*x1", ChartSpec(2, 1, 3))
    assert s.is_zero()
    assert s.truncated


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
    ch = chart()
    monomials = ["xi1^%d*xi2^%d*x1^%d*x2^%d" % e for e in product(range(4), repeat=4)]
    k = math.isqrt(MAX_TERMS)
    a = "(" + " + ".join(monomials[:k]) + ")"
    b = "(" + " + ".join(monomials[-k:]) + ")"
    assert parse_series("%s*%s" % (a, b), ch)
    b_more = "(" + " + ".join(monomials[-k - 1:]) + ")"
    with pytest.raises(ParseError, match="product of more than %d terms" % MAX_TERMS):
        parse_series("%s*%s" % (a, b_more), ch)


@pytest.mark.parametrize("text, rendered, truncated", [
    ("x1^5 - x1^5", "0", False),
    ("x1^2*x1^3", "0", True),
    ("(1 + x1)^5 - x1^5", "1 + 5*x1 + 10*x1^2 + 10*x1^3 + 5*x1^4", False),
])
def test_truncated_flag_after_exact_expansion(text, rendered, truncated):
    # an entry is expanded exactly before truncation: a term above the chart
    # order that cancels sets no flag, one that survives does
    s = parse_series(text, ChartSpec(2, 1, 4))
    assert s.render() == rendered
    assert s.truncated is truncated
