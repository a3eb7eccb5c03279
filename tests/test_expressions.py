"""Operator-expression grammar: parsing, precedence, errors, round-trip."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncmetro import (
    DegreeOverflowError,
    ExpressionError,
    LadderPolynomial,
    annihilation_op,
    classify_pair,
    commutator,
    creation_op,
    format_polynomial,
    identity_op,
    momentum_op,
    normal_order_product,
    parse_operator,
    position_op,
)
from helpers import reference_format_polynomial, tower_pool_pairs


def test_quadrature_difference():
    x, p = position_op(), momentum_op()
    expected = normal_order_product(x, x) - normal_order_product(p, p)
    assert parse_operator("X^2 - P^2").allclose(expected, 1e-12)


def test_ladder_squares():
    ad, a = creation_op(), annihilation_op()
    expected = normal_order_product(ad, ad) + normal_order_product(a, a)
    assert parse_operator("ad^2 + a^2").allclose(expected, 1e-12)


def test_scalar_and_imaginary_factors():
    assert parse_operator("2*i*X").allclose(2j * position_op(), 1e-12)
    assert parse_operator("-0.5*P").allclose(-0.5 * momentum_op(), 1e-12)
    assert parse_operator("1e-2*a").allclose(0.01 * annihilation_op(), 1e-12)


def test_products_are_order_sensitive():
    xp = parse_operator("X*P")
    px = parse_operator("P*X")
    assert not xp.allclose(px, 1e-12)
    assert (xp - px).allclose(commutator(position_op(), momentum_op()), 1e-12)


def test_parentheses_and_powers():
    assert parse_operator("(ad + a)^2").allclose(
        2.0 * normal_order_product(position_op(), position_op()), 1e-12
    )
    assert parse_operator("X^0") == identity_op()


def test_unary_signs():
    assert parse_operator("--X").allclose(position_op(), 1e-12)
    assert parse_operator("-(X - P)").allclose(
        momentum_op() - position_op(), 1e-12
    )


@pytest.mark.parametrize(
    "text, position",
    [
        ("X^2 +", 5),
        ("Q", 0),
        ("X * * P", 4),
        ("(X", 2),
        ("X^1.5", 2),
        ("X P", 2),
    ],
)
def test_errors_report_position(text, position):
    with pytest.raises(ExpressionError) as excinfo:
        parse_operator(text)
    assert excinfo.value.position == position


def test_format_spec_operators():
    text = format_polynomial(parse_operator("X^2 - P^2"))
    assert parse_operator(text).allclose(parse_operator("X^2 - P^2"), 1e-12)
    assert format_polynomial(LadderPolynomial()) == "0"


def test_chop_applies_to_the_final_coefficient():
    # each part is at the chop tolerance, the modulus is above it
    assert parse_operator("(1e-12 + 1e-12*i)*ad") == LadderPolynomial(
        {(1, 0): 1e-12 + 1e-12j}
    )


@st.composite
def random_polynomials(draw):
    n_terms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n_terms):
        key = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        re = draw(st.floats(-10, 10, allow_nan=False))
        im = draw(st.floats(-10, 10, allow_nan=False))
        terms[key] = complex(re, im)
    return LadderPolynomial(terms)


@settings(max_examples=80, deadline=None)
@given(random_polynomials())
def test_format_parse_round_trip(poly):
    assert parse_operator(format_polynomial(poly)).allclose(poly, 1e-12)


#: Parts the template cases turn on: signed zeros, subnormals, and
#: magnitudes whose repr switches to exponent notation (|c| >= 1e16).
_EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-300, 1e16, -1e16,
               1.2345678901234567e16, -9.999999999999999e22, 1e300, -1e300, 1.5, -1.5]


@st.composite
def formatter_polynomials(draw):
    part = st.one_of(st.sampled_from(_EDGE_PARTS),
                     st.floats(-1e300, 1e300, allow_nan=False))
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        # exponents beyond MAX_DEGREE (64): a polynomial can hold them
        key = (draw(st.integers(0, 80)), draw(st.integers(0, 80)))
        terms[key] = complex(draw(part), draw(part))
    return LadderPolynomial(terms)


@settings(max_examples=300, deadline=None)
@given(formatter_polynomials())
@example(LadderPolynomial({(0, 0): complex(-1.5, -0.0), (64, 1): complex(-0.0, -2.0),
                           (1, 0): complex(1e16, -5e-324), (100, 3): complex(-0.0, 1e-3),
                           (3, 100): 1j, (300, 2): -2.0}))
def test_format_matches_the_per_term_reference(poly):
    assert format_polynomial(poly) == reference_format_polynomial(poly)


def test_format_matches_the_reference_on_the_tower_pool():
    checked = 0
    for g, h in tower_pool_pairs():
        try:
            report = classify_pair(parse_operator(g), parse_operator(h))
        except DegreeOverflowError:  # X^6 | P and X^4 | P^3: no tower to print
            continue
        for level in report.tower:
            assert format_polynomial(level) == reference_format_polynomial(level)
            checked += len(level.terms)
    assert checked > 8000  # the two capped cubic towers alone hold 8469 terms
