"""Small text grammar for operator literals.

Grammar (whitespace ignored, case sensitive)::

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := ('-' | '+')* power
    power   := atom ('^' INTEGER)*
    atom    := 'a' | 'ad' | 'X' | 'P' | 'i' | NUMBER | '(' expr ')'

``a`` and ``ad`` are the annihilation and creation operators, ``X`` and ``P``
the quadratures, ``i`` the imaginary unit.  Multiplication is explicit and
noncommutative: ``X*P`` and ``P*X`` differ by the canonical commutator.
Numbers are unsigned decimal literals (``2``, ``0.5``, ``1e-3``); signs come
from the unary rule.  Parse errors report the character position.
"""

from __future__ import annotations

import re

from .errors import ExpressionError
from .ladder import (
    DEFAULT_MAX_DEGREE,
    LadderPolynomial,
    annihilation_op,
    creation_op,
    identity_op,
    momentum_op,
    normal_order_product,
    position_op,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>ad|a|X|P|i)"
    r"|(?P<op>[-+*^()]))"
)

_OPERATORS = {
    "a": annihilation_op,
    "ad": creation_op,
    "X": position_op,
    "P": momentum_op,
}

# Numeric sub-expressions stay plain ``complex`` scalars until they meet an
# operator, so the chop applies once, to the final coefficient
# (``1e-12 + 1e-12*i`` survives although each part alone is below the chop).
def _operator(value: complex | LadderPolynomial) -> LadderPolynomial:
    return identity_op(value) if isinstance(value, complex) else value


def _product(a, b, max_degree: int) -> complex | LadderPolynomial:
    if isinstance(a, complex) and isinstance(b, complex):
        return 0j + a * b  # no negative zeros, as in normal_order_product
    return normal_order_product(_operator(a), _operator(b), max_degree)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {text[bad_pos]!r}", bad_pos)
        if match.lastgroup == "number":
            tokens.append(("number", match.group("number"), match.start("number")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, max_degree: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.max_degree = max_degree

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ExpressionError(f"expected {symbol!r}", pos)
        self.advance()

    def parse(self) -> LadderPolynomial:
        result = _operator(self.expr())
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {value!r}", pos)
        return result

    def expr(self) -> complex | LadderPolynomial:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                if not (isinstance(result, complex) and isinstance(rhs, complex)):
                    result, rhs = _operator(result), _operator(rhs)
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> complex | LadderPolynomial:
        result = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = _product(result, self.unary(), self.max_degree)
            else:
                return result

    def unary(self) -> complex | LadderPolynomial:
        sign = 1.0
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                if value == "-":
                    sign = -sign
            else:
                break
        result = self.power()
        return result if sign > 0 else -result

    def power(self) -> complex | LadderPolynomial:
        base = self.atom()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                ekind, evalue, epos = self.peek()
                if ekind != "number" or not evalue.isdigit():
                    raise ExpressionError("exponent must be a non-negative integer", epos)
                self.advance()
                exponent = int(evalue)
                out = 1 + 0j
                for _ in range(exponent):
                    out = _product(out, base, self.max_degree)
                base = out
            else:
                return base

    def atom(self) -> complex | LadderPolynomial:
        kind, value, pos = self.advance()
        if kind == "number":
            return complex(float(value))
        if kind == "name":
            return 1j if value == "i" else _OPERATORS[value]()
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError(
            f"expected operand, found {value!r}" if value else "unexpected end of input",
            pos,
        )


def parse_operator(text: str, max_degree: int = DEFAULT_MAX_DEGREE) -> LadderPolynomial:
    """Parse an operator expression like ``"X^2 - P^2"`` or ``"ad^2 + a^2"``."""
    return _Parser(text, max_degree).parse()


def _format_coefficient(c: complex) -> str:
    if c.imag == 0.0:
        real = c.real
        return repr(real) if real >= 0 else f"(-{-real!r})"
    if c.real == 0.0:
        imag = c.imag
        return f"({imag!r}*i)" if imag >= 0 else f"(-{-imag!r}*i)"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real!r} {sign} {abs(c.imag)!r}*i)"


def format_polynomial(p: LadderPolynomial) -> str:
    """Render a polynomial in the same grammar :func:`parse_operator` accepts."""
    if p.is_zero():
        return "0"
    parts = []
    for (m, n) in sorted(p.terms, key=lambda k: (-(k[0] + k[1]), -k[0])):
        factors = [_format_coefficient(p.coefficient(m, n))]
        if m == 1:
            factors.append("ad")
        elif m > 1:
            factors.append(f"ad^{m}")
        if n == 1:
            factors.append("a")
        elif n > 1:
            factors.append(f"a^{n}")
        parts.append("*".join(factors))
    return " + ".join(parts)
