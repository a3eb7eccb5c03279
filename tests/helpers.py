"""Shared test helpers: naive reference implementations and random polynomials.

The reordering oracle knows nothing about the package's product formula: it
represents operator words as symbol strings and rewrites ``a ad -> ad a + 1``
until every word is normal-ordered.  Exponential, but plenty for the small
degrees used in tests.  The exact commutator knows nothing about it either:
it multiplies by one ladder operator at a time, in ``fractions.Fraction``
arithmetic, so it gives deep adjoint towers without rounding.  The
power-chain embedding knows nothing about the package's closed-form matrix
elements: it multiplies truncated ladder matrices.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ncmetro import LadderPolynomial


@lru_cache(maxsize=None)
def _normal_order_word(word: tuple[str, ...]) -> tuple[tuple[tuple[int, int], int], ...]:
    """Expand a word over {'ad', 'a'} into {(m, n): integer coefficient}."""
    for i in range(len(word) - 1):
        if word[i] == "a" and word[i + 1] == "ad":
            swapped = word[:i] + ("ad", "a") + word[i + 2 :]
            contracted = word[:i] + word[i + 2 :]
            out: dict[tuple[int, int], int] = {}
            for sub in (swapped, contracted):
                for key, coeff in _normal_order_word(sub):
                    out[key] = out.get(key, 0) + coeff
            return tuple(sorted(out.items()))
    return (((word.count("ad"), word.count("a")), 1),)


def naive_product(a: LadderPolynomial, b: LadderPolynomial) -> LadderPolynomial:
    """Product of two canonical polynomials via brute-force word rewriting."""
    out: dict[tuple[int, int], complex] = {}
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            word = ("ad",) * m1 + ("a",) * n1 + ("ad",) * m2 + ("a",) * n2
            for key, factor in _normal_order_word(word):
                out[key] = out.get(key, 0j) + c1 * c2 * factor
    return LadderPolynomial(out)


def power_chain_matrix(poly: LadderPolynomial, dim: int) -> np.ndarray:
    """Truncated matrix of a polynomial from dense powers of the ladder matrix."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    ad = a.conj().T
    out = np.zeros((dim, dim), dtype=complex)
    for (m, n), c in poly.terms.items():
        out += c * (np.linalg.matrix_power(ad, m) @ np.linalg.matrix_power(a, n))
    return out


def naive_commutator(a: LadderPolynomial, b: LadderPolynomial) -> LadderPolynomial:
    return naive_product(a, b) - naive_product(b, a)


ExactPolynomial = dict[tuple[int, int], Fraction]


def _times_ladder(poly: ExactPolynomial, op: str, left: bool) -> ExactPolynomial:
    """op * poly (left) or poly * op (right), for op in {'ad', 'a'}."""
    out: ExactPolynomial = {}
    for (m, n), c in poly.items():
        if op == "ad" and left:
            moves = (((m + 1, n), c),)
        elif op == "a" and not left:
            moves = (((m, n + 1), c),)
        elif op == "a":  # a ad^m a^n = ad^m a^(n+1) + m ad^(m-1) a^n
            moves = (((m, n + 1), c), ((m - 1, n), m * c))
        else:  # ad^m a^n ad = ad^(m+1) a^n + n ad^m a^(n-1)
            moves = (((m + 1, n), c), ((m, n - 1), n * c))
        for key, value in moves:
            if value:
                out[key] = out.get(key, 0) + value
    return out


def exact_commutator(g: ExactPolynomial, h: ExactPolynomial) -> ExactPolynomial:
    """[g, h] of polynomials with rational coefficients, without rounding."""
    out: ExactPolynomial = {}
    for (m, n), c in g.items():
        left = right = h
        for _ in range(n):
            left = _times_ladder(left, "a", left=True)
        for _ in range(m):
            left = _times_ladder(left, "ad", left=True)
            right = _times_ladder(right, "ad", left=False)
        for _ in range(n):
            right = _times_ladder(right, "a", left=False)
        for sign, part in ((1, left), (-1, right)):
            for key, value in part.items():
                out[key] = out.get(key, 0) + sign * c * value
    return {key: value for key, value in out.items() if value}


def exact_tower(g: ExactPolynomial, h: ExactPolynomial, levels: int) -> list[ExactPolynomial]:
    """Adjoint tower h, [g, h], [g, [g, h]], ... up to ``levels`` commutators."""
    tower = [h]
    for _ in range(levels):
        tower.append(exact_commutator(g, tower[-1]))
    return tower


def random_polynomial(rng, max_degree: int = 4, density: float = 0.5) -> LadderPolynomial:
    """Random polynomial with generic (non-dyadic) complex coefficients."""
    terms: dict[tuple[int, int], complex] = {}
    while not terms:
        for m in range(max_degree + 1):
            for n in range(max_degree + 1 - m):
                if rng.random() < density:
                    terms[(m, n)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return LadderPolynomial(terms)


def random_hermitian_polynomial(rng, max_degree: int = 4) -> LadderPolynomial:
    """Random Hermitian polynomial with exact dyadic coefficients (k/16).

    Dyadic coefficients keep all double-precision arithmetic in products and
    commutators exact, so algebraic identities cancel to literal zero.
    """
    terms: dict[tuple[int, int], complex] = {}
    while not terms:
        for m in range(max_degree + 1):
            for n in range(max_degree + 1 - m):
                if m < n or rng.random() < 0.4:
                    continue
                if m == n:
                    value = complex(rng.integers(-16, 17) / 16.0)
                else:
                    value = complex(
                        rng.integers(-16, 17) / 16.0, rng.integers(-16, 17) / 16.0
                    )
                if value != 0:
                    terms[(m, n)] = value
                    terms[(n, m)] = value.conjugate()
    return LadderPolynomial(terms)
