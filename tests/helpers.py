"""Shared test helpers: naive reference implementations and random polynomials.

The reordering oracle knows nothing about the package's product formula: it
represents operator words as symbol strings and rewrites ``a ad -> ad a + 1``
until every word is normal-ordered.  Exponential, but plenty for the small
degrees used in tests.  The power-chain embedding knows nothing about the
package's closed-form matrix elements: it multiplies truncated ladder
matrices.
"""

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
