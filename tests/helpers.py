"""Shared test helpers: naive reference implementations and random polynomials.

The reordering oracle knows nothing about the package's product formula: it
represents operator words as symbol strings and rewrites ``a ad -> ad a + 1``
until every word is normal-ordered.  Exponential, but plenty for the small
degrees used in tests.  The exact commutator knows nothing about it either:
it multiplies by one ladder operator at a time, in ``fractions.Fraction``
arithmetic, so it gives deep adjoint towers without rounding.  The
power-chain embedding knows nothing about the package's closed-form matrix
elements: it multiplies truncated ladder matrices.  The Fock references know
nothing about the package's real and eigen-coordinate paths: they evolve the
full vector through complex eigendecompositions at every finite-difference
point, and build probes one level at a time.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ncmetro import (
    ConvergenceError,
    LadderPolynomial,
    LeakageError,
    matrix_of,
    momentum_op,
    position_op,
    prepare_probe,
)


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


# -- full-vector Fock references ------------------------------------------------
#
# Plain complex eigendecompositions, a recurrence probe and finite differences
# that evolve the whole Fock vector at every point: what the package's
# eigen-coordinate paths must reproduce.

LEAKAGE_THRESHOLD = 1e-8


def eigh_evolution(matrix: np.ndarray):
    """t -> exp(-i t H) of a Hermitian matrix, from one complex eigh."""
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    return lambda t: (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


def recurrence_probe(probe, dim: int) -> np.ndarray:
    """Unnormalised coherent or squeezed-vacuum amplitudes, one level at a time."""
    amps = np.zeros(dim, dtype=complex)
    if probe.kind == "coherent":
        alpha = probe.alpha
        amps[0] = np.exp(-abs(alpha) ** 2 / 2.0)
        for n in range(1, dim):
            amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    else:
        factor = -np.exp(2j * probe.phi) * np.tanh(probe.r)
        amps[0] = 1.0 / np.sqrt(np.cosh(probe.r))
        for k in range(1, (dim - 1) // 2 + 1):
            amps[2 * k] = amps[2 * k - 2] * factor * np.sqrt((2 * k - 1) / (2 * k))
    return amps


def _check_top(vec: np.ndarray) -> None:
    if abs(vec[-1]) ** 2 > LEAKAGE_THRESHOLD:
        raise LeakageError("top level populated")


def _richardson(pass_qfi, step: float) -> tuple[float, bool]:
    coarse, fine = pass_qfi(step), pass_qfi(step / 2.0)
    value = (4.0 * fine - coarse) / 3.0
    rel = abs(fine - coarse) / max(abs(value), 1e-300)
    if rel > 0.05:
        raise ConvergenceError("passes disagree")
    return value, rel <= 0.005


def _overlap_pass(state_at, x0: float):
    def qfi(h):
        dpsi = (state_at(x0 + h) - state_at(x0 - h)) / (2.0 * h)
        center = state_at(x0)
        return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(center, dpsi)) ** 2)

    return qfi


def full_vector_qfi(protocol, dim: int, step: float, retries: int):
    """(value, trusted, dim used) of the finite-difference QFI, evolving the
    full Fock vector at every point; raises like ``qfi_numeric``."""
    last = None
    for attempt in range(retries + 1):
        d = dim * 2**attempt
        try:
            probe = prepare_probe(protocol.probe, d).amplitudes
            n = protocol.n_applications
            after = eigh_evolution(matrix_of(protocol.h_g, d).matrix)(n * protocol.g_bar) @ probe
            _check_top(after)
            evolve_l = eigh_evolution(matrix_of(protocol.h_lambda, d).matrix)

            def state_at(lam):
                return evolve_l(n * lam) @ after

            _check_top(state_at(protocol.lambda_bar + step))
            _check_top(state_at(protocol.lambda_bar - step))
            value, trusted = _richardson(_overlap_pass(state_at, protocol.lambda_bar), step)
            # parity keeps the odd top level of an even state empty
            blind = (d % 2 == 0 and protocol.probe.kind in ("vacuum", "squeezed_vacuum")
                     and all((m - k) % 2 == 0 for poly in (protocol.h_g, protocol.h_lambda)
                             for m, k in poly.terms))
            return value, trusted and not blind, d
        except (LeakageError, ConvergenceError) as exc:
            last = exc
    raise last


def full_vector_switch_qfi(n: int, x: float, p: float, probe, dim: int, step: float,
                           mode: str) -> tuple[float, bool]:
    """(value, trusted) of the switch QFI, evolving both full branches at
    every x with separate decompositions of X and P; raises like
    ``switch_qfi``."""
    psi = prepare_probe(probe, dim).amplitudes
    u_x = eigh_evolution(matrix_of(position_op(), dim).matrix)(n * p)
    evolve_p = eigh_evolution(matrix_of(momentum_op(), dim).matrix)

    def branches(xv):
        u_p = evolve_p(n * xv)
        ab, ba = u_p @ (u_x @ psi), u_x @ (u_p @ psi)
        _check_top(ab)
        _check_top(ba)
        return ab, ba

    if mode == "control":
        def bloch(xv):
            ab, ba = branches(xv)
            rho01 = np.vdot(ba, ab) / 2.0
            return np.array([2 * rho01.real, -2 * rho01.imag,
                             (np.vdot(ab, ab) - np.vdot(ba, ba)).real / 2.0])

        def pass_qfi(h):
            r0 = bloch(x)
            dr = (bloch(x + h) - bloch(x - h)) / (2.0 * h)
            denom = 1.0 - r0 @ r0
            return dr @ dr + ((r0 @ dr) ** 2 / denom if denom > 1e-9 else 0.0)

        return _richardson(pass_qfi, step)
    if mode == "joint":
        def state_at(xv):
            return np.concatenate(branches(xv)) / np.sqrt(2.0)
    else:
        def state_at(xv):
            return branches(xv)[0]
    return _richardson(_overlap_pass(state_at, x), step)
