"""Shared test helpers: naive reference implementations and random polynomials.

The reordering oracle knows nothing about the package's product formula: it
represents operator words as symbol strings and rewrites ``a ad -> ad a + 1``
until every word is normal-ordered.  Exponential, but plenty for the small
degrees used in tests.  The exact commutator knows nothing about it either:
it multiplies by one ladder operator at a time, in ``fractions.Fraction``
arithmetic, so it gives deep adjoint towers without rounding.  The
power-chain embedding knows nothing about the package's closed-form matrix
elements: it multiplies truncated ladder matrices.  The finite-difference
Fock references know nothing about the package's exact derivative or its
real and eigen-coordinate paths: they evolve the full vector through complex
eigendecompositions at every point of a central difference, Richardson-
extrapolated, and build probes one level at a time.  The per-row Fock
references are the oracle's exact QFI computed one row at a time, and
``dv_bound_check`` as it stood before it stacked its N values, kept
verbatim, so the package must match them bit for bit.  The
Gaussian reference is the engine's former numpy path: 2x2 matrix products
and ``np.linalg.det``.  The coefficient peak is found by comparing every
exact ``Fraction`` value.  The reference formatter renders one term at a
time with f-strings, as the package once did.
"""

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from ncmetro import (
    LadderPolynomial,
    LeakageError,
    ProbeDescriptor,
    ValidationError,
    matrix_of,
    momentum_op,
    position_op,
    prepare_probe,
)
from ncmetro.errors import BoundViolationError, require_finite
from ncmetro.fock import (
    SWITCH_MODES,
    DvBoundReport,
    DvBoundRow,
    QfiEstimate,
    _HERMITIAN_TOL,
    _check_leakage,
    _evolver,
    _leakage_check_blind,
    _to_parity,
    _top_slot,
)
from ncmetro.gaussian import _quadratic


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


def exact_k_peak(n: int, k_max: int) -> tuple[int, ...]:
    """Argmax set of N^{2(1+K)} / (K!)^2 over 0 <= K <= k_max, in exact arithmetic."""
    values = [Fraction(n ** (2 * (1 + k)), math.factorial(k) ** 2) for k in range(k_max + 1)]
    peak = max(values)
    return tuple(k for k, value in enumerate(values) if value == peak)


def random_polynomial(rng, max_degree: int = 4, density: float = 0.5) -> LadderPolynomial:
    """Random polynomial with generic (non-dyadic) complex coefficients."""
    terms: dict[tuple[int, int], complex] = {}
    while not terms:
        for m in range(max_degree + 1):
            for n in range(max_degree + 1 - m):
                if rng.random() < density:
                    terms[(m, n)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return LadderPolynomial(terms)


def dagger(p: LadderPolynomial) -> LadderPolynomial:
    """Hermitian adjoint: (ad^m a^n)^dag = ad^n a^m, conjugated coefficients."""
    return LadderPolynomial({(n, m): c.conjugate() for (m, n), c in p.terms.items()})


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


# -- reference formatter and the tower-classify pool ---------------------------


def _format_coefficient(c: complex) -> str:
    if c.imag == 0.0:
        real = c.real
        return repr(real) if real >= 0 else f"(-{-real!r})"
    if c.real == 0.0:
        imag = c.imag
        return f"({imag!r}*i)" if imag >= 0 else f"(-{-imag!r}*i)"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real!r} {sign} {abs(c.imag)!r}*i)"


def reference_format_polynomial(p: LadderPolynomial) -> str:
    """Per-term rendering that ``format_polynomial`` must match byte for byte."""
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


#: The classify commands of the benchmark's tower-classify pool at seed 1:
#: argv, exit code, sha256 of stdout with the JSON ``duration_s`` and
#: ``timestamp`` values replaced by ``null``, and stderr.  Recorded before
#: the tower kept its levels as grids and the formatter used templates.
TOWER_POOL = [
    (["classify", "--g", "X^1", "--h", "P"], 0,
     "c328b66ebee913ddb6a10118b2c2db3a7d2949479850012a404f4744d5965b31", ""),
    (["classify", "--g", "X^2", "--h", "P", "--format", "json"], 0,
     "963a4d585f07672fbc4889b53ac939605f5aed73a77c44f27f01440170025741", ""),
    (["classify", "--g", "X^3", "--h", "P"], 0,
     "8d101c67b34434baafada53f5c232c04c446e2803c9bd67150f0bd70c194caa8", ""),
    (["classify", "--g", "X^4", "--h", "P", "--format", "json"], 0,
     "a51e4cd7d762fe0b1125fe406830032fc6174615daffb13735dc7dd7934c31ae", ""),
    (["classify", "--g", "X^5", "--h", "P"], 0,
     "8d101c67b34434baafada53f5c232c04c446e2803c9bd67150f0bd70c194caa8", ""),
    (["classify", "--g", "X^6", "--h", "P", "--format", "json"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: product degree 67 exceeds limit 64\n"),
    (["classify", "--g", "P", "--h", "X^1"], 0,
     "9c7621d9107e2d5c98592d16b4a140132d79e397b4ea1bfc84e3ab6d8dda6a82", ""),
    (["classify", "--g", "P", "--h", "X^2", "--format", "json"], 0,
     "d712f4f3f2b4ad49b5f4c6aabaf9c41a14b2eddea22032de2f96d634215ae9fc", ""),
    (["classify", "--g", "P", "--h", "X^3"], 0,
     "525a7a2b94e6de30c49ec0902750aa602707424d3d3d056f7c9742141ef6943e", ""),
    (["classify", "--g", "P", "--h", "X^4", "--format", "json"], 0,
     "92fb3b2717e717f82c2bd75c338695c34c4b84f63698b6bfa465bb0e0fac5dbc", ""),
    (["classify", "--g", "P", "--h", "X^5"], 0,
     "830d0a27d6bc438715a6ff214b0dfc8b0ae6c74ce797608b0b9724ceff6a0f5f", ""),
    (["classify", "--g", "P", "--h", "X^6", "--format", "json"], 0,
     "ba2fa12ff3919161aae8d3ac842bb4914b61fc32ea6a829ecd00d018fa88c513", ""),
    (["classify", "--g", "ad*a", "--h", "X", "--format", "json"], 0,
     "715abc5b654daa80a91d5cd683f3803d0e451f5d8b3cc3d6f4cdab88cbc21558", ""),
    (["classify", "--g", "X^3 + P^2", "--h", "P", "--format", "json"], 0,
     "885f2bd3967dd6cb4a37609425bbd494a48f688a698124f6ba69091be5c4bfaf", ""),
    (["classify", "--g", "X^3+P^3", "--h", "X", "--format", "json"], 0,
     "a4bcc6c56c71fb09edfb9e4832dd56036034f371ec3965793a1a9fa849d74017", ""),
    (["classify", "--g", "X^4", "--h", "P^3", "--format", "json"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: product degree 65 exceeds limit 64\n"),
    (["classify", "--g", "0.2531916479779972*ad^2 + 0.2531916479779972*a^2", "--h", "P"], 0,
     "52f0cfb94299c612564e17253160d6a4f9ddcc0dfc1004cef0e581cd58ae2e2f", ""),
    (["classify", "--g", "1.0122700806660994*ad^2 + 1.0122700806660994*a^2", "--h", "P",
      "--format", "json"], 0,
     "f1e45bc76960894c2e6004104ed075c4a8a93bceadc2e4b8e664d9295a423637", ""),
    (["classify", "--g", "1.258045540215855*ad^2 + 1.258045540215855*a^2", "--h", "P"], 0,
     "b44d6cc453a1551da6297164ea232a33cf53815c469e5be64e7a5f7b6f59985b", ""),
]


def tower_pool_pairs() -> list[tuple[str, str]]:
    """The (g, h) expressions of :data:`TOWER_POOL`, in its order."""
    return [(argv[2], argv[4]) for argv, *_ in TOWER_POOL]


# -- finite-difference Fock references -------------------------------------------
#
# Plain complex eigendecompositions, a recurrence probe and central
# differences that evolve the whole Fock vector at every point: a pass at
# the step and one at half the step, Richardson-extrapolated.  The
# package differentiates exactly and shares none of this; its value must
# lie within the passes' disagreement of the extrapolated one.

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


def richardson(pass_qfi, step: float) -> tuple[float, float]:
    """(Richardson value, relative disagreement) of the passes at ``step``
    and ``step / 2``."""
    coarse, fine = pass_qfi(step), pass_qfi(step / 2.0)
    value = (4.0 * fine - coarse) / 3.0
    return value, abs(fine - coarse) / max(abs(value), 1e-300)


def _overlap_pass(state_at, x0: float):
    def qfi(h):
        dpsi = (state_at(x0 + h) - state_at(x0 - h)) / (2.0 * h)
        center = state_at(x0)
        return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(center, dpsi)) ** 2)

    return qfi


def full_vector_qfi(protocol, dim: int, step: float, retries: int):
    """(value, pass disagreement, trusted, dim used) of the finite-difference
    QFI, evolving the full Fock vector at every point, with the leakage
    checks of ``qfi_numeric``: after the auxiliary block and at the window
    edges lambda_bar +- step; raises LeakageError like it."""
    last = None
    for attempt in range(retries + 1):
        d = dim * 2**attempt
        try:
            probe = prepare_probe(protocol.probe, d)
            n = protocol.n_applications
            after = eigh_evolution(matrix_of(protocol.h_g, d).matrix)(n * protocol.g_bar) @ probe
            _check_top(after)
            evolve_l = eigh_evolution(matrix_of(protocol.h_lambda, d).matrix)

            def state_at(lam):
                return evolve_l(n * lam) @ after

            _check_top(state_at(protocol.lambda_bar + step))
            _check_top(state_at(protocol.lambda_bar - step))
            value, rel = richardson(_overlap_pass(state_at, protocol.lambda_bar), step)
            # parity keeps the odd top level of an even state empty
            blind = (d % 2 == 0 and protocol.probe.kind in ("vacuum", "squeezed_vacuum")
                     and all((m - k) % 2 == 0 for poly in (protocol.h_g, protocol.h_lambda)
                             for m, k in poly.terms))
            return value, rel, not blind, d
        except LeakageError as exc:
            last = exc
    raise last


def full_vector_switch_qfi(n: int, x: float, p: float, probe, dim: int, step: float,
                           mode: str) -> tuple[float, float]:
    """(value, pass disagreement) of the finite-difference switch QFI,
    evolving both full branches at every x with separate decompositions of
    X and P; raises LeakageError where a branch that the mode reads leaks
    at x or x +- step, as ``switch_qfi`` does."""
    psi = prepare_probe(probe, dim)
    u_x = eigh_evolution(matrix_of(position_op(), dim).matrix)(n * p)
    evolve_p = eigh_evolution(matrix_of(momentum_op(), dim).matrix)

    def branches(xv):
        u_p = evolve_p(n * xv)
        return u_p @ (u_x @ psi), u_x @ (u_p @ psi)

    for xv in (x, x + step, x - step):
        for branch in branches(xv)[:1 if mode == "definite" else 2]:
            _check_top(branch)
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

        return richardson(pass_qfi, step)
    if mode == "joint":
        def state_at(xv):
            return np.concatenate(branches(xv)) / np.sqrt(2.0)
    else:
        def state_at(xv):
            return branches(xv)[0]
    return richardson(_overlap_pass(state_at, x), step)


# -- per-row Fock references ----------------------------------------------------
#
# The exact QFI as a lone row computes it: one probe prepared and projected
# per row, each exp(-i t H) v written out as ``lift(phases(t) * project(v))``
# on vectors in the oracle's parity order (even levels, then odd), the
# leakage checks reading the top level at its place in that order, and one
# ``np.dot`` or ``np.vdot`` per state.  A scan's stacked rows must match them
# bit for bit, errors with their text.


def _top_amplitude(evolver, coeffs: np.ndarray) -> complex:
    """Top Fock amplitude of ``evolver.lift(coeffs)``, in O(dim): ``_top``
    is the conjugated row of the top level in the evolver's eigenvectors."""
    top = np.vdot(evolver._top, coeffs)
    return top if evolver._gauge is None else top * evolver._gauge[_top_slot(coeffs.size)]


def _weighted_variance_qfi(n: int, weights: np.ndarray, w: np.ndarray) -> float:
    """4 N^2 Var[H] under ``weights`` |c|^2 of H's eigen-coordinates."""
    mean = float(np.dot(weights, w))
    return 4.0 * n * n * float(np.dot(weights, np.square(w - mean)))


def _qfi_numeric_once(protocol, dim: int, step: float):
    probe = _to_parity(prepare_probe(protocol.probe, dim))
    n = protocol.n_applications
    evolver_g = _evolver(protocol.h_g, dim)
    after_aux = evolver_g.lift(evolver_g.phases(n * protocol.g_bar) * evolver_g.project(probe))
    _check_leakage(after_aux[_top_slot(dim)], "qfi_numeric (auxiliary block)")
    evolver_l = _evolver(protocol.h_lambda, dim)
    coeffs = evolver_l.project(after_aux)
    for edge in (protocol.lambda_bar + step, protocol.lambda_bar - step):
        _check_leakage(_top_amplitude(evolver_l, evolver_l.phases(n * edge) * coeffs),
                       "qfi_numeric (scan edge)")
    weights = coeffs.real * coeffs.real + coeffs.imag * coeffs.imag
    value = _weighted_variance_qfi(n, weights, evolver_l.spectrum())
    return QfiEstimate(value, not _leakage_check_blind(protocol, dim), dim, step)


def per_row_qfi(protocol, dim: int, step: float, retries: int = 1):
    """``qfi_numeric`` over the per-row ``_qfi_numeric_once``."""
    last_error = None
    for attempt in range(retries + 1):
        try:
            return _qfi_numeric_once(protocol, dim * 2**attempt, step)
        except LeakageError as exc:
            last_error = exc
    raise last_error


def per_row_switch_qfi(n: int, x: float, p: float, probe=None, dim: int = 80,
                       step: float = 1e-4, mode: str = "control"):
    """``switch_qfi`` one row at a time: the branches in P's eigenbasis (the
    opposite order carried through X's) at x and x +- step, leakage-checked
    in that order, and the QFI from the branches' weights or, for the
    control qubit, from the branches at x and their x-derivatives."""
    assert mode in SWITCH_MODES
    if n < 1:
        raise ValidationError("switch protocol requires n >= 1")
    psi = _to_parity(prepare_probe(probe or ProbeDescriptor.vacuum(), dim))
    u_p = _evolver(momentum_op(), dim)
    u_x = _evolver(position_op(), dim)
    phases_x = u_x.phases(n * p)
    start_ab = u_p.project(u_x.lift(phases_x * u_x.project(psi)))
    start_ba = u_p.project(psi)

    def through_x(coords):
        """X's coordinates of exp(-iNpX) applied to P's coordinates."""
        return phases_x * u_x.project(u_p.lift(coords))

    for xv in (x, x + step, x - step):
        phases = u_p.phases(n * xv)
        _check_leakage(_top_amplitude(u_p, phases * start_ab), "switch_protocol")
        if mode != "definite":
            _check_leakage(_top_amplitude(u_x, through_x(phases * start_ba)), "switch_protocol")
    w = u_p.spectrum()
    weights_ab = start_ab.real * start_ab.real + start_ab.imag * start_ab.imag
    if mode == "definite":
        return QfiEstimate(_weighted_variance_qfi(n, weights_ab, w), True, dim, step)
    if mode == "joint":
        weights_ba = start_ba.real * start_ba.real + start_ba.imag * start_ba.imag
        return QfiEstimate(_weighted_variance_qfi(n, 0.5 * (weights_ab + weights_ba), w),
                           True, dim, step)
    phases, slope = u_p.phases(n * x), float(n) * (-1j * w)
    ab, d_ab = u_p.lift(phases * start_ab), u_p.lift(slope * phases * start_ab)
    ba, d_ba = (u_x.lift(through_x(phases * start_ba)),
                u_x.lift(through_x(slope * phases * start_ba)))
    rho = complex(np.vdot(ba, ab))
    d_rho = complex(np.vdot(d_ba, ab)) + complex(np.vdot(ba, d_ab))
    qfi = d_rho.real * d_rho.real + d_rho.imag * d_rho.imag
    tilt = rho.real * d_rho.real + rho.imag * d_rho.imag
    denom = 1.0 - (rho.real * rho.real + rho.imag * rho.imag)
    return QfiEstimate(qfi + tilt * tilt / denom if denom > 1e-9 else qfi, True, dim, step)


def per_row_dv_bound_check(
    h_g: np.ndarray,
    h_lambda: np.ndarray,
    n_list: Sequence[int],
    g_bar: float,
    probe: np.ndarray,
) -> DvBoundReport:
    """``dv_bound_check`` as it stood when each N built its own unitary,
    conjugated generator and vector, validating its entry on the way."""
    require_finite(g_bar=g_bar)
    h_g = np.asarray(h_g, dtype=complex)
    h_lambda = np.asarray(h_lambda, dtype=complex)
    d = h_g.shape[0]
    if d < 2 or h_g.shape != (d, d) or h_lambda.shape != (d, d):
        raise ValidationError("generators must be square matrices of dim >= 2")
    for name, mat in (("h_g", h_g), ("h_lambda", h_lambda)):
        if np.abs(mat - mat.conj().T).max() > _HERMITIAN_TOL:
            raise ValidationError(f"{name} is not Hermitian")
    n_list = list(n_list)
    if not n_list:
        raise ValidationError("n_list must not be empty")
    probe = np.asarray(probe, dtype=complex)
    probe = probe / np.linalg.norm(probe)

    eig_l = np.linalg.eigvalsh(h_lambda)
    spread = float(eig_l[-1] - eig_l[0])
    w_g, v_g = np.linalg.eigh(h_g)

    rows = []
    for n in n_list:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValidationError(f"n_list entries must be integers, not {n!r}")
        if n < 1:
            raise ValidationError("n_list entries must be >= 1")
        u = (v_g * np.exp(1j * n * g_bar * w_g)) @ v_g.conj().T
        h = n * (u @ h_lambda @ u.conj().T)
        vec = h @ probe
        mean = float(np.vdot(probe, vec).real)
        qfi = 4.0 * (float(np.vdot(vec, vec).real) - mean**2)
        bound = n**2 * spread**2
        if qfi > bound * (1.0 + 1e-9) + 1e-9:
            raise BoundViolationError(
                f"QFI {qfi!r} exceeds spectral bound {bound!r} at N={n}"
            )
        rows.append(DvBoundRow(n=int(n), qfi=qfi, bound=bound))
    return DvBoundReport(rows=tuple(rows), spectral_spread=spread, g_bar=g_bar)


# -- numpy Gaussian reference ----------------------------------------------------
#
# The symplectic flow as 2x2 numpy products, with delta from np.linalg.det
# and the probe covariance as R diag R^T: what the package's plain-float core
# must reproduce to rounding.

OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def numpy_probe(probe) -> tuple[np.ndarray, np.ndarray]:
    if probe.kind == "vacuum":
        return np.zeros(2), 0.5 * np.eye(2)
    if probe.kind == "coherent":
        return np.array([math.sqrt(2.0) * probe.alpha.real,
                         math.sqrt(2.0) * probe.alpha.imag]), 0.5 * np.eye(2)
    rot = np.array([[math.cos(probe.phi), -math.sin(probe.phi)],
                    [math.sin(probe.phi), math.cos(probe.phi)]])
    core = 0.5 * np.diag([math.exp(-2.0 * probe.r), math.exp(2.0 * probe.r)])
    return np.zeros(2), rot @ core @ rot.T


def numpy_symplectic_and_integral(g_matrix: np.ndarray, t: float):
    """S = exp(t Omega G) and J = integral_0^t exp(s Omega G) ds, and delta."""
    m = t * (OMEGA @ g_matrix)  # traceless, so m @ m = -det(m) * I
    delta = float(np.linalg.det(m))
    eye = np.eye(2)
    if abs(delta) < 1e-30:
        s = eye + m
        j = t * (eye + 0.5 * m)
    elif delta > 0.0:
        w = math.sqrt(delta)
        s = math.cos(w) * eye + (math.sin(w) / w) * m
        j = t * ((math.sin(w) / w) * eye + ((1.0 - math.cos(w)) / delta) * m)
    else:
        k = math.sqrt(-delta)
        s = math.cosh(k) * eye + (math.sinh(k) / k) * m
        j = t * ((math.sinh(k) / k) * eye + ((math.cosh(k) - 1.0) / (-delta)) * m)
    return s, j, delta


def numpy_quadratic(poly: LadderPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """(G, d) of H = (1/2) R^T G R + d^T R as numpy arrays."""
    g_xx, g_pp, g_xp, d_x, d_p = _quadratic(poly)
    return np.array([[g_xx, g_xp], [g_xp, g_pp]]), np.array([d_x, d_p])


def numpy_evolve(mean: np.ndarray, cov: np.ndarray, poly: LadderPolynomial, t: float):
    """(mean, cov) after exp(-i t H) for a quadratic generator ``poly``."""
    g_matrix, d_vector = numpy_quadratic(poly)
    s, j, _ = numpy_symplectic_and_integral(g_matrix, t)
    shift = j @ (OMEGA @ d_vector)
    cov = s @ cov @ s.T
    return s @ mean + shift, 0.5 * (cov + cov.T)


def numpy_run_protocol(protocol) -> tuple[np.ndarray, np.ndarray]:
    mean, cov = numpy_probe(protocol.probe)
    n = protocol.n_applications
    if n:
        mean, cov = numpy_evolve(mean, cov, protocol.h_g, n * protocol.g_bar)
        mean, cov = numpy_evolve(mean, cov, protocol.h_lambda, n * protocol.lambda_bar)
    return mean, cov


def numpy_cfi(protocol, theta: float) -> float:
    mean, cov = numpy_run_protocol(protocol)
    g_matrix, d_vector = numpy_quadratic(protocol.h_lambda)
    n = protocol.n_applications
    a_mat = OMEGA @ g_matrix
    d_mean = n * (a_mat @ mean + OMEGA @ d_vector)
    d_cov = n * (a_mat @ cov + cov @ a_mat.T)
    u = np.array([math.cos(theta), math.sin(theta)])
    var = float(u @ cov @ u)
    return float(u @ d_mean) ** 2 / var + 0.5 * float(u @ d_cov @ u) ** 2 / var**2


# -- the oracle-scans pool ---------------------------------------------------------


def blank_columns(text: str, names=("cfi", "ratio_cfi_qfi")) -> str:
    """CSV text with the values of the named columns emptied."""
    lines = text.split("\n")
    header = lines[0].split(",")
    drop = [i for i, name in enumerate(header) if name in names]
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) == len(header):
            for i in drop:
                cells[i] = ""
        rows.append(",".join(cells))
    return "\n".join(rows)


#: The fig3 and switch commands of the benchmark's oracle-scans pool at seed
#: 1, round 0: argv, exit code and the sha256 of stdout after
#: :func:`blank_columns` (fig3's homodyne CFI and its ratio are the Gaussian
#: engine's, not the oracle's).  Recorded while every row still prepared and
#: projected its own probe and the Gaussian engine ran on numpy; the fig3
#: digests re-recorded when closed-tower generators became e^x/e^-x splits
#: (their qfi_gaussian cells moved in the last bits), and every digest when
#: the oracle took parity blocks (its Fock cells moved in the last bits) and
#: when it took the exact derivative (its Fock cells moved by at most
#: 5.3e-12, each now at most as far from its closed form: 8.2e-15 for the
#: switch cells, 6.8e-9 for fig3's truncation at dim 80).
ORACLE_POOL = [
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '80', '--mode', 'definite'], 0,
     "151c5d51b31c53935c9806203ca90908dd95ab82131dc8ef3564b24c3ad417c0"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'joint'], 0,
     "059aa2273077ca1de517ef65b95fc00f8293546ac13acc9880dfa65cca35ec8c"),
    (['fig3', '--N', '1..12', '--xi', '0.05478421329111705', '--alpha', '0.058489196250636144',
      '--dim', '140'], 0,
     "9cbc7e9e5072b62f7e193335ecc82a6a5460ab75052355551e723cbd1a403b11"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '110', '--mode', 'joint'], 0,
     "f2a1ee2e99a97ce9088d91e3831818ca594321e7a432824b2887c3932fe7093d"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'control'], 0,
     "f3dbd9738abb654141e2ec0e1ed7c444bc38ef10145e0996b7af594cf80996e9"),
    (['fig3', '--N', '1..12', '--xi', '0.09522088189684784', '--alpha', '0.05635785300768742',
      '--dim', '140'], 0,
     "6064ae141574b22c3aabe5621e09f68d7227c71ea732923aa436ef3dd5358379"),
    (['fig3', '--N', '1..12', '--xi', '0.05779300492379055', '--alpha', '0.19829790306031891',
      '--dim', '80'], 0,
     "3c9c74d18d6e3e52c48715fc0b802aa606e75acd6a7cbef93120b2ee62113e30"),
    (['fig3', '--N', '1..12', '--xi', '0.09897310442419215', '--alpha', '0.4975887965498427',
      '--dim', '140'], 0,
     "c7956f71d42ae952db1743a0b4e97a26ec3811b6af1125d6c9d2073d37019861"),
    (['fig3', '--N', '1..12', '--xi', '0.0723035402216447', '--alpha', '0.19893663594015332',
      '--dim', '140'], 0,
     "7179a298faf17b3d106ced12afe06a20fab4cb38f9a50c4a9b30877502d28cdf"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'definite'], 0,
     "10db3526333a6c473a97e5b18d33f4ca639380e02925c2b822f0917baab5ee80"),
    (['fig3', '--N', '1..12', '--xi', '0.062871136984877', '--alpha', '0.293187459999862',
      '--dim', '110'], 0,
     "b52a1c68f975b007046b179136f3827112d8e48d16c3cdc77095a4dd8f1e0443"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'control'], 0,
     "f3dbd9738abb654141e2ec0e1ed7c444bc38ef10145e0996b7af594cf80996e9"),
]

#: The oracle-scans pool's other commands: seed 7919, round 0, and seed 1,
#: round 1, whose x and xi carry the 1e-9 jitter.  Entries as in
#: ``ORACLE_POOL``, recorded while each scan still ran its oracle one row at
#: a time; the digests re-recorded as in ``ORACLE_POOL``.
ORACLE_POOL_2 = [
    (['fig3', '--N', '1..12', '--xi', '0.05365472351548517', '--alpha', '0.07508514729672061',
      '--dim', '110'], 0,
     "8bcd98c08f1147379f4aa94ef87b4b5d62e5c1c695719f8fd6eaa439af12ee2b"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'definite'], 0,
     "423bc2b0fe12702c191c74ac3dfe4ec20e4514dd8e18e0dff553e928ec2f3598"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'definite'], 0,
     "10db3526333a6c473a97e5b18d33f4ca639380e02925c2b822f0917baab5ee80"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'control'], 0,
     "f3dbd9738abb654141e2ec0e1ed7c444bc38ef10145e0996b7af594cf80996e9"),
    (['fig3', '--N', '1..12', '--xi', '0.057806997785026126', '--alpha', '0.40316864591585555',
      '--dim', '140'], 0,
     "f5e1709d41a99f71a7a5adf938dfa86a1cfc40dfc594462d49e1269333347eaa"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '110', '--mode', 'joint'], 0,
     "f2a1ee2e99a97ce9088d91e3831818ca594321e7a432824b2887c3932fe7093d"),
    (['fig3', '--N', '1..12', '--xi', '0.05459252422466936', '--alpha', '0.4055282788782957',
      '--dim', '140'], 0,
     "0e83bb87a76df46f9d673cbb8dd995bd444193420996b4f8bc5123a96522833a"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'joint'], 0,
     "059aa2273077ca1de517ef65b95fc00f8293546ac13acc9880dfa65cca35ec8c"),
    (['fig3', '--N', '1..12', '--xi', '0.09327499615237893', '--alpha', '0.20132729213847672',
      '--dim', '80'], 0,
     "c53abe1fcf60f67e4e1841aaf09eee4d02c205f8bf0d425a4d9918d2de85ea2b"),
    (['fig3', '--N', '1..12', '--xi', '0.06670522480187428', '--alpha', '0.48735330546950933',
      '--dim', '140'], 0,
     "9251e6053f618ddf766a1fad37aa5ae28d536af8be72d20a51a455103f925901"),
    (['fig3', '--N', '1..12', '--xi', '0.09763047957971971', '--alpha', '0.09860409460095854',
      '--dim', '140'], 0,
     "acbc7c4bdee8cdd8a15aabd217540bd1b668ba818e9eece4c24c1a2a869c58f8"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '80', '--mode', 'control'], 0,
     "5696b3cbab77509abd785a4742d37989633ce02c8730f8d40ecdc5bdeb51669c"),
    (['fig3', '--N', '1..12', '--xi', '0.09522088199206873', '--alpha', '0.05635785300768742',
      '--dim', '140'], 0,
     "8ca9d64238f1aa76a04c8522f2a6680739930b777e11e1400620f358c6d1504b"),
    (['fig3', '--N', '1..12', '--xi', '0.05478421334590127', '--alpha', '0.058489196250636144',
      '--dim', '140'], 0,
     "4d6423b2d0e621359b9b93d86cfc7bce251f194e8b2e1d4ef006440c920ec69a"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '80', '--mode', 'definite'], 0,
     "151c5d51b31c53935c9806203ca90908dd95ab82131dc8ef3564b24c3ad417c0"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '200', '--mode', 'control'], 0,
     "d2b02a5b15127b3ba4949dd27f017f122c180b63f9f104008580f7a3bfeda467"),
    (['fig3', '--N', '1..12', '--xi', '0.06287113704774813', '--alpha', '0.293187459999862',
      '--dim', '110'], 0,
     "c4e6ce5b01a670aa660e0efffddcc51ff156ba7e3275cfac5201aa312c670b9a"),
    (['fig3', '--N', '1..12', '--xi', '0.05779300498158356', '--alpha', '0.19829790306031891',
      '--dim', '80'], 0,
     "169199943470c67cb68ab4186ded9a4a1b2f48ae646e9219971f5caa40fc0bb7"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '170', '--mode', 'joint'], 0,
     "059aa2273077ca1de517ef65b95fc00f8293546ac13acc9880dfa65cca35ec8c"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '200', '--mode', 'control'], 0,
     "d2b02a5b15127b3ba4949dd27f017f122c180b63f9f104008580f7a3bfeda467"),
    (['fig3', '--N', '1..12', '--xi', '0.09897310452316525', '--alpha', '0.4975887965498427',
      '--dim', '140'], 0,
     "9475317e34b53c84e322eece7da059314f9a8fd5678164067a7fc8f8d9ced1a1"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '170', '--mode', 'definite'], 0,
     "10db3526333a6c473a97e5b18d33f4ca639380e02925c2b822f0917baab5ee80"),
    (['fig3', '--N', '1..12', '--xi', '0.07230354029394825', '--alpha', '0.19893663594015332',
      '--dim', '140'], 0,
     "f8becc7bf3428e4ff8be657a9cc274d69c943f4c339cbd06742eb8e2e52be2c6"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '110', '--mode', 'joint'], 0,
     "f2a1ee2e99a97ce9088d91e3831818ca594321e7a432824b2887c3932fe7093d"),
]


# -- the point-queries pool -------------------------------------------------------

#: The commands of the benchmark's point-queries pool at seed 1, round 0:
#: argv, exit code, sha256 of stdout with the JSON ``duration_s`` and
#: ``timestamp`` values replaced by ``null``, and stderr.  Recorded while
#: each command still ran through both parser levels, every protocol
#: re-checked its operators and every attempt rebuilt its keys.  The
#: ``known`` cell (squeeze-inf, N = 10, aux 0.25, step 1e-5, dim 80) prints
#: a Fock QFI marked trusted that is wrong (ROADMAP item 2); it is pinned as
#: it is, and is re-recorded with the fix.  The squeeze-inf ``generator``,
#: Gaussian ``qfi`` and ``example1`` cells were re-recorded when
#: closed-tower generators became e^x/e^-x splits (last bits moved), and
#: the Fock ``qfi`` cells when the oracle took parity blocks (last bits
#: moved) and again when it took the exact derivative (those off X^2 | P^2
#: moved by at most 1.4e-10; the parity-blind X^2 | P^2 cells, untrusted,
#: by up to 2.9e-6).
POINT_POOL = [
    (['qfi', '--preset', 'shear-k1', '--N', '11', '--aux', '0.2872671728892704', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 2.362e-07'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '8', '--aux', '0.16623111063471216', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "08ed9f4943459d6e509474990825e7086625b1e86ff610e4bf593d4c7761b25c",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '10', '--aux', '0.22809262330411978', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "b6d368daa965483d292b61008cddde9ae6b2ad4eb3fa6c735780c42d080b7443",
     ""),
    (['generator', '--preset', 'shear-k1', '--N', '3', '--aux', '0.05547456410175743'], 0,
     "54bef4cfec7362e92ec333f773361b3eac876f226a834b5372dd445492a2f529",
     ""),
    (['dvbound', '--pair', 'qubit', '--N', '1..39', '--gbar', '0.8927544249596328'], 0,
     "6c7ed94c552f5cdcc28a47785f2af879d25293513251ce0736b63e62f370c8d5",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '12', '--aux', '0.149866896968619', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "7079dc393b807264c454bb5401567e1dbc977b9072c21a725226097b33d694d9",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '8', '--aux', '0.05694351632362723', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "43bfeadd088ce10d67f1d5132f47c7e11f052c8c84a36ba82ba3c8b51cf42bc2",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '12', '--aux', '0.26255369300804726', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "5c5d4ef20c8a947c111e90286ceaa48c54a34624ad826e0357a6f9aa242786ae",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '7', '--aux', '0.06816389775850713', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "cab4236865c30f284e6fcd85aa2aa0cc5fecb34321eb403e62238607555db3c7",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '9', '--aux', '0.14770349612663988', '--lam',
      '0', '--step', '1e-4', '--engine', 'both'], 0,
     "1841ca618783b11cfca2fb2241f3108ec3a00c8f0693d9f347ee71b195aaa3f5",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '12', '--aux', '0.26363418792863974',
      '--lam', '0', '--step', '1e-4', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 1.391e-06'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['fig2b', '--N', '1,10,15', '--kmax', '20', '--format', 'json'], 0,
     "2dace4f9b344ad9baa4d99bedf338febea1c19be1b550ad3410e09c431e9a9d9",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '7', '--aux', '0.19904548683883266', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "d3576718607e881b6e5c0d9520571acbae94d043c2dba86604efc388af09911e",
     ""),
    (['dvbound', '--pair', 'qutrit', '--N', '1..38', '--gbar', '0.26604118161710794',
      '--format', 'json'], 0,
     "f1791506801e3a34083d8bfbaec5c7f2c585cfbab2d1990fe8b46a67a78ecdc1",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '11', '--aux', '0.2842527289122918', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 1.161e-08'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['dvbound', '--pair', 'qutrit', '--N', '1..25', '--gbar', '0.49066310232388805',
      '--format', 'json'], 0,
     "7ddacbc18269bb9c394c79efeb88e0543ba4d88ac6bcf721b0793e086554b0cf",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '11', '--aux', '0.2772172852453678', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "0037f3cb0f22aca18c4a656c9168247e7f2739b6920f8b138f27a843663707cc",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '9', '--aux', '0.2525944683032009', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 1.125e-07'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '7', '--aux', '0.06073841203833418', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "2a3e6fc5e9cfa916f69c17073761c5d5ad5d81d2aede956fcce1bc2b088c84ae",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '8', '--aux', '0.2834885031101344', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 2.569e-04'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'shear-k1', '--N', '9', '--aux', '0.2536946646354327', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "fc8269cf0695317421732f9e0a47fea634afbf3a4b5b68f0a06de73d478cce92",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '12', '--aux', '0.1090530354729455', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "c49b6cb3638c22589f9f1e103a9b0c37d08f713a1f549a92c389abca2b878516",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '12', '--aux', '0.26040260397232273', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 8.578e-07'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '8', '--aux', '0.05818581289756403', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "4e8bb17cb76c60e4de1c57262ff5f288032eb0d1a05e50447dc355fd0d4d1ec0",
     ""),
    (['fig2b', '--N', '18,24', '--kmax', '33', '--format', 'json'], 0,
     "b95675bbbb4f36805dbac078f231e56362d9ba2e9191b932267e4804b57d73f1",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '10', '--aux', '0.04113167909437091',
      '--lam', '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "bf7f520311f440291dc042ea277731fd4b5ccf0c138ddd4bb1dfa0329359fafd",
     ""),
    (['dvbound', '--pair', 'qubit', '--N', '1..15', '--gbar', '0.8125953363333489'], 0,
     "9b6bc7ed442bc09085a4f04bb07285cb2351af354c144e5a03f1021c68a82fe5",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '12', '--aux', '0.18750982686822806', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "e1d7a1d44c75eb8ef934cfa561be745feffe14ca0d467b4e2afa843196a6eaf6",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '9', '--aux', '0.24580559648335557', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "ab7648c024f3ecccdfc66f533b186b082d780d97a61c23bc647e1028c2b7844b",
     ""),
    (['example1', '--preset', 'xp-constant', '--N', '8..38', '--s', '0.25243101236714105'], 0,
     "c3f139ec0d3d3b03515639112912326c474a5faeb5f5ad7b8e38ded76debd32a",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '8', '--aux', '0.040911087162807544',
      '--lam', '0.1', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "d3d71df89cf210309bd3cc0378431e4ec8a704704dbef569be7b6d6128d397aa",
     ""),
    (['example1', '--preset', 'shear-k1', '--N', '8..23', '--s', '0.24495247586526248',
      '--format', 'json'], 0,
     "d351a446625670e600e08720dc92af3a2bab5d6c7e5e0eb2455e90dfbe7d2f64",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '7', '--aux', '0.19127957392259023', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "b6a9e1a7a258ee4005704ce06341d8f159b3e736ee7a5068a1b85bafbc6c4230",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '10', '--aux', '0.13842255405494638', '--lam',
      '0', '--step', '1e-5', '--engine', 'both'], 0,
     "5453319a305f0292e9847f6915d31d0712a011f48fe68a096b4c87d7eb26309a",
     ""),
    (['generator', '--preset', 'squeeze-inf', '--N', '1', '--aux', '0.26013147868174713'], 0,
     "2a5cf4669c132eedc9d8b5d4c31ca77fe8dc7e7289df43ae21a016e3c2bbc139",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '12', '--aux', '0.26598242263732014',
      '--lam', '0.1', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 3.969e-03'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--g', 'X^2', '--h', 'P^2', '--N', '11', '--aux', '0.2982351017262083',
      '--lam', '0', '--step', '1e-4', '--engine', 'both'], 0,
     "00f0c90755450629b6319e6cd2e1c0dfb2da49e7aff5c02fc498bbe05300da95",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '9', '--aux', '0.2496027651485496', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "7ef20e15b2e58c39409687e29aeb16e835ea532c66210068739298cf4a9f4227",
     ""),
    (['fig2b', '--N', '1,19,22,23', '--kmax', '28'], 0,
     "0c74ece47241bc174e1ddf3d50c0e249e3c5d824665e8e6f03474ebec4a7cc22",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '4', '--aux', '0.12090203789971098', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "eddfc36a90d993d291959c9e3b61ff9759ff0ccbcb46fd716d1a96c3c713a124",
     ""),
    (['example1', '--preset', 'squeeze-inf', '--N', '8..46', '--s', '0.0668227589665487',
      '--format', 'json'], 0,
     "8f438c8ac7b0a71ef35774ecace5aa3259604df3ec745da904841ebb38c6b1f2",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '7', '--aux', '0.19528976095946415', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "700f4cd9b4b392f32a1475e8d6e18a8bdb542f7bf27417717679a9df69bd9675",
     ""),
    (['fig2b', '--N', '5,6,19', '--kmax', '27', '--format', 'json'], 0,
     "777750580e0e585ac0f39206a5e7ae6363690f0558fbb2f432cfdfa7cc9f9065",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '7', '--aux', '0.060349575077261866',
      '--lam', '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "ef11979a16ae73ef7d077d5bfc2f850812ac0fd5e6d34fba363697ad07a67edc",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '11', '--aux', '0.2868323347323185', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 5.207e-03'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '5', '--aux', '0.26509039882544266', '--lam',
      '0', '--step', '1e-4', '--engine', 'both'], 0,
     "d2f8f0b88788ab66495a25a271f69c7335dd2550621c2589ef4a8868bb8c5ea0",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '10', '--aux', '0.25', '--lam', '0',
      '--step', '1e-5', '--dim', '80', '--engine', 'both'], 0,
     "c981dfd73e080cdfa9e7f6b0bd08f786682a28cb2c62c9ddae69091e58e2cae8",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '10', '--aux', '0.15164451761993963',
      '--lam', '0', '--step', '1e-5', '--engine', 'both'], 0,
     "744e593bc5f1b880f74baeee207fca5a542a2953a1ff17984e4c135ab102f0be",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '11', '--aux', '0.2893123801696813', '--lam',
      '0', '--step', '1e-5', '--engine', 'both'], 0,
     "23852f2831e3af6c176bd49439071d81f231ca3d0c8bb23f53205af85281a9ec",
     ""),
    (['qfi', '--g', 'X^2', '--h', 'P^2', '--N', '6', '--aux', '0.13829571963275675',
      '--lam', '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "001fd1a41a156515ad927053c8839cfbdbdd94bf78c1c9f98a4db92e06742681",
     ""),
    (['qfi', '--g', 'X^2', '--h', 'P^2', '--N', '12', '--aux', '0.2786646742010518',
      '--lam', '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "863fdd3b4aaf73365feb53f7b2cc1b031e6cc96ac618af4e096a65b4d8e6c11a",
     ""),
    (['example1', '--preset', 'shear-k1', '--N', '8..60', '--s', '0.190200355195341',
      '--format', 'json'], 0,
     "53bb4ad7e233780784e9ce09f487ae96adc3ba79edc4238ea584a73ea105c91d",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '4', '--aux', '0.11245307624563024', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "f9ca88a624cd199b9a8a41ace6fab507bfb2511dac2481d235e7ce80f5cf480e",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '10', '--aux', '0.22762015865434093',
      '--lam', '0.1', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 3.300e-05'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['generator', '--preset', 'squeeze-inf', '--N', '6', '--aux', '0.1421373791999675'], 0,
     "6823722410b6b12948f2a96190ad69dcd7a3cd7ed45098abc6306bc8cfb1e993",
     ""),
    (['generator', '--preset', 'xp-constant', '--N', '9', '--aux', '0.19138719900987894'], 0,
     "d4ad9af1605407e5018cc56ae6377f5e4e1d07e471b9cbdcc97f68273bb7e977",
     ""),
    (['generator', '--preset', 'xp-constant', '--N', '6', '--aux', '0.042045717396111654'], 0,
     "fc71fa49687662b1290c6e6c32fe251a96381e58377ba6fbc20d683a6a13bd28",
     ""),
    (['qfi', '--g', 'X^2', '--h', 'P^2', '--N', '9', '--aux', '0.24320555754470125',
      '--lam', '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "b1ea8dace06379db91384fc6b1cfb02998ef3a0a2c89db551c2531b7adf949ea",
     ""),
    (['generator', '--preset', 'shear-k1', '--N', '8', '--aux', '0.1923952439985261'], 0,
     "ccd7febcc40dfaf26d7d85556121856dba0a5941b38ab3a580228b2675a95db1",
     ""),
]
