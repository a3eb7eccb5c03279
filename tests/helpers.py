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
point, and build probes one level at a time.  The per-row Fock references
are the oracle's own routines as they stood before scans reused their
probe work, and ``dv_bound_check`` as it stood before it stacked its N
values, kept verbatim, so the package must match them bit for bit.  The
Gaussian reference is the engine's former numpy path: 2x2 matrix products
and ``np.linalg.det``.  The coefficient peak is found by comparing every
exact ``Fraction`` value.  The reference formatter renders one term at a
time with f-strings, as the package once did.
"""

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from ncmetro import (
    ConvergenceError,
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
    _HERMITIAN_TOL,
    _check_leakage,
    _evolver,
    _leakage_check_blind,
    _richardson_qfi,
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
            probe = prepare_probe(protocol.probe, d)
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
    psi = prepare_probe(probe, dim)
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


# -- per-row Fock references ----------------------------------------------------
#
# ``_qfi_numeric_once`` and ``_switch_states`` as they stood when every row
# prepared and projected its own probe, and rebuilt every state it needed,
# and the definite order's branch evolved from the probe at every x; the two
# functions after them wrap them the way ``qfi_numeric`` and ``switch_qfi``
# do.  Each exp(-i t H) v is written out as ``lift(phases(t) * project(v))``,
# the floats of ``HermitianEvolver.apply``, on vectors in the oracle's parity
# order (even levels, then odd), and the leakage checks read the top level
# at its place in that order.  The overlaps, Bloch vectors and
# top amplitudes are the oracle's lone-state routines as they stood before
# scans took them as stacked products: one ``np.vdot`` or ``@`` per state.


def _top_amplitude(evolver, coeffs: np.ndarray) -> complex:
    """Top Fock amplitude of ``evolver.lift(coeffs)``, in O(dim): ``_top``
    is the conjugated row of the top level in the evolver's eigenvectors."""
    top = np.vdot(evolver._top, coeffs)
    return top if evolver._gauge is None else top * evolver._gauge[_top_slot(coeffs.size)]


def _overlap_qfi(center: np.ndarray, plus: np.ndarray, minus: np.ndarray, step: float) -> float:
    dpsi = (plus - minus) / (2.0 * step)
    return 4.0 * (
        float(np.vdot(dpsi, dpsi).real) - abs(np.vdot(center, dpsi)) ** 2
    )


def overlap_passes(state_at, x0: float):
    """Central-difference overlap QFI at x0 as a function of the step."""
    center = state_at(x0)
    return lambda h: _overlap_qfi(center, state_at(x0 + h), state_at(x0 - h), h)


def richardson_of_passes(pass_qfi, step: float, dim: int, what: str):
    """``_richardson_qfi`` of the coarse pass at ``step`` and the fine pass
    at ``step / 2``, computed in that order, as a lone row ran them."""
    coarse = pass_qfi(step)
    fine = pass_qfi(step / 2.0)
    return _richardson_qfi(coarse, fine, step, dim, what)


def _qubit_qfi(r0: np.ndarray, plus: np.ndarray, minus: np.ndarray, step: float) -> float:
    """QFI of a qubit from its Bloch vectors at x0 and x0 +- step."""
    dr = (plus - minus) / (2.0 * step)
    qfi = float(dr @ dr)
    denom = 1.0 - float(r0 @ r0)
    if denom > 1e-9:
        qfi += float(r0 @ dr) ** 2 / denom
    return qfi


def _qfi_numeric_once(protocol, dim: int, step: float):
    probe = _to_parity(prepare_probe(protocol.probe, dim))
    n = protocol.n_applications
    evolver_g = _evolver(protocol.h_g, dim)
    after_aux = evolver_g.lift(evolver_g.phases(n * protocol.g_bar) * evolver_g.project(probe))
    _check_leakage(after_aux[_top_slot(dim)], "qfi_numeric (auxiliary block)")
    # Eigen-coordinates of h_lambda: evolution is a phase per coefficient,
    # and overlaps, hence the QFI, do not depend on the basis.
    evolver_l = _evolver(protocol.h_lambda, dim)
    coeffs = evolver_l.project(after_aux)

    def state_at(lam: float) -> np.ndarray:
        return evolver_l.phases(n * lam) * coeffs

    for edge in (protocol.lambda_bar + step, protocol.lambda_bar - step):
        _check_leakage(_top_amplitude(evolver_l, state_at(edge)), "qfi_numeric (scan edge)")
    estimate = richardson_of_passes(overlap_passes(state_at, protocol.lambda_bar),
                                    step, dim, "finite-difference")
    if _leakage_check_blind(protocol, dim):
        estimate = replace(estimate, trusted=False)
    return estimate


def _switch_states(n: int, p: float, probe: np.ndarray):
    """The switch branches as a function of x.  The x-independent work is
    done once: exp(-iNpX)|psi> and |psi> are projected onto P's eigenbasis,
    so each x costs two lifts and one X evolution, and both branches are
    still checked for leakage in the Fock basis."""
    if n < 1:
        raise ValidationError("switch protocol requires n >= 1")
    u_p = _evolver(momentum_op(), probe.size)  # exp(-i t P), t = N x
    u_x = _evolver(position_op(), probe.size)  # exp(-i t X), t = N p
    after_x = u_p.project(u_x.lift(u_x.phases(n * p) * u_x.project(probe)))
    before_x = u_p.project(probe)

    def state_at(x: float) -> tuple[np.ndarray, np.ndarray]:
        phases = u_p.phases(n * x)
        branch_ab = u_p.lift(phases * after_x)
        branch_ba = u_x.lift(u_x.phases(n * p) * u_x.project(u_p.lift(phases * before_x)))
        _check_leakage(branch_ab[_top_slot(probe.size)], "switch_protocol")
        _check_leakage(branch_ba[_top_slot(probe.size)], "switch_protocol")
        return branch_ab / math.sqrt(2.0), branch_ba / math.sqrt(2.0)

    return state_at


def _definite_states(n: int, p: float, probe: np.ndarray):
    """The definite order's measured branch exp(-iNxP) exp(-iNpX)|psi>,
    evolved from the probe at every x and leakage-checked alone; weighted
    1/sqrt(2) as a switch branch and scaled back, as ``switch_qfi`` reads
    it."""
    if n < 1:
        raise ValidationError("switch protocol requires n >= 1")
    u_p = _evolver(momentum_op(), probe.size)
    u_x = _evolver(position_op(), probe.size)

    def state_at(x: float) -> np.ndarray:
        after_x = u_x.lift(u_x.phases(n * p) * u_x.project(probe))
        branch_ab = u_p.lift(u_p.phases(n * x) * u_p.project(after_x))
        _check_leakage(branch_ab[_top_slot(probe.size)], "switch_protocol")
        return branch_ab / math.sqrt(2.0) * math.sqrt(2.0)

    return state_at


def per_row_qfi(protocol, dim: int, step: float, retries: int = 1):
    """``qfi_numeric`` over the per-row ``_qfi_numeric_once``."""
    last_error = None
    for attempt in range(retries + 1):
        try:
            return _qfi_numeric_once(protocol, dim * 2**attempt, step)
        except (LeakageError, ConvergenceError) as exc:
            last_error = exc
    raise last_error


def per_row_switch_qfi(n: int, x: float, p: float, probe=None, dim: int = 80,
                       step: float = 1e-4, mode: str = "control"):
    """``switch_qfi`` over the per-row ``_switch_states``, or in definite
    mode over the per-row ``_definite_states``."""
    assert mode in SWITCH_MODES
    probe_vec = _to_parity(prepare_probe(probe or ProbeDescriptor.vacuum(), dim))
    if mode == "definite":
        return richardson_of_passes(overlap_passes(_definite_states(n, p, probe_vec), x),
                                    step, dim, "switch QFI")
    switch_at = _switch_states(n, p, probe_vec)
    if mode == "control":
        def bloch_at(xv: float) -> np.ndarray:
            ab, ba = switch_at(xv)
            rho_01 = np.vdot(ba, ab)  # control coherence <0|rho|1>
            return np.array([2.0 * rho_01.real, -2.0 * rho_01.imag,
                             (np.vdot(ab, ab) - np.vdot(ba, ba)).real])

        r0 = bloch_at(x)
        return richardson_of_passes(
            lambda h: _qubit_qfi(r0, bloch_at(x + h), bloch_at(x - h), h),
            step, dim, "control-QFI")
    return richardson_of_passes(overlap_passes(lambda xv: np.concatenate(switch_at(xv)), x),
                                step, dim, "switch QFI")


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
#: the oracle took parity blocks (its Fock cells moved in the last bits).
ORACLE_POOL = [
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '80', '--mode', 'definite'], 0,
     "73b922b730a5a926f1dca5174b9f8c72fe3dd83209d847d91d101794d885f247"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'joint'], 0,
     "da8a2ab95c54a9677244afee85ecd6140db866286aab1f3866750c6d016c4f10"),
    (['fig3', '--N', '1..12', '--xi', '0.05478421329111705', '--alpha', '0.058489196250636144',
      '--dim', '140'], 0,
     "c6267f70cb30c545e09aa5a9608e0aff740fa9811d6292bf7739c25128f0a281"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '110', '--mode', 'joint'], 0,
     "eb8349f8165587ae15bad6bc300271b99b12451ad9fb048b8953c687b1d2ac87"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'control'], 0,
     "11e36ef0a9391969060ca820fc39c05becc097fa7aa53923b6e073944ee2a423"),
    (['fig3', '--N', '1..12', '--xi', '0.09522088189684784', '--alpha', '0.05635785300768742',
      '--dim', '140'], 0,
     "71a54a514bc7a13175731a048e0e8e5c8822754ed0a29bf35512c06eaa5ec8cd"),
    (['fig3', '--N', '1..12', '--xi', '0.05779300492379055', '--alpha', '0.19829790306031891',
      '--dim', '80'], 0,
     "66716d8caf05bf1c488ab58915c755c7d7ab1f519cba54091d522deb623558de"),
    (['fig3', '--N', '1..12', '--xi', '0.09897310442419215', '--alpha', '0.4975887965498427',
      '--dim', '140'], 0,
     "df01e1989c2d260e08a76399d513fc1530350e8351ff9ca79ed791523c75115a"),
    (['fig3', '--N', '1..12', '--xi', '0.0723035402216447', '--alpha', '0.19893663594015332',
      '--dim', '140'], 0,
     "c4d6743b0bf061de8ec1332edc6d08ca51f70ecb0dcd2a26d92dc69ccabb4779"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'definite'], 0,
     "11df18c93e98017cfc26ecc74b1c7a28b97c15b137855bb5918f3882da862796"),
    (['fig3', '--N', '1..12', '--xi', '0.062871136984877', '--alpha', '0.293187459999862',
      '--dim', '110'], 0,
     "94f75fc33bb1bab8da2f6ee5666f2baadf710f1c928793df02e1745d82c229a7"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'control'], 0,
     "11e36ef0a9391969060ca820fc39c05becc097fa7aa53923b6e073944ee2a423"),
]

#: The oracle-scans pool's other commands: seed 7919, round 0, and seed 1,
#: round 1, whose x and xi carry the 1e-9 jitter.  Entries as in
#: ``ORACLE_POOL``, recorded while each scan still ran its oracle one row at
#: a time; the digests re-recorded as in ``ORACLE_POOL``.
ORACLE_POOL_2 = [
    (['fig3', '--N', '1..12', '--xi', '0.05365472351548517', '--alpha', '0.07508514729672061',
      '--dim', '110'], 0,
     "96d0530dfebae8028578f92b7ee1528528ad2c26f1433f042d81004a18573253"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'definite'], 0,
     "4aba57667b869f349610d034cce2c90583aec3ecef0dd61ade5d57825d6c4813"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'definite'], 0,
     "11df18c93e98017cfc26ecc74b1c7a28b97c15b137855bb5918f3882da862796"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'control'], 0,
     "11e36ef0a9391969060ca820fc39c05becc097fa7aa53923b6e073944ee2a423"),
    (['fig3', '--N', '1..12', '--xi', '0.057806997785026126', '--alpha', '0.40316864591585555',
      '--dim', '140'], 0,
     "952b5a94b7586a8cd5e4863306f567316b94746ff5539ff81df9936186bc83a4"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '110', '--mode', 'joint'], 0,
     "eb8349f8165587ae15bad6bc300271b99b12451ad9fb048b8953c687b1d2ac87"),
    (['fig3', '--N', '1..12', '--xi', '0.05459252422466936', '--alpha', '0.4055282788782957',
      '--dim', '140'], 0,
     "05cc271799380fa072c8c5db8ddd5d0261de8c295db5ccf223ef49ed271c8cdb"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'joint'], 0,
     "da8a2ab95c54a9677244afee85ecd6140db866286aab1f3866750c6d016c4f10"),
    (['fig3', '--N', '1..12', '--xi', '0.09327499615237893', '--alpha', '0.20132729213847672',
      '--dim', '80'], 0,
     "d769b61df69850c21dd599b28d942b53ebc94a1a4a38b4d3e4ec740eaadfc2d8"),
    (['fig3', '--N', '1..12', '--xi', '0.06670522480187428', '--alpha', '0.48735330546950933',
      '--dim', '140'], 0,
     "6432680c3c7bf956cb0928b18efab470401c73b7d09aa8a8a2016d90e42f52f2"),
    (['fig3', '--N', '1..12', '--xi', '0.09763047957971971', '--alpha', '0.09860409460095854',
      '--dim', '140'], 0,
     "a7e4eb4c2717c13383681f0f3f48fb65b806fc55ef89e6b5b6b1090423036fea"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '80', '--mode', 'control'], 0,
     "dbfe2d1ef5801f549cb4e3d299f411da372906fa15a4721093ebcdd526e8f4de"),
    (['fig3', '--N', '1..12', '--xi', '0.09522088199206873', '--alpha', '0.05635785300768742',
      '--dim', '140'], 0,
     "943c10a5df732c361451baf375ede8c3031004551da7411004c979c4e94ba07c"),
    (['fig3', '--N', '1..12', '--xi', '0.05478421334590127', '--alpha', '0.058489196250636144',
      '--dim', '140'], 0,
     "8d4e2c5ae81bcaa4454193ec90707e08e5bf356acdf84b35c25685881866dde3"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '80', '--mode', 'definite'], 0,
     "891dce70c3e5a2f46f126ae977b72513496b0961bfa2696f44a9f676e97dc3dd"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '200', '--mode', 'control'], 0,
     "f48a114740f124a02e72e79634576b8fdbea9721a5efc58d4154860a92fa3564"),
    (['fig3', '--N', '1..12', '--xi', '0.06287113704774813', '--alpha', '0.293187459999862',
      '--dim', '110'], 0,
     "d4b4ea9b983407f0cd0e4031b13f219eb7de99280c74a79024542b00a5e3db82"),
    (['fig3', '--N', '1..12', '--xi', '0.05779300498158356', '--alpha', '0.19829790306031891',
      '--dim', '80'], 0,
     "e075ed19efaafe3f9ddf639667533a4485072468b23412e320a6ddbd0aacac6a"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '170', '--mode', 'joint'], 0,
     "77d3ab55cb34c14a6b285c5e44bf0932b642daae9e3a0a6dba4286080db64157"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '200', '--mode', 'control'], 0,
     "f48a114740f124a02e72e79634576b8fdbea9721a5efc58d4154860a92fa3564"),
    (['fig3', '--N', '1..12', '--xi', '0.09897310452316525', '--alpha', '0.4975887965498427',
      '--dim', '140'], 0,
     "7f18df2ba2c2cd7719240a828cb7f81239b53bca287ab19b802edc80ba2647eb"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '170', '--mode', 'definite'], 0,
     "3f5f271c6295341ed9f8e925b0b550894fe2f687c6c468d01ad5126919651992"),
    (['fig3', '--N', '1..12', '--xi', '0.07230354029394825', '--alpha', '0.19893663594015332',
      '--dim', '140'], 0,
     "ee0fbf1fcd42faf54140c90303008c26084b5c9070e30f54b9fbbd78a5c9aa70"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '110', '--mode', 'joint'], 0,
     "eb1413507ec478fa5d81fea6ed8a8391c27ef968028ba97f3873616409882631"),
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
#: moved).
POINT_POOL = [
    (['qfi', '--preset', 'shear-k1', '--N', '11', '--aux', '0.2872671728892704', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 2.362e-07'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '8', '--aux', '0.16623111063471216', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "4975e52810dab229ef4974bb200e3b13cb8861f0590cd82b97f7f24eed78e4de",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '10', '--aux', '0.22809262330411978', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "e86da0f1241c49540ee9affc16a2c91187cc0babb738d9dc994a45ccac0a7d0f",
     ""),
    (['generator', '--preset', 'shear-k1', '--N', '3', '--aux', '0.05547456410175743'], 0,
     "54bef4cfec7362e92ec333f773361b3eac876f226a834b5372dd445492a2f529",
     ""),
    (['dvbound', '--pair', 'qubit', '--N', '1..39', '--gbar', '0.8927544249596328'], 0,
     "6c7ed94c552f5cdcc28a47785f2af879d25293513251ce0736b63e62f370c8d5",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '12', '--aux', '0.149866896968619', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "9f729d650dc2431ae8f0d7a78520e6610007cb3005f72e876f0f915855006a66",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '8', '--aux', '0.05694351632362723', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "fa2e67dee4a1064b4fbd3544bb5535fe3f5b72c8bc69fcd6260724945e0a2ea9",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '12', '--aux', '0.26255369300804726', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "eb7a260ebf59f561ed715636cb7b070929302d725c4792a14f17f4098a17cbba",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '7', '--aux', '0.06816389775850713', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "17298b62713e360d9d3c2aa3f692cdc680d02783b77b3f908f49d0fb577c064e",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '9', '--aux', '0.14770349612663988', '--lam',
      '0', '--step', '1e-4', '--engine', 'both'], 0,
     "63867758e4612c9940e57dc6451cb6010f8fd283fc8758a45f18a121018d3323",
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
     "2a176260bd9f881db75a2339b7b553f5691fe1cbf7bb042da8f2be8801ef1804",
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
     "2d6f8db63cdf28d3d36dd5da9e6215046ff4e3dfe5a0b11a10342c0a8cae9112",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '9', '--aux', '0.2525944683032009', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 1.125e-07'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '7', '--aux', '0.06073841203833418', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "cc0fb3713b2ef9bc5e244481204e55ee953190d4c4072dcf4dba2b8bcc4ab849",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '8', '--aux', '0.2834885031101344', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 2.569e-04'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'shear-k1', '--N', '9', '--aux', '0.2536946646354327', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "78ed0adffea6333b4252cf49c542033e39b3dc9a3418e06aaaa2d69e9fccf7a3",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '12', '--aux', '0.1090530354729455', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "bd27ec6f0ca3287b45a961b52ca2ab4456dc26d5f222df6ba9bf38081e91af3d",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '12', '--aux', '0.26040260397232273', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 8.578e-07'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '8', '--aux', '0.05818581289756403', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "b3aa29c895460a64431201cc8e55b14858c5430683d839db301161aec50fc294",
     ""),
    (['fig2b', '--N', '18,24', '--kmax', '33', '--format', 'json'], 0,
     "b95675bbbb4f36805dbac078f231e56362d9ba2e9191b932267e4804b57d73f1",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '10', '--aux', '0.04113167909437091',
      '--lam', '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "5d4eec7e3e13a2467a16baa0aa4f714b4a6c4907676b2632e5d5c837b2faa66f",
     ""),
    (['dvbound', '--pair', 'qubit', '--N', '1..15', '--gbar', '0.8125953363333489'], 0,
     "9b6bc7ed442bc09085a4f04bb07285cb2351af354c144e5a03f1021c68a82fe5",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '12', '--aux', '0.18750982686822806', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "5584cf3ea9412679cd741efb95795ab1dbbd83782849cfa82ed87fd1472eadcb",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '9', '--aux', '0.24580559648335557', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "7f6ea32f99fd49e9337561176b7e42aa55edb8a2825780face7fd5085a620b1d",
     ""),
    (['example1', '--preset', 'xp-constant', '--N', '8..38', '--s', '0.25243101236714105'], 0,
     "c3f139ec0d3d3b03515639112912326c474a5faeb5f5ad7b8e38ded76debd32a",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '8', '--aux', '0.040911087162807544',
      '--lam', '0.1', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "283b8af922e8d0e7fa5709c08b1782608e98d9472b14cc2bca6f3d70f05b3750",
     ""),
    (['example1', '--preset', 'shear-k1', '--N', '8..23', '--s', '0.24495247586526248',
      '--format', 'json'], 0,
     "d351a446625670e600e08720dc92af3a2bab5d6c7e5e0eb2455e90dfbe7d2f64",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '7', '--aux', '0.19127957392259023', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "70019ee26e53d3f630cebd889a6728e75e403c75a021eb3ddbf122cdcf61cbaa",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '10', '--aux', '0.13842255405494638', '--lam',
      '0', '--step', '1e-5', '--engine', 'both'], 0,
     "a5842d29a24bb5207550fa5216743c4b6f8c8263c947394aa6455a4815612856",
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
     "1a3a7edc677dc6da719d3b70ad3b7ff1672ed5db1c9967643ba0a3e18b5048f2",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '9', '--aux', '0.2496027651485496', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "98ad5287d1d015ae5e082196a231d5f2baf5ce51df0780007833cf55d7f422ff",
     ""),
    (['fig2b', '--N', '1,19,22,23', '--kmax', '28'], 0,
     "0c74ece47241bc174e1ddf3d50c0e249e3c5d824665e8e6f03474ebec4a7cc22",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '4', '--aux', '0.12090203789971098', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "cba058c061667bba89b9fb9618bf521a0d666de3e5e3b15dfacd95d0d690bc7d",
     ""),
    (['example1', '--preset', 'squeeze-inf', '--N', '8..46', '--s', '0.0668227589665487',
      '--format', 'json'], 0,
     "8f438c8ac7b0a71ef35774ecace5aa3259604df3ec745da904841ebb38c6b1f2",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '7', '--aux', '0.19528976095946415', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "217b4226e7a322bf9349d7e7a9b7b711abffad8d6fcb3484ce0a720853563883",
     ""),
    (['fig2b', '--N', '5,6,19', '--kmax', '27', '--format', 'json'], 0,
     "777750580e0e585ac0f39206a5e7ae6363690f0558fbb2f432cfdfa7cc9f9065",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '7', '--aux', '0.060349575077261866',
      '--lam', '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "eb5b3acf7aadfa6fde9d16b23a47ffaa807607fc25d65e4e54b847201c9b807c",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '11', '--aux', '0.2868323347323185', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 5.207e-03'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '5', '--aux', '0.26509039882544266', '--lam',
      '0', '--step', '1e-4', '--engine', 'both'], 0,
     "1d1252583b10291bb9e944b1d9acd8d2163510e0243c6d938d09cec006a00d12",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '10', '--aux', '0.25', '--lam', '0',
      '--step', '1e-5', '--dim', '80', '--engine', 'both'], 0,
     "831597f2408adfa805c48d6e2624d4cfe5e3e5b441617fc0a46ddfc6bbbdb505",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '10', '--aux', '0.15164451761993963',
      '--lam', '0', '--step', '1e-5', '--engine', 'both'], 0,
     "6fd7bc5c95a92b3c3f458ce526b7d09b21cb49934cada331636e8a758e57309d",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '11', '--aux', '0.2893123801696813', '--lam',
      '0', '--step', '1e-5', '--engine', 'both'], 0,
     "33805ee46d949bdad7aaa3b997630be26ec70d115cd31696aa1cc01c90caed75",
     ""),
    (['qfi', '--g', 'X^2', '--h', 'P^2', '--N', '6', '--aux', '0.13829571963275675',
      '--lam', '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "5bf9fa8e25f2a85fd60cbf3674749c314a7783e311e588aab5fcc3dd975edf23",
     ""),
    (['qfi', '--g', 'X^2', '--h', 'P^2', '--N', '12', '--aux', '0.2786646742010518',
      '--lam', '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "1dd9be2173bfaeb3eff6a546672e2dde829ccac19a2624cf09354aac1ba657bf",
     ""),
    (['example1', '--preset', 'shear-k1', '--N', '8..60', '--s', '0.190200355195341',
      '--format', 'json'], 0,
     "53bb4ad7e233780784e9ce09f487ae96adc3ba79edc4238ea584a73ea105c91d",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '4', '--aux', '0.11245307624563024', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "6c8b5931fb5c29401180878fde6a4a42c0287250d4beb4c3cbc364db3ea5eb81",
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
     "316339f851caafad3ee9918bc0b1b746d6d452ad056612ef5e5131ed84f7b55e",
     ""),
    (['generator', '--preset', 'shear-k1', '--N', '8', '--aux', '0.1923952439985261'], 0,
     "ccd7febcc40dfaf26d7d85556121856dba0a5941b38ab3a580228b2675a95db1",
     ""),
]
