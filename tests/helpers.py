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
    DegenerateMeasurementError,
    LadderPolynomial,
    LeakageError,
    ProbeDescriptor,
    ValidationError,
    matrix_of,
    momentum_op,
    position_op,
    prepare_probe,
    run_protocol,
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
)
from ncmetro.gaussian import _VAR_RESOLUTION, _quadratic, _variance_along


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
# the floats of ``HermitianEvolver.apply``.  The overlaps, Bloch vectors and
# top amplitudes are the oracle's lone-state routines as they stood before
# scans took them as stacked products: one ``np.vdot`` or ``@`` per state.


def _top_amplitude(evolver, coeffs: np.ndarray) -> complex:
    """Last Fock amplitude of ``evolver.lift(coeffs)``, in O(dim)."""
    top = evolver._eigvecs[-1] @ coeffs
    return top if evolver._gauge is None else top * evolver._gauge[-1]


def _overlap_qfi(center: np.ndarray, plus: np.ndarray, minus: np.ndarray, step: float) -> float:
    dpsi = (plus - minus) / (2.0 * step)
    return 4.0 * (
        float(np.vdot(dpsi, dpsi).real) - abs(np.vdot(center, dpsi)) ** 2
    )


def _overlap_passes(state_at, x0: float):
    """Central-difference overlap QFI at x0 as a function of the step."""
    center = state_at(x0)
    return lambda h: _overlap_qfi(center, state_at(x0 + h), state_at(x0 - h), h)


def _qubit_qfi(r0: np.ndarray, plus: np.ndarray, minus: np.ndarray, step: float) -> float:
    """QFI of a qubit from its Bloch vectors at x0 and x0 +- step."""
    dr = (plus - minus) / (2.0 * step)
    qfi = float(dr @ dr)
    denom = 1.0 - float(r0 @ r0)
    if denom > 1e-9:
        qfi += float(r0 @ dr) ** 2 / denom
    return qfi


def _qfi_numeric_once(protocol, dim: int, step: float):
    probe = prepare_probe(protocol.probe, dim)
    n = protocol.n_applications
    evolver_g = _evolver(protocol.h_g, dim)
    after_aux = evolver_g.lift(evolver_g.phases(n * protocol.g_bar) * evolver_g.project(probe))
    _check_leakage(after_aux[-1], "qfi_numeric (auxiliary block)")
    # Eigen-coordinates of h_lambda: evolution is a phase per coefficient,
    # and overlaps, hence the QFI, do not depend on the basis.
    evolver_l = _evolver(protocol.h_lambda, dim)
    coeffs = evolver_l.project(after_aux)

    def state_at(lam: float) -> np.ndarray:
        return evolver_l.phases(n * lam) * coeffs

    for edge in (protocol.lambda_bar + step, protocol.lambda_bar - step):
        _check_leakage(_top_amplitude(evolver_l, state_at(edge)), "qfi_numeric (scan edge)")
    estimate = _richardson_qfi(_overlap_passes(state_at, protocol.lambda_bar),
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
        _check_leakage(branch_ab[-1], "switch_protocol")
        _check_leakage(branch_ba[-1], "switch_protocol")
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
        _check_leakage(branch_ab[-1], "switch_protocol")
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
    probe_vec = prepare_probe(probe or ProbeDescriptor.vacuum(), dim)
    if mode == "definite":
        return _richardson_qfi(_overlap_passes(_definite_states(n, p, probe_vec), x),
                               step, dim, "switch QFI")
    switch_at = _switch_states(n, p, probe_vec)
    if mode == "control":
        def bloch_at(xv: float) -> np.ndarray:
            ab, ba = switch_at(xv)
            rho_01 = np.vdot(ba, ab)  # control coherence <0|rho|1>
            return np.array([2.0 * rho_01.real, -2.0 * rho_01.imag,
                             (np.vdot(ab, ab) - np.vdot(ba, ba)).real])

        r0 = bloch_at(x)
        return _richardson_qfi(
            lambda h: _qubit_qfi(r0, bloch_at(x + h), bloch_at(x - h), h),
            step, dim, "control-QFI")
    return _richardson_qfi(_overlap_passes(lambda xv: np.concatenate(switch_at(xv)), x),
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


# -- the homodyne CFI over run_protocol -------------------------------------------
#
# ``cfi_quadrature`` as it stood when it read the final moments from the
# ``GaussianState`` that ``run_protocol`` returns, and the generator's
# quadratures afresh at every call.


def run_protocol_cfi(protocol, spec) -> float:
    state = run_protocol(protocol)
    (mean_x, mean_p), ((var_x, cov_xp), (_, var_p)) = state.mean.tolist(), state.cov.tolist()
    g_xx, g_pp, g_xp, d_x, d_p = _quadratic(LadderPolynomial(dict(protocol.h_lambda.terms)))
    n = protocol.n_applications
    cos, sin = math.cos(spec.theta), math.sin(spec.theta)
    var = _variance_along(cos, sin, var_x, cov_xp, var_p)
    if var < 1e-300:
        raise DegenerateMeasurementError(
            "measured quadrature variance vanished; Fisher information undefined"
        )
    size = cos * cos * abs(var_x) + 2.0 * abs(cos * sin * cov_xp) + sin * sin * abs(var_p)
    if var < _VAR_RESOLUTION * size:
        raise DegenerateMeasurementError(
            f"measured quadrature variance {var:.3e} is lost in the rounding of "
            f"covariance terms of size {size:.3e}; Fisher information not resolved"
        )
    ua_x, ua_p = cos * g_xp - sin * g_xx, cos * g_pp - sin * g_xp
    d_mean = n * ((ua_x * mean_x + ua_p * mean_p) + (cos * d_p - sin * d_x))
    d_var = 2.0 * n * ((ua_x * var_x + ua_p * cov_xp) * cos + (ua_x * cov_xp + ua_p * var_p) * sin)
    return d_mean ** 2 / var + 0.5 * d_var ** 2 / var**2


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
#: (their qfi_gaussian cells moved in the last bits).
ORACLE_POOL = [
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '80', '--mode', 'definite'], 0,
     "a7871c5ed45a1e64f4e4d3ff7a72fd5578fd36fe03f24092c92fca9f295ae6f6"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'joint'], 0,
     "ffc47ad41c1a5667814d666ab0d7cadb942a76f0eb0d475d42890e5e395ef44e"),
    (['fig3', '--N', '1..12', '--xi', '0.05478421329111705', '--alpha', '0.058489196250636144',
      '--dim', '140'], 0,
     "1ec6308ac78eb6a770e7286548c18785a4c891757be0bbcf89c9688438310b3b"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '110', '--mode', 'joint'], 0,
     "3f9a212b67495c32295e1bf4dcfe4cd45bef96bc52d60333db8663d54d1bd6cf"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'control'], 0,
     "4e35e6054ca995e8c14eab588aef152ecaa50562323b342c865bbc00564a545b"),
    (['fig3', '--N', '1..12', '--xi', '0.09522088189684784', '--alpha', '0.05635785300768742',
      '--dim', '140'], 0,
     "95408998295b98406ae62de7c7fc00121c6ee099c9e7bf6ec07ec8ebdb4abcf9"),
    (['fig3', '--N', '1..12', '--xi', '0.05779300492379055', '--alpha', '0.19829790306031891',
      '--dim', '80'], 0,
     "d02387f321dfd3d30297f5a758a9be4b4682704edeca09c4e18cdd386403b38f"),
    (['fig3', '--N', '1..12', '--xi', '0.09897310442419215', '--alpha', '0.4975887965498427',
      '--dim', '140'], 0,
     "ea25001b6cb9b1f8a61e3899565ba1a9f833b5f71087b86974aa5c0281cfd564"),
    (['fig3', '--N', '1..12', '--xi', '0.0723035402216447', '--alpha', '0.19893663594015332',
      '--dim', '140'], 0,
     "2f98a722545ef587ccc4eb677fce59c48c573b8c14d0ebe4120616f8a96596e5"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'definite'], 0,
     "3e3b44e1466c1545b0b5385d3d31c687dcf5cf96262d49d50aca118f4b3b203b"),
    (['fig3', '--N', '1..12', '--xi', '0.062871136984877', '--alpha', '0.293187459999862',
      '--dim', '110'], 0,
     "37a166dcef70a216ad1f38f6bb393a866af0676ca055b1cabaf08370fdd0274e"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'control'], 0,
     "4e35e6054ca995e8c14eab588aef152ecaa50562323b342c865bbc00564a545b"),
]

#: The oracle-scans pool's other commands: seed 7919, round 0, and seed 1,
#: round 1, whose x and xi carry the 1e-9 jitter.  Entries as in
#: ``ORACLE_POOL``, recorded while each scan still ran its oracle one row at
#: a time; the fig3 digests re-recorded as in ``ORACLE_POOL``.
ORACLE_POOL_2 = [
    (['fig3', '--N', '1..12', '--xi', '0.05365472351548517', '--alpha', '0.07508514729672061',
      '--dim', '110'], 0,
     "6eb21985bc9bf44dc7baafdd915bcc82fe096885388ed4e5cf62e7aaaaa90d85"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'definite'], 0,
     "9084103090a20326de82fca1318219a3a9cd583281a4f1b24c85c5e795684e05"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'definite'], 0,
     "3e3b44e1466c1545b0b5385d3d31c687dcf5cf96262d49d50aca118f4b3b203b"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '200', '--mode', 'control'], 0,
     "4e35e6054ca995e8c14eab588aef152ecaa50562323b342c865bbc00564a545b"),
    (['fig3', '--N', '1..12', '--xi', '0.057806997785026126', '--alpha', '0.40316864591585555',
      '--dim', '140'], 0,
     "1919ddd2e2d13d061600c22578adae4d638d6dff048b5bdfe586dbe2fce4563a"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '110', '--mode', 'joint'], 0,
     "3f9a212b67495c32295e1bf4dcfe4cd45bef96bc52d60333db8663d54d1bd6cf"),
    (['fig3', '--N', '1..12', '--xi', '0.05459252422466936', '--alpha', '0.4055282788782957',
      '--dim', '140'], 0,
     "f14766ce0a750d9924904ceba8ce523f32be0b0e9451f11e7cf64a694a831b50"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '170', '--mode', 'joint'], 0,
     "ffc47ad41c1a5667814d666ab0d7cadb942a76f0eb0d475d42890e5e395ef44e"),
    (['fig3', '--N', '1..12', '--xi', '0.09327499615237893', '--alpha', '0.20132729213847672',
      '--dim', '80'], 0,
     "42de1815299bde6238e5a7f1a4396732fd826c5a3b2cbed99aa10d98cc04a47e"),
    (['fig3', '--N', '1..12', '--xi', '0.06670522480187428', '--alpha', '0.48735330546950933',
      '--dim', '140'], 0,
     "dd8d4e211241794c24ea518088b10594facab280b37189149df3dfef742b7771"),
    (['fig3', '--N', '1..12', '--xi', '0.09763047957971971', '--alpha', '0.09860409460095854',
      '--dim', '140'], 0,
     "c37218064f9505ddf458367d6deba7b84b3d4185a4ca7353043d48308daa67f4"),
    (['switch', '--N', '1..6', '--x', '0.1', '--p', '0.2', '--dim', '80', '--mode', 'control'], 0,
     "799e8a1d61d443d5827f7814e0fd2d52c08fcdbeaced7438a172362f20113622"),
    (['fig3', '--N', '1..12', '--xi', '0.09522088199206873', '--alpha', '0.05635785300768742',
      '--dim', '140'], 0,
     "d763d292aa78c17a8bb26a20f286a38e47d1aec35c7ec48838729fa2a45026fa"),
    (['fig3', '--N', '1..12', '--xi', '0.05478421334590127', '--alpha', '0.058489196250636144',
      '--dim', '140'], 0,
     "041bf5131baf9633a5a327a37512c973b59d08668e0fb55745dedb12e4756347"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '80', '--mode', 'definite'], 0,
     "ea7e53e09db8d2ffd761ec83815d7be98c9b76ddd6219a80cc604ded3b2d1114"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '200', '--mode', 'control'], 0,
     "995bed9a0709ea0b01526468706ad02670a62fcb1e3f0a8f67de6762e9f3db8b"),
    (['fig3', '--N', '1..12', '--xi', '0.06287113704774813', '--alpha', '0.293187459999862',
      '--dim', '110'], 0,
     "7aee0f8b477ec559aeb76d076a1002c55d109aa106777e5f4dac5e426c815878"),
    (['fig3', '--N', '1..12', '--xi', '0.05779300498158356', '--alpha', '0.19829790306031891',
      '--dim', '80'], 0,
     "9470bbf5dd1760e05c038a2e6c3e54e220677063e6c64ffb60f8dc7bccf371ff"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '170', '--mode', 'joint'], 0,
     "31c54fe9d1ae36d629908b09c3eddcbf79f46d44117f07f2650019225bf975e4"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '200', '--mode', 'control'], 0,
     "995bed9a0709ea0b01526468706ad02670a62fcb1e3f0a8f67de6762e9f3db8b"),
    (['fig3', '--N', '1..12', '--xi', '0.09897310452316525', '--alpha', '0.4975887965498427',
      '--dim', '140'], 0,
     "fa06fde874e543a9434a56e3e6b111139975ae071b2cc8c16143ee076e9fb7f9"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '170', '--mode', 'definite'], 0,
     "d0be1a07823d7d6eeac8e3b74d5846c9a280623bf628681461308a8542d0233e"),
    (['fig3', '--N', '1..12', '--xi', '0.07230354029394825', '--alpha', '0.19893663594015332',
      '--dim', '140'], 0,
     "891b71bbd880d86885ab7807621c6763cb15b8ac93f44f2e62cbdee140d780fb"),
    (['switch', '--N', '1..6', '--x', '0.10000000010000001', '--p', '0.2',
      '--dim', '110', '--mode', 'joint'], 0,
     "d624526df4dfe8dffbb03ff80031cb19e85eba5b2243f671778ad5f9a0bee6b4"),
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
#: closed-tower generators became e^x/e^-x splits (last bits moved).
POINT_POOL = [
    (['qfi', '--preset', 'shear-k1', '--N', '11', '--aux', '0.2872671728892704', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 2.362e-07'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '8', '--aux', '0.16623111063471216', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "4bdf63f8b75f2101263d3a778299c3247d3683caaec5cf593848974a2743083c",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '10', '--aux', '0.22809262330411978', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "bd8953ddf8c4a003aaa3f93aa376d23d5ae9ba99d7f06d6d3d5c1ed8fff54510",
     ""),
    (['generator', '--preset', 'shear-k1', '--N', '3', '--aux', '0.05547456410175743'], 0,
     "54bef4cfec7362e92ec333f773361b3eac876f226a834b5372dd445492a2f529",
     ""),
    (['dvbound', '--pair', 'qubit', '--N', '1..39', '--gbar', '0.8927544249596328'], 0,
     "6c7ed94c552f5cdcc28a47785f2af879d25293513251ce0736b63e62f370c8d5",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '12', '--aux', '0.149866896968619', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "e7aed66e98671725a8b5909e3fe97a2017fd89132875c038256b2f94b4c0f15d",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '8', '--aux', '0.05694351632362723', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "1716ae98aac1744a0a48721ffcc11da87df163a891d4ae3d5534315892f3bb99",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '12', '--aux', '0.26255369300804726', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "f8bcf85f0e3700c431f1170405c08954d5e89af3f87288c2aae4b99b91dcf665",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '7', '--aux', '0.06816389775850713', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "53b04e1534605079ce09d8bb1a4e0e1de61d98041527f225eb75b8f5656d364b",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '9', '--aux', '0.14770349612663988', '--lam',
      '0', '--step', '1e-4', '--engine', 'both'], 0,
     "d7b53f4d9d4e71330fa3e6b701773db5f84221cf8a978b48947a17703860ff11",
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
     "7d0d4fbed44c2d84952db281366d78f75c5ec555d19da2702795a1db6c86fc31",
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
     "2ff1620f4d4dc326fe13be6d13a1afbb7825dfd786f34709daf759a126a6053d",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '9', '--aux', '0.2525944683032009', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 1.125e-07'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '7', '--aux', '0.06073841203833418', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "57fbcb3bb0c7bda483ca9d046b88655be113b142a4307868f96265b6af71e193",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '8', '--aux', '0.2834885031101344', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 2.569e-04'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'shear-k1', '--N', '9', '--aux', '0.2536946646354327', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "ba7736bb86f0f67b017e083b1e3b2fdb855e16551c08c0795b28cefb48172eef",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '12', '--aux', '0.1090530354729455', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "64ee3ebdb8dc28fc7593938f51c3f801665b8e9855c9bb3a07eb12984107389b",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '12', '--aux', '0.26040260397232273', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 8.578e-07'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '8', '--aux', '0.05818581289756403', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "0340a2d9021fbd5aabf56ff4144f6c9d3913f474443474f56e132d629abfc347",
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
     "2b0dd991a37c23a0fbd3eae035b587045a4ed473322580133345b3ded2e3541a",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '9', '--aux', '0.24580559648335557', '--lam',
      '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "f1c3d6e13335e5ee885fef502027775278530c50243c690bf2a48c71bc79da02",
     ""),
    (['example1', '--preset', 'xp-constant', '--N', '8..38', '--s', '0.25243101236714105'], 0,
     "c3f139ec0d3d3b03515639112912326c474a5faeb5f5ad7b8e38ded76debd32a",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '8', '--aux', '0.040911087162807544',
      '--lam', '0.1', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "c2a1050a7cbc7f1217b2cb6f4638832e7c59de44e30087fedf60220cc1e27074",
     ""),
    (['example1', '--preset', 'shear-k1', '--N', '8..23', '--s', '0.24495247586526248',
      '--format', 'json'], 0,
     "d351a446625670e600e08720dc92af3a2bab5d6c7e5e0eb2455e90dfbe7d2f64",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '7', '--aux', '0.19127957392259023', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "4f81df190604bbbe89b297d610bc4a6aa03696e08e28889348a09636cb9aa04d",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '10', '--aux', '0.13842255405494638', '--lam',
      '0', '--step', '1e-5', '--engine', 'both'], 0,
     "0821751d2e3fd559799012b11c80c368bc41182a31a312513aff362f68f053e7",
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
     "3d049c383b932e402c346021c330184f2ce2e2cd310ad08a5efe504ef029d9a0",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '9', '--aux', '0.2496027651485496', '--lam',
      '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "fb252a2067809d1a6ccf338a4803bc8368b4207d283618dc78462e91089e12ee",
     ""),
    (['fig2b', '--N', '1,19,22,23', '--kmax', '28'], 0,
     "0c74ece47241bc174e1ddf3d50c0e249e3c5d824665e8e6f03474ebec4a7cc22",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '4', '--aux', '0.12090203789971098', '--lam',
      '0.1', '--step', '1e-4', '--engine', 'both'], 0,
     "5031b927dc009a86376a309293398069cb93d63451dd3525e264405d442ec645",
     ""),
    (['example1', '--preset', 'squeeze-inf', '--N', '8..46', '--s', '0.0668227589665487',
      '--format', 'json'], 0,
     "8f438c8ac7b0a71ef35774ecace5aa3259604df3ec745da904841ebb38c6b1f2",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '7', '--aux', '0.19528976095946415', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "ce88709552a9fe660f868a97b47f6f4b5c02b11123a7cef2bbf12ebc42a34038",
     ""),
    (['fig2b', '--N', '5,6,19', '--kmax', '27', '--format', 'json'], 0,
     "777750580e0e585ac0f39206a5e7ae6363690f0558fbb2f432cfdfa7cc9f9065",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '7', '--aux', '0.060349575077261866',
      '--lam', '0', '--step', '1e-4', '--engine', 'both', '--format', 'json'], 0,
     "e7011a14a2f579af145cfcc4e66f42ee24bb7c69058007d5bb7c98bb0933e320",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '11', '--aux', '0.2868323347323185', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'numerical-trust failure: qfi_numeric (scan edge): top-level population 5.207e-03'
     ' exceeds 1e-08; increase the truncation dimension\n'),
    (['qfi', '--preset', 'squeeze-inf', '--N', '5', '--aux', '0.26509039882544266', '--lam',
      '0', '--step', '1e-4', '--engine', 'both'], 0,
     "a62ca5fdbc385e0e3e0eeba00e8db5db4caa06f217fe81143797e08752e7e76f",
     ""),
    (['qfi', '--preset', 'squeeze-inf', '--N', '10', '--aux', '0.25', '--lam', '0',
      '--step', '1e-5', '--dim', '80', '--engine', 'both'], 0,
     "2bf98d11c32728ad361ff76c3eaab561ad16f1bdac3d74b76f98a36729dd1f49",
     ""),
    (['qfi', '--preset', 'xp-constant', '--N', '10', '--aux', '0.15164451761993963',
      '--lam', '0', '--step', '1e-5', '--engine', 'both'], 0,
     "512f6432190dff243b28a13c7d96ad6311536d4a88ff0765b75e3157e5bf8fff",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '11', '--aux', '0.2893123801696813', '--lam',
      '0', '--step', '1e-5', '--engine', 'both'], 0,
     "c8f1215446533d07a13f4825418da98cb3c1d4126fed9cb9d06d9e48f6bead7f",
     ""),
    (['qfi', '--g', 'X^2', '--h', 'P^2', '--N', '6', '--aux', '0.13829571963275675',
      '--lam', '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "25121b8ce29ddec608f6a602f283446b5050b35d978463a188a2b730aa72e0ac",
     ""),
    (['qfi', '--g', 'X^2', '--h', 'P^2', '--N', '12', '--aux', '0.2786646742010518',
      '--lam', '0', '--step', '1e-5', '--engine', 'both', '--format', 'json'], 0,
     "73b484ea30616adc081367228d0edf4c9934ca56302b574f88758baab4d95763",
     ""),
    (['example1', '--preset', 'shear-k1', '--N', '8..60', '--s', '0.190200355195341',
      '--format', 'json'], 0,
     "53bb4ad7e233780784e9ce09f487ae96adc3ba79edc4238ea584a73ea105c91d",
     ""),
    (['qfi', '--preset', 'shear-k1', '--N', '4', '--aux', '0.11245307624563024', '--lam',
      '0.1', '--step', '1e-5', '--engine', 'both'], 0,
     "1a0d9d763e35c9f347693ad7f0d3809b3b8ce596fa3c2a05f45adaf8c3f8610f",
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
     "1b571d4c2c153ca7387cbc6da84485473ca664c7cffd9eed820f890e8fdd1b83",
     ""),
    (['generator', '--preset', 'shear-k1', '--N', '8', '--aux', '0.1923952439985261'], 0,
     "ccd7febcc40dfaf26d7d85556121856dba0a5941b38ab3a580228b2675a95db1",
     ""),
]
