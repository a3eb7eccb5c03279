"""Truncated Fock-space oracle: dense matrices, exact unitary evolution, the
exact quantum Fisher information, and the coherently controlled two-order
(quantum SWITCH) construction.

Everything here is deliberately independent of the symbolic generator route:
matrix elements come from the Fock basis in closed form, states are evolved
through eigendecompositions of the Hermitian generators, and the QFI comes
from the evolved state, so this module can certify the closed-form results
computed elsewhere.  States are plain numpy vectors: ``prepare_probe``
returns a fresh normalized amplitude array, and ``switch_protocol`` returns
the two branches of the switch, each weighted 1/sqrt(2).

A generator is decomposed once per dimension and process, in a bounded
least-recently-used cache (:func:`_evolver`): as a real symmetric matrix
where it, or its twin under the gauge G = diag(i^k), is real (P = G X G^dag
shares X's), and, in parity order (the even Fock levels, then the odd
ones), as two half-size blocks where it has definite photon-number parity
at even dimension (:class:`HermitianEvolver`).

There is one derivative, and it is exact: every family the oracle
differentiates ends in exp(-i N x H), so d|psi>/dx = -i N H|psi> and the QFI
is 4 N^2 Var[H] (Braunstein and Caves, PRL 72, 3439, 1994); the switch's
control qubit takes its branches' x-derivatives.  A scan runs its N values
as one stack, its probe prepared (once per descriptor and dimension, kept
read-only) and projected once; its changes of basis are stacked products and
its dots ``np.vecdot`` (slice by slice the dot of ``np.vdot``), so each row,
finished as Python scalars, keeps a lone row's floats, checks and texts.

Trust model: prepared and evolved vectors must keep the population of the
top Fock level |D-1> below ``LEAKAGE_THRESHOLD``, and the check reads that
level alone, wherever parity order puts it: in the probe, after the
auxiliary block, and at the leakage window's edges x +- step (each evolved
switch branch at x and x +- step).  ``step`` is the window's half-width; one
whose half moves x by less than sqrt(eps) max(1, |x|) is refused, since its
edges would not leave x.  A QFI is flagged untrusted only where parity keeps
the top level empty, since the leakage check then sees nothing.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    LeakageError,
    NumericalTrustError,
    ValidationError,
    require_finite,
)
from .ladder import LadderPolynomial, _BoundedLRU, momentum_op, position_op
from .protocols import EncodingProtocol, ProbeDescriptor

#: Population allowed at the top Fock level before a result is rejected.
LEAKAGE_THRESHOLD = 1e-8

#: Default truncation dimension for desk-scale workloads.
DEFAULT_DIM = 80

#: Default half-width of the leakage window around the parameter.
DEFAULT_STEP = 1e-4

_HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class MatrixOperator:
    """Dense operator on the truncated Fock space of dimension ``dim``."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (self.dim, self.dim):
            raise ValidationError("matrix shape does not match dim")
        if not np.isfinite(self.matrix).all():
            raise ValidationError("matrix entries must be finite")


def matrix_of(poly: LadderPolynomial, dim: int) -> MatrixOperator:
    """Embed a normal-ordered polynomial as a dense matrix: each term fills
    <k+m| ad^m a^n |k+n> = sqrt((k+n)!/k!) sqrt((k+m)!/k!), k < dim - max(m, n),
    multiplying square roots in the order of the chain of truncated ladder
    matrices ad^m a^n, so that every element equals that chain's."""
    if dim < 2:
        raise ValidationError("truncation dimension must be at least 2")
    out = np.zeros((dim, dim), dtype=complex)
    for (m, n), c in poly.terms.items():
        k = np.arange(dim - max(m, n))
        ad_part, a_part = np.ones(k.size), np.ones(k.size)
        for j in range(m, 0, -1):
            ad_part *= np.sqrt(k + j)
        for j in range(1, n + 1):
            a_part *= np.sqrt(k + j)
        out[k + m, k + n] += c * (ad_part * a_part)
    return MatrixOperator(dim=dim, matrix=out)


class HermitianEvolver:
    """Cached eigendecomposition of a Hermitian matrix H.

    ``apply(t, vec)`` returns exp(-i t H) vec of a Fock-basis vector, and
    ``unitary(t)`` the matrix exp(-i t H); reusing the decomposition makes
    parameter scans cheap.  A real H is decomposed as a real symmetric
    matrix V w V^T, every mat-vec a real product on the complex vector
    viewed as float pairs; any other H keeps a complex decomposition,
    applied through its real form on float pairs.  ``in_gauge`` gives the
    evolver of G H G^dag, G = diag(i^k), on the same decomposition:
    :func:`_evolver` decides from a generator's terms when it is such a
    twin (P = G X G^dag), so P's real decomposition is X's.

    The decomposition runs in parity order, the even Fock levels and then
    the odd ones.  At even dimension, where the two halves are equal, a
    generator of definite photon-number parity splits into two half-size
    blocks: an even H is block diagonal and takes one ``eigh`` per block,
    and an odd H = [[0, B], [B^dag, 0]] has eigenpairs +-sigma with vectors
    (u, +-w)/sqrt(2) from one SVD B = U sigma W^dag of the square B.  Any
    other H, and every H at odd dimension, is the one-block case.  The
    blocks are kept as one stack, so that each change of basis is one
    stacked product.  ``project``, ``phases``, ``spectrum`` and ``lift`` expose
    the eigen-coordinates, in which evolution is a diagonal phase; they read
    and write vectors in parity order and take stacks along leading axes,
    each slice with the floats of a lone vector.
    """

    def __init__(self, matrix: np.ndarray):
        drift = float(np.abs(matrix - matrix.conj().T).max())
        if drift > _HERMITIAN_TOL:
            raise ValidationError(
                f"evolution generator not Hermitian (max deviation {drift:.3e})"
            )
        dim = self._dim = matrix.shape[0]
        self._gauge, self._real = None, not matrix.imag.any()
        order = np.r_[0:dim:2, 1:dim:2]  # parity order, one copy of the real part if real
        matrix = (matrix.real if self._real else matrix)[np.ix_(order, order)]
        half, equal, self._pairs = dim // 2, dim % 2 == 0, False  # blocks need equal halves
        if equal and not matrix[:half, half:].any():  # even: the parity blocks are diagonal
            (w_even, v_even), (w_odd, v_odd) = (np.linalg.eigh(matrix[:half, :half]),
                                                np.linalg.eigh(matrix[half:, half:]))
            w, blocks = np.concatenate((w_even, w_odd)), np.stack((v_even, v_odd))
        elif equal and not (matrix[:half, :half].any() or matrix[half:, half:].any()):  # odd
            u, w, w_dag = np.linalg.svd(matrix[:half, half:])
            self._pairs = True  # coordinates (+sigma, -sigma)
            blocks = np.stack((u, w_dag.conj().T)) / math.sqrt(2.0)
        else:
            w, v = np.linalg.eigh(matrix)
            blocks = np.stack((v,))
        count, levels = blocks.shape[:2]
        if self._real:  # each part's float pairs as (levels, 2)
            self._blocks, self._operand = blocks, (count, levels, 2)
        else:  # a + ic on each part's float pairs, as one column: [[a, -c], [c, a]]
            self._blocks = np.empty((count, 2 * levels, 2 * levels))
            self._blocks[:, 0::2, 0::2] = self._blocks[:, 1::2, 1::2] = blocks.real
            self._blocks[:, 1::2, 0::2], self._blocks[:, 0::2, 1::2] = blocks.imag, -blocks.imag
            self._operand = (count, 2 * levels, 1)
        _read_only(self._blocks)  # _evolver shares instances
        self._adjoint = self._blocks.swapaxes(1, 2)
        self._w_max = float(np.abs(w).max())  # max|w|
        self._minus_iw = _read_only(-1j * w)
        top = np.zeros(dim, complex)
        top[_top_slot(dim)] = 1.0
        # conj of the top level's row of V: <D-1| G V c = vecdot(_top, c) gauge[top]
        self._top = _read_only(self._change(top, True).copy())
        self.nbytes = self._blocks.nbytes + self._minus_iw.nbytes + self._top.nbytes

    def in_gauge(self) -> "HermitianEvolver":
        """Evolver of G H G^dag that shares this decomposition of H."""
        twin = copy.copy(self)
        twin._gauge = _gauge(self._dim)
        return twin

    def _change(self, vecs: np.ndarray, adjoint: bool) -> np.ndarray:
        """V^dag vecs (``adjoint``) or V vecs, of vectors or coordinates in
        parity order: one stacked product of the blocks with the parts' float
        pairs.  An odd generator's coordinates are its block products folded,
        (x, y) -> (x + y, x - y) on the two parts' float pairs: the fold is
        exact, and its own inverse and transpose up to the 1/sqrt(2) that the
        blocks hold."""
        vecs = np.ascontiguousarray(vecs, dtype=complex)
        lead = vecs.shape[:-1]
        pairs = vecs.view(np.float64)
        if self._pairs and not adjoint:
            pairs = _FOLD @ pairs.reshape(lead + (2, self._dim))
        pairs = (self._adjoint if adjoint else self._blocks) @ pairs.reshape(lead + self._operand)
        if self._pairs and adjoint:
            pairs = _FOLD @ pairs.reshape(lead + (2, self._dim))
        return pairs.reshape(lead + (2 * self._dim,)).view(complex)

    def phases(self, t) -> np.ndarray:
        half = np.exp(np.multiply.outer(t, self._minus_iw))
        # +sigma, then -sigma as the conjugate of +sigma
        return np.concatenate((half, half.conj()), -1) if self._pairs else half

    def spectrum(self) -> np.ndarray:
        """The eigenvalue of each eigen-coordinate, in the order of ``phases``."""
        w = -self._minus_iw.imag
        return np.concatenate((w, -w)) if self._pairs else w

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Eigen-coordinates (G V)^dag vec of a vector in parity order."""
        return self._change(vec if self._gauge is None else self._gauge.conj() * vec, True)

    def lift(self, coeffs: np.ndarray) -> np.ndarray:
        """Vector G V coeffs, in parity order, of eigen-coordinates."""
        out = self._change(coeffs, False)
        return out if self._gauge is None else self._gauge * out

    def top_amplitudes(self, coeffs: np.ndarray) -> np.ndarray:
        """Amplitude of the top Fock level |D-1> in ``lift`` of each vector of
        a stack, in O(dim) each."""
        top = np.vecdot(self._top, coeffs)
        return top if self._gauge is None else top * self._gauge[_top_slot(self._dim)]

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        """exp(-i t H) vec of a Fock-basis vector, or of each of a stack."""
        return _to_fock(self.lift(self.phases(t) * self.project(_to_parity(vec))))

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i t H) in the Fock basis, column by column."""
        return self.apply(t, np.eye(self._dim)).T


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: The fold of an odd generator's two parts.
_FOLD = _read_only(np.array([[1.0, 1.0], [1.0, -1.0]]))


def _to_parity(vec: np.ndarray) -> np.ndarray:
    """A Fock-basis vector, or each of a stack, in parity order (the even
    levels, then the odd ones), as a fresh complex array."""
    return np.concatenate((vec[..., 0::2], vec[..., 1::2]), axis=-1, dtype=complex)


def _to_fock(vec: np.ndarray) -> np.ndarray:
    """The Fock-basis vector, or stack, of one in parity order."""
    out, even = np.empty_like(vec), (vec.shape[-1] + 1) // 2
    out[..., 0::2], out[..., 1::2] = vec[..., :even], vec[..., even:]
    return out


def _top_slot(dim: int) -> int:
    """Position of the top Fock level |dim - 1> in parity order."""
    return dim - 1 if dim % 2 == 0 else dim // 2


#: i^k for k = 0..3, exact.
_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def _gauge(dim: int) -> np.ndarray:
    """Diagonal of G = diag(i^k), in parity order; G^dag (ad^m a^n) G =
    i^(n-m) ad^m a^n.  Read-only: evolvers share it."""
    return _read_only(_to_parity(np.resize(np.array(_I_POWERS), dim)))


def _evolver(poly: LadderPolynomial, dim: int) -> HermitianEvolver:
    """Evolver of the embedded polynomial, decomposed once per (terms, dim).

    A polynomial whose gauge-rotated terms c i^(n-m) are real is evolved
    through the decomposition of that real polynomial, so P reuses X's; the
    gauge twin is made with the decomposition and kept with its entry, so a
    hit costs one lookup.  The sorted key and the gauge flag are derived
    once per polynomial and kept in its memo (:func:`_evolver_key`).
    """
    key, gauge = poly._memoised(_evolver_key)

    def decompose():
        evolver = HermitianEvolver(matrix_of(LadderPolynomial(dict(key)), dim).matrix)
        return evolver, evolver.in_gauge()

    return _cached_evolver((key, dim), decompose)[gauge]


def _evolver_key(poly: LadderPolynomial) -> tuple[tuple, bool]:
    """The sorted terms that :func:`_evolver` decomposes, and whether they
    are poly's gauge-rotated terms."""
    terms, gauge = poly.terms, False
    if any(c.imag for c in terms.values()):
        rotated = {(m, n): c * _I_POWERS[(n - m) % 4] for (m, n), c in terms.items()}
        if not any(c.imag for c in rotated.values()):
            terms, gauge = rotated, True
    return tuple(sorted(terms.items())), gauge


#: Decompositions as (evolver, gauge twin), bounded by the bytes the
#: evolver holds.  A real generator of definite parity holds its two
#: half-size blocks, about 4 dim^2 bytes (0.64 MB at dim 400), a real mixed
#: one about 8 dim^2, so the few generators and dimensions a session mixes
#: stay decomposed within 64 MiB, while large complex ones (16 dim^2 mixed,
#: 64 MB at dim 2000) do not pile up.  The floor keeps a scan's two
#: decompositions (X and P share one) at its dimension and at the retry
#: one, whatever their size.
_cached_evolver = _BoundedLRU(lambda entry: entry[0].nbytes, 64 * 2**20, floor=4)


def _evolution_time(n: int, value: float, name: str, w_max: float) -> float:
    """N * value, checked once per row: a largest phase N * value * max|w| that
    is not finite, or an N too large for a float, is a ValidationError."""
    try:
        if math.isfinite(n * value * w_max):
            return n * value
    except OverflowError:
        pass
    raise ValidationError(f"evolution time overflows: N*{name}*max|w| is not finite "
                          f"(N = {n}, {name} = {value!r})")


def _check_leakage(top: complex, context: str) -> None:
    """Reject a state whose top Fock amplitude ``top`` is too populated, or nan."""
    leak = _first_leak([top], context)
    if leak:
        raise leak


def _first_leak(tops, context: str) -> LeakageError | None:
    """The LeakageError of the first top amplitude of ``tops`` that is too
    populated, or nan."""
    for top in tops:
        pop = float(abs(top) ** 2)
        if not pop <= LEAKAGE_THRESHOLD:
            return LeakageError(f"{context}: top-level population {pop:.3e} exceeds "
                                f"{LEAKAGE_THRESHOLD:g}; increase the truncation dimension")


# -- probe preparation --------------------------------------------------------


def prepare_probe(probe: ProbeDescriptor, dim: int) -> np.ndarray:
    """The normalized truncated amplitude vector of a probe descriptor, as a
    fresh array."""
    return _to_fock(_probe(probe, dim))


def _probe(probe: ProbeDescriptor, dim: int) -> np.ndarray:
    """The probe's vector in parity order, prepared once per key and kept
    read-only.  The key holds the descriptor's repr, not the descriptor:
    descriptors that compare equal can prepare different bits (a real alpha
    and the same complex one), while the repr keeps every field's type and
    float bits apart."""
    return _cached_probe((repr(probe), dim), lambda: _read_only(_prepare(probe, dim)))


#: Prepared probe vectors, 16 dim bytes each.
_cached_probe = _BoundedLRU(lambda vec: vec.nbytes, 4 * 2**20)


def _prepare(probe: ProbeDescriptor, dim: int) -> np.ndarray:
    if dim < 2:
        raise ValidationError("truncation dimension must be at least 2")
    amps = np.zeros(dim, dtype=complex)
    if probe.kind == "vacuum":
        amps[0] = 1.0
    elif probe.kind == "coherent":
        # <n|alpha> = e^{-|alpha|^2/2} prod_{j<=n} alpha / sqrt(j)
        ratios = np.empty(dim, dtype=complex)
        try:
            ratios[0] = math.exp(-abs(probe.alpha) ** 2 / 2.0)
        except OverflowError:  # |alpha|^2 overflows: the amplitudes underflow to 0
            ratios[0] = 0.0
        ratios[1:] = probe.alpha / np.sqrt(np.arange(1, dim))
        amps[:] = np.cumprod(ratios)
    elif probe.kind == "squeezed_vacuum":
        # <2k|r,phi> / <2k-2|r,phi> = -e^{2i phi} tanh(r) sqrt((2k-1)/(2k))
        k = np.arange(1, (dim + 1) // 2)
        ratios = np.empty(k.size + 1, dtype=complex)
        try:
            ratios[0] = 1.0 / math.sqrt(math.cosh(probe.r))
        except OverflowError:  # cosh(r) overflows: the amplitudes underflow to 0
            ratios[0] = 0.0
        ratios[1:] = -np.exp(2j * probe.phi) * math.tanh(probe.r) * np.sqrt((2 * k - 1) / (2 * k))
        amps[::2] = np.cumprod(ratios)
    elif probe.kind == "fock_vector":
        given = np.asarray(probe.amplitudes, dtype=complex)
        if given.size > dim:
            raise ValidationError(
                f"probe needs {given.size} levels but truncation is {dim}"
            )
        amps[: given.size] = given
    else:  # pragma: no cover - ProbeDescriptor validates kinds
        raise ValidationError(f"unknown probe kind {probe.kind!r}")

    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValidationError("probe amplitudes are all zero")
    if abs(norm - 1.0) > 1e-6:
        raise LeakageError(
            f"probe lost {1 - norm**2:.3e} of its weight to truncation"
        )
    amps = amps / norm
    _check_leakage(amps[-1], "prepare_probe")
    return _to_parity(amps)


# -- exact QFI ----------------------------------------------------------------


@dataclass(frozen=True)
class QfiEstimate:
    """Exact-derivative QFI, its truncation and leakage-window half-width."""

    value: float
    trusted: bool
    dim: int
    step: float


def _variance_qfis(ns: Sequence[int], coords: Sequence[np.ndarray], w: np.ndarray) -> list:
    """4 N^2 Var[H], the QFI of exp(-i N x H)|psi> in x, of each row: H's
    eigenvalues ``w`` under the weights |c|^2 of its eigen-coordinates, the
    mean over ``coords``; a Python float with a lone row's bits."""
    weights = sum(c.real * c.real + c.imag * c.imag for c in coords) / len(coords)
    means = np.vecdot(weights, w)
    spreads = np.vecdot(weights, np.square(w - means[..., None]))
    return [4.0 * n * n * spread for n, spread in zip(ns, spreads.tolist())]


def _estimates(ns: Sequence[int], qfis: list, trusted: bool, dim: int, step: float) -> list:
    """Each row's QfiEstimate, or the ValidationError naming N of a QFI that
    is not finite."""
    return [QfiEstimate(qfi, trusted, dim, step) if math.isfinite(qfi) else
            ValidationError(f"QFI overflows: it is not finite (N = {n})")
            for n, qfi in zip(ns, qfis)]


#: sqrt(machine epsilon): the least relative move of the parameter that a
#: leakage window's half-width must make.
_STEP_FLOOR = math.sqrt(sys.float_info.epsilon)


def _check_step(step: float, x0: float) -> None:
    """The leakage window's half-width must be finite, and its half must move
    x0 by at least sqrt(eps) max(1, |x0|), so that the edges leave x0."""
    require_finite(step=step)
    floor = _STEP_FLOOR * max(1.0, abs(x0))
    if not step / 2.0 >= floor:
        raise ValidationError(f"step {step!r} is too small: its half must be at least "
                              f"{floor:.3g} (sqrt(eps) * max(1, |x0|) at x0 = {x0!r})")


def _results(outcomes: list) -> list:
    """The estimates of a scan's rows, or the first row's error raised."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def qfi_numeric(
    protocol: EncodingProtocol,
    dim: int = DEFAULT_DIM,
    step: float = DEFAULT_STEP,
    retries: int = 1,
) -> QfiEstimate:
    """Brute-force QFI of the protocol's output state w.r.t. lambda_bar:
    4 N^2 Var[H_lambda] in the state that exp(-i N lambda H_lambda) acts on.

    On leakage, after the auxiliary block or at the window edges
    lambda_bar +- step, the truncation dimension is doubled up to
    ``retries`` times before raising.
    """
    return _results(_qfi_rows(protocol, [protocol.n_applications], dim, step, retries))[0]


def _qfi_rows(protocol: EncodingProtocol, ns: Sequence[int], dim: int, step: float,
              retries: int = 1) -> list:
    """``qfi_numeric`` at each N of a scan: a row's estimate, or the error of
    its last attempt, the rows that leak retried together at twice the
    dimension; a refused time ends the list."""
    _check_step(step, protocol.lambda_bar)
    if retries < 0:
        raise ValidationError("retries must be >= 0")
    try:
        outcomes = _qfi_stack(protocol, ns, dim, step)
    except LeakageError as exc:  # the probe leaks
        outcomes = [exc] * len(ns)
    again = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, NumericalTrustError)]
    if retries and again:
        redo = _qfi_rows(protocol, [ns[i] for i in again], 2 * dim, step, retries - 1)
        for i, outcome in zip(again, redo):
            outcomes[i] = outcome
        if len(redo) < len(again):  # ended by a refused time
            del outcomes[again[len(redo) - 1] + 1:]
    return outcomes


def _leakage_check_blind(protocol: EncodingProtocol, dim: int) -> bool:
    """True when the top level, the only one ``_check_leakage`` reads, stays
    empty: the probe is even (vacuum or squeezed vacuum), both generators
    keep photon-number parity (every term ad^m a^n has m - n even) and the
    top level dim - 1 is odd."""
    return (dim % 2 == 0 and protocol.probe.kind in ("vacuum", "squeezed_vacuum")
            and all((m - n) % 2 == 0
                    for poly in (protocol.h_g, protocol.h_lambda) for m, n in poly.terms))


def _qfi_stack(protocol: EncodingProtocol, ns: list[int], dim: int, step: float) -> list:
    """One attempt of each row, its checks in a lone row's order (the g_bar
    time, the auxiliary block's leakage, the lambda time, the window edges'
    leakage, the QFI); no row past a refused time is evolved further."""
    probe = _probe(protocol.probe, dim)
    u_g = _evolver(protocol.h_g, dim)
    times, end = [], []
    for n in ns:
        try:
            times.append(_evolution_time(n, protocol.g_bar, "g_bar", u_g._w_max))
        except ValidationError as exc:
            end = [exc]
            break
    after_aux = u_g.lift(u_g.phases(times) * u_g.project(probe))
    top = _top_slot(dim)
    # in h_lambda's eigen-coordinates, evolution is a phase: |c|^2 keeps lambda out of the QFI
    lam_bar, evolver_l, outcomes, live = protocol.lambda_bar, None, [], []
    for i, n in enumerate(ns[:len(times)]):
        leak = _first_leak([after_aux[i, top]], "qfi_numeric (auxiliary block)")
        if leak is None:
            evolver_l = evolver_l or _evolver(protocol.h_lambda, dim)
            try:  # the window edges lam_bar +- step are the largest times
                _evolution_time(n, max(abs(lam_bar + step), abs(lam_bar - step)), "lambda",
                                evolver_l._w_max)
            except ValidationError as exc:
                end = [exc]
                break
            live.append(i)
        outcomes.append(leak)
    if not live:
        return outcomes + end
    coeffs = evolver_l.project(after_aux if len(live) == len(after_aux) else after_aux[live])
    edges = evolver_l.phases([[ns[i] * (lam_bar + step), ns[i] * (lam_bar - step)]
                              for i in live]) * coeffs[:, None]
    for i, tops in zip(live, evolver_l.top_amplitudes(edges)):
        outcomes[i] = _first_leak(tops, "qfi_numeric (scan edge)")
    kept = [j for j, i in enumerate(live) if outcomes[i] is None]
    rows = [ns[live[j]] for j in kept]
    qfis = _variance_qfis(rows, [coeffs[kept]], evolver_l.spectrum())
    trusted = not _leakage_check_blind(protocol, dim)
    for j, outcome in zip(kept, _estimates(rows, qfis, trusted, dim, step)):
        outcomes[live[j]] = outcome
    return outcomes + end


# -- quantum SWITCH (indefinite order of the two displacement blocks) ---------


#: The switch's displacement generators, built once so that each keeps its
#: evolver key in its memo across switch rows.
_X, _P = position_op(), momentum_op()


def _switch_rows(ns: Sequence[int], xs: Sequence[float], p: float, probe: np.ndarray,
                 both: bool, tangent: bool = False) -> tuple:
    """The switch over N of ``ns`` (ascending), unweighted: exp(-iNxP)
    exp(-iNpX)|psi> in P's eigen-coordinates and, if ``both``, the opposite
    order in X's, as stacks (rows, points, dim) over ``xs`` and, if
    ``tangent``, the x-derivative at xs[0] (-iN w_P in P's coordinates);
    their evolvers; their starts exp(-iNpX)|psi> and |psi> in P's; and per
    row None or its LeakageError.  A refused time ends rows and list."""
    if ns[0] < 1:
        raise ValidationError("switch protocol requires n >= 1")
    u_p = _evolver(_P, probe.size)  # exp(-i t P), t = N x
    u_x = _evolver(_X, probe.size)  # exp(-i t X), t = N p
    times, end = [], []
    for n in ns:
        try:
            _evolution_time(n, max(map(abs, xs)), "x", u_p._w_max)
            times.append(_evolution_time(n, p, "p", u_x._w_max))
        except ValidationError as exc:
            end = [exc]
            break
    rows = ns[:len(times)]
    phases_x = u_x.phases(times)
    starts = [u_p.project(u_x.lift(phases_x * u_x.project(probe)))]
    phases = u_p.phases(np.reshape([n * x for n in rows for x in xs], (len(rows), len(xs))))
    if tangent:
        slopes = np.multiply.outer([float(n) for n in rows], -1j * u_p.spectrum())
        phases = np.concatenate((phases, slopes[:, None] * phases[:, :1]), 1)
    coords, evolvers = [phases * starts[0][:, None]], [u_p, u_x]
    if both:
        starts.append(u_p.project(probe))
        coords.append(phases_x[:, None] * u_x.project(u_p.lift(phases * starts[1])))
    tops = np.stack([u.top_amplitudes(c[:, :len(xs)]) for u, c in zip(evolvers, coords)], -1)
    return (coords, evolvers, starts,
            [_first_leak(row.ravel(), "switch_protocol") for row in tops] + end)


def switch_protocol(n: int, x: float, p: float,
                    probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Superpose the two orders of N momentum and N position displacements.

    Returns the mode vectors of control 0, exp(-iNxP) exp(-iNpX) |psi>, and
    of control 1, the opposite order, each weighted 1/sqrt(2); by the Weyl
    relation they differ by the phase N^2 x p, so the control qubit picks up
    the product parameter.
    """
    coords, evolvers, _, outcomes = _switch_rows([n], [x], p, _to_parity(probe), True)
    _results(outcomes)
    return tuple(_to_fock(u.lift(c[0, 0]) / math.sqrt(2.0)) for u, c in zip(evolvers, coords))


def branch_phase_overlap(n: int, x: float, p: float, probe: np.ndarray) -> complex:
    """<psi| (U_A U_B)^dag (U_B U_A) |psi>; equals exp(-i N^2 x p) exactly."""
    ab, ba = switch_protocol(n, x, p, probe)
    return 2.0 * complex(np.vdot(ab, ba))  # each branch carries weight 1/sqrt(2)


def _control_qfis(ab: np.ndarray, ba: np.ndarray) -> list:
    """Control-qubit QFI |dr|^2 + (r . dr)^2 / (1 - |r|^2) of each row, the
    second term dropped for a pure qubit, from the unweighted branches and
    their x-derivatives as (rows, 2, dim): r = (Re rho, -Im rho, 0) with
    rho = <ba|ab>, as both branches keep the probe's norm."""
    rho = np.vecdot(ba[:, 0], ab[:, 0])
    d_rho = np.vecdot(ba[:, 1], ab[:, 0]) + np.vecdot(ba[:, 0], ab[:, 1])
    out = []
    for r, d in zip(rho.tolist(), d_rho.tolist()):
        qfi, tilt = d.real * d.real + d.imag * d.imag, r.real * d.real + r.imag * d.imag
        denom = 1.0 - (r.real * r.real + r.imag * r.imag)
        out.append(qfi + tilt * tilt / denom if denom > 1e-9 else qfi)
    return out


SWITCH_MODES = ("control", "joint", "definite")


def switch_qfi(
    n: int,
    x: float,
    p: float,
    probe: ProbeDescriptor | None = None,
    dim: int = DEFAULT_DIM,
    step: float = DEFAULT_STEP,
    mode: str = "control",
) -> QfiEstimate:
    """QFI of the switch construction w.r.t. x, its branches checked for
    leakage at x and x +- step.

    Modes:

    - ``control``: QFI of the reduced control qubit, which carries the
      relative branch phase N^2 x p; scales as N^4 p^2.
    - ``joint``: QFI of the full control+mode vector, 4 N^2 Var[P] under
      both branches' weights; for a vacuum probe it equals 2 N^2 + N^4 p^2
      (the mode displacement term plus the phase).
    - ``definite``: QFI of the single fixed-order branch exp(-iNxP)
      exp(-iNpX)|psi>; the phase channel is absent, leaving 2 N^2.  Only
      that branch is evolved and checked for leakage, so leakage of the
      opposite order, which this mode never reads, does not refuse it.
    """
    return _results(_switch_qfis([n], x, p, probe, dim, step, mode))[0]


def _switch_qfis(ns: Sequence[int], x: float, p: float, probe: ProbeDescriptor | None,
                 dim: int, step: float, mode: str) -> list:
    """``switch_qfi`` at each N of ``ns`` (ascending): a row's estimate or its
    error, the list ended by a refused time."""
    if mode not in SWITCH_MODES:
        raise ValidationError(f"mode must be one of {SWITCH_MODES}")
    require_finite(x=x, p=p)
    _check_step(step, x)
    probe_vec = _probe(probe or ProbeDescriptor.vacuum(), dim)
    coords, evolvers, starts, outcomes = _switch_rows(
        ns, (x, x + step, x - step), p, probe_vec, mode != "definite", mode == "control")
    kept = [j for j, outcome in enumerate(outcomes[:len(coords[0])]) if outcome is None]
    rows = [ns[j] for j in kept]
    if mode == "control":  # each order at x and its derivative
        qfis = _control_qfis(*(u.lift(c[np.ix_(kept, (0, -1))]) for u, c in zip(evolvers, coords)))
    else:  # the measured order's weights, or both orders' averaged
        qfis = _variance_qfis(rows, [starts[0][kept], *starts[1:]], evolvers[0].spectrum())
    for j, outcome in zip(kept, _estimates(rows, qfis, True, dim, step)):
        outcomes[j] = outcome
    return outcomes


# -- discrete-variable bound demonstration ------------------------------------


@dataclass(frozen=True)
class DvBoundRow:
    n: int
    qfi: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.qfi / self.bound


@dataclass(frozen=True)
class DvBoundReport:
    """QFI-vs-N sequence for a finite-dimensional pair, with the spectral bound.

    The conjugated generator h = N U h_lambda U^dag has the spectrum of
    N h_lambda, so 4 Var[h] <= N^2 (spread of h_lambda)^2 for every state and
    every N: finite dimension precludes any super-N^2 growth.
    """

    rows: tuple[DvBoundRow, ...]
    spectral_spread: float
    g_bar: float

    @property
    def max_ratio(self) -> float:
        return max(row.ratio for row in self.rows)


def dv_saturating_probe(h_lambda: np.ndarray) -> np.ndarray:
    """Equal superposition of the extreme eigenvectors of h_lambda."""
    _, vecs = np.linalg.eigh(h_lambda)
    probe = (vecs[:, 0] + vecs[:, -1]) / math.sqrt(2.0)
    return probe


def dv_bound_check(
    h_g: np.ndarray,
    h_lambda: np.ndarray,
    n_list: Sequence[int],
    g_bar: float,
    probe: np.ndarray,
) -> DvBoundReport:
    """Verify QFI <= N^2 (spectral spread of h_lambda)^2 for each N.

    Every entry is validated first; then every N's unitary, conjugated
    generator and vector are built at once as stacked arrays, each slice
    (and each row's two ``np.vdot``) with the floats of a lone N.

    Raises BoundViolationError if the inequality fails beyond float slack,
    which would signal an implementation bug rather than physics.
    """
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
    for n in n_list:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValidationError(f"n_list entries must be integers, not {n!r}")
        if n < 1:
            raise ValidationError("n_list entries must be >= 1")
    probe = np.asarray(probe, dtype=complex)
    norm = float(np.linalg.norm(probe)) if probe.shape == (d,) else math.nan
    if not 0.0 < norm < math.inf:
        raise ValidationError(f"probe must be a length-{d} vector with a finite nonzero norm")
    probe = probe / norm

    eig_l = np.linalg.eigvalsh(h_lambda)
    spread = float(eig_l[-1] - eig_l[0])
    w_g, v_g = np.linalg.eigh(h_g)
    w_max = float(max(-w_g[0], w_g[-1]))
    times = [_evolution_time(int(n), g_bar, "g_bar", w_max) for n in n_list]

    phases = np.exp(np.multiply.outer([1j * t for t in times], w_g))
    u = (v_g * phases[:, None, :]) @ v_g.conj().T
    h = np.array(n_list, dtype=float)[:, None, None] * (u @ h_lambda @ u.conj().swapaxes(1, 2))
    rows = []
    for n, vec in zip(n_list, h @ probe):
        mean = float(np.vdot(probe, vec).real)
        try:
            qfi = 4.0 * (float(np.vdot(vec, vec).real) - mean**2)
            bound = n**2 * spread**2
        except OverflowError:
            qfi = bound = math.inf
        if not (math.isfinite(qfi) and math.isfinite(bound)):
            raise ValidationError(f"QFI overflows: 4 Var[h] or its bound N^2 spread^2 "
                                  f"is not finite (N = {n})")
        if qfi > bound * (1.0 + 1e-9) + 1e-9:
            raise BoundViolationError(
                f"QFI {qfi!r} exceeds spectral bound {bound!r} at N={n}"
            )
        rows.append(DvBoundRow(n=int(n), qfi=qfi, bound=bound))
    return DvBoundReport(rows=tuple(rows), spectral_spread=spread, g_bar=g_bar)
