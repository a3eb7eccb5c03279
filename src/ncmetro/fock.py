"""Truncated Fock-space oracle: dense matrices, exact unitary evolution,
finite-difference quantum Fisher information, and the coherently controlled
two-order (quantum SWITCH) construction.

Everything here is deliberately independent of the symbolic generator route:
matrix elements come from the Fock basis in closed form, states are evolved
through eigendecompositions of the Hermitian generators, and the QFI comes
from state overlaps, so this module can certify the closed-form results
computed elsewhere.  States are plain numpy vectors: ``prepare_probe``
returns a fresh normalized amplitude array, and ``switch_protocol`` returns
the two branches of the switch, each weighted 1/sqrt(2).

A generator is decomposed once per dimension and process: the bounded
least-recently-used cache of :mod:`ladder`, sized by eigenvector bytes,
shares each decomposition between a scan's rows and between calls.
A real generator, or one that the diagonal gauge G = diag(i^k) makes real,
gets a real symmetric decomposition and real mat-vecs; X and P = G X G^dag
share one.  Finite differences run in the eigen-coordinates of H_lambda,
where each point is a phase per coefficient.  A scan runs its N values as
one stack: the probe is prepared (once per descriptor and dimension, kept
read-only) and projected once, one exponential covers every row, point
and eigenvalue, and each change of basis is one stacked product whose
slices keep a lone row's floats.  The passes' overlaps (both passes of a
``qfi_numeric`` stack in one product), the switch's Bloch vectors and the
scan edges' top amplitudes are stacked BLAS dots (``np.vecdot``, slice by
slice the dot of ``np.vdot``; stacked ``(..., 1, D) @ (..., D, 1)``
products give the same bits at about twice the cost, a conjugated copy and
a matrix product per slice); each row then takes
the modulus of its overlaps, its Richardson step and its trust checks, in
a lone row's order and with a lone row's error texts.  A single query is a
one-row stack.  The definite-order switch evolves only its measured branch.

Trust model: prepared and evolved vectors must keep the population of the
top Fock level below ``LEAKAGE_THRESHOLD``; finite-difference QFI runs a
second pass at half step and Richardson-extrapolates, flagging the result
untrusted above 0.5% pass disagreement and erroring above 5%.  A QFI is
also flagged untrusted when parity keeps the top level empty, since the
leakage check then sees nothing.  A step whose half moves the parameter
by less than sqrt(eps) max(1, |x0|) is refused: its passes read rounding
noise, or zero, and can agree.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    ConvergenceError,
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

#: Default finite-difference step for the QFI derivative.
DEFAULT_STEP = 1e-4

_HERMITIAN_TOL = 1e-10
_UNTRUSTED_REL = 0.005
_ERROR_REL = 0.05


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

    ``apply(t, vec)`` returns exp(-i t H) vec; reusing the decomposition makes
    parameter scans cheap.  A real H, or one that the diagonal gauge
    G = diag(i^k) makes real (G^dag H G has an exactly zero imaginary part,
    as for P = G X G^dag), is decomposed as that real symmetric matrix
    V w V^T, so H = (G V) w (G V)^dag with V real and every mat-vec a real
    product on the complex vector viewed as float pairs; any other H keeps a
    complex decomposition.  ``project``, ``phases`` and ``lift`` expose the
    eigen-coordinates, in which evolution is a diagonal phase; they take
    stacks along leading axes, each slice with the floats of a lone vector.
    """

    def __init__(self, matrix: np.ndarray):
        drift = float(np.abs(matrix - matrix.conj().T).max())
        if drift > _HERMITIAN_TOL:
            raise ValidationError(
                f"evolution generator not Hermitian (max deviation {drift:.3e})"
            )
        self._gauge = None
        if matrix.imag.any():
            gauge = _gauge(matrix.shape[0])
            rotated = gauge.conj()[:, None] * matrix * gauge
            if not rotated.imag.any():
                matrix, self._gauge = rotated, gauge
        self._real = not matrix.imag.any()
        self._eigvals, self._eigvecs = np.linalg.eigh(matrix.real if self._real else matrix)
        self._eigvals.flags.writeable = self._eigvecs.flags.writeable = False  # _evolver shares instances
        self._w_max = float(max(-self._eigvals[0], self._eigvals[-1]))  # max|w|
        self._minus_iw = _read_only(-1j * self._eigvals)

    def in_gauge(self) -> "HermitianEvolver":
        """Evolver of G H G^dag that shares this real decomposition of H."""
        twin = copy.copy(self)
        twin._gauge = _gauge(self._eigvals.size)
        return twin

    def phases(self, t) -> np.ndarray:
        return np.exp(np.multiply.outer(t, self._minus_iw))

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Eigen-coordinates (G V)^dag vec of a Fock-basis vector."""
        if self._gauge is not None:
            vec = self._gauge.conj() * vec
        if self._real:
            return _real_times(self._eigvecs.T, vec)
        return (vec.conj()[..., None, :] @ self._eigvecs)[..., 0, :].conj()

    def lift(self, coeffs: np.ndarray) -> np.ndarray:
        """Fock-basis vector G V coeffs of eigen-coordinates."""
        out = (_real_times(self._eigvecs, coeffs) if self._real
               else (self._eigvecs @ coeffs[..., None])[..., 0])
        return out if self._gauge is None else self._gauge * out

    def top_amplitudes(self, coeffs: np.ndarray) -> np.ndarray:
        """Last Fock amplitude of ``lift`` of each vector of a stack, in O(dim)
        each."""
        row = self._eigvecs[-1]
        top = np.vecdot(row if self._real else row.conj(), coeffs)
        return top if self._gauge is None else top * self._gauge[-1]

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        return self.lift(self.phases(t) * self.project(vec))

    def unitary(self, t: float) -> np.ndarray:
        u = (self._eigvecs * self.phases(t)) @ self._eigvecs.conj().T
        return u if self._gauge is None else self._gauge[:, None] * u * self._gauge.conj()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _real_times(matrix: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Real matrix times each complex vector of a stack, as real products on float pairs."""
    pairs = np.ascontiguousarray(vecs, dtype=complex).view(np.float64)
    return (matrix @ pairs.reshape(*vecs.shape, 2)).view(np.complex128).reshape(vecs.shape)


#: i^k for k = 0..3, exact.
_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def _gauge(dim: int) -> np.ndarray:
    """Diagonal of G = diag(i^k); G^dag (ad^m a^n) G = i^(n-m) ad^m a^n.
    Read-only: evolvers share it."""
    gauge = np.resize(np.array(_I_POWERS), dim)
    gauge.flags.writeable = False
    return gauge


def _evolver(poly: LadderPolynomial, dim: int) -> HermitianEvolver:
    """Evolver of the embedded polynomial, decomposed once per (terms, dim).

    A polynomial whose gauge-rotated terms c i^(n-m) are real is evolved
    through the decomposition of that real polynomial, so P reuses X's; the
    gauge twin is kept with its entry, so a hit costs one lookup.  The
    sorted key and the gauge flag are derived once per polynomial and kept
    in its memo (:func:`_evolver_key`).
    """
    key, gauge = poly._memoised(_evolver_key)
    entry = _cached_evolver((key, dim), lambda: [
        HermitianEvolver(matrix_of(LadderPolynomial(dict(key)), dim).matrix), None])
    if not gauge:
        return entry[0]
    if entry[1] is None:
        entry[1] = entry[0].in_gauge()
    return entry[1]


def _evolver_key(poly: LadderPolynomial) -> tuple[tuple, bool]:
    """The sorted terms that :func:`_evolver` decomposes, and whether they
    are poly's gauge-rotated terms."""
    terms, gauge = poly.terms, False
    if any(c.imag for c in terms.values()):
        rotated = {(m, n): c * _I_POWERS[(n - m) % 4] for (m, n), c in terms.items()}
        if not any(c.imag for c in rotated.values()):
            terms, gauge = rotated, True
    return tuple(sorted(terms.items())), gauge


#: Decompositions as [evolver, gauge twin], bounded by their eigenvector
#: bytes.  A real generator's take 8 dim^2 (1.3 MB at dim 400), so the few
#: generators and dimensions a session mixes stay decomposed within 64 MiB,
#: while large complex ones (16 dim^2, 64 MB at dim 2000) do not pile up.
#: The floor keeps a scan's two decompositions (X and P share one) at its
#: dimension and at the retry one, whatever their size.
_cached_evolver = _BoundedLRU(lambda entry: entry[0]._eigvecs.nbytes, 64 * 2**20, floor=4)


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
    pop = float(abs(top) ** 2)
    if not pop <= LEAKAGE_THRESHOLD:
        raise LeakageError(
            f"{context}: top-level population {pop:.3e} exceeds "
            f"{LEAKAGE_THRESHOLD:g}; increase the truncation dimension"
        )


# -- probe preparation --------------------------------------------------------


def prepare_probe(probe: ProbeDescriptor, dim: int) -> np.ndarray:
    """The normalized truncated amplitude vector of a probe descriptor, as a
    fresh array."""
    return _probe(probe, dim).copy()


def _probe(probe: ProbeDescriptor, dim: int) -> np.ndarray:
    """The probe's vector, prepared once per key and kept read-only.  The
    key holds the descriptor's repr, not the descriptor: descriptors that
    compare equal can prepare different bits (a real alpha and the same
    complex one), while the repr keeps every field's type and float bits
    apart."""
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
    return amps


# -- finite-difference QFI ----------------------------------------------------


@dataclass(frozen=True)
class QfiEstimate:
    """Richardson-extrapolated QFI with its two finite-difference passes."""

    value: float
    coarse: float
    fine: float
    rel_disagreement: float
    trusted: bool
    dim: int
    step: float


def _overlap_qfi(center: np.ndarray, plus: np.ndarray, minus: np.ndarray,
                 step: float | np.ndarray):
    """4 (<dpsi|dpsi> - |<center|dpsi>|^2) of the central difference dpsi, for
    one state, or as a flat list over a stack, ``center`` and ``step``
    broadcast against ``plus`` and ``minus``.  Each value has a
    lone state's bits: ``np.vecdot`` takes the BLAS dot of ``np.vdot`` slice
    by slice, and the rest is taken one state at a time (numpy's vectorised
    complex modulus rounds differently)."""
    dpsi = (plus - minus) / (2.0 * step)
    norms, overlaps = np.vecdot(dpsi, dpsi).real, np.vecdot(center, dpsi)
    values = [4.0 * (norm - abs(overlap) ** 2) for norm, overlap in zip(norms.flat, overlaps.flat)]
    return values if overlaps.ndim else values[0]


def _overlap_passes(
    state_at: Callable[[float], np.ndarray], x0: float
) -> Callable[[float], float]:
    """Central-difference overlap QFI at x0 as a function of the step, of one
    state or of each state of a stack."""
    center = state_at(x0)
    return lambda h: _overlap_qfi(center, state_at(x0 + h), state_at(x0 - h), h)


def _richardson_qfi(
    pass_qfi: Callable[[float], float], step: float, dim: int, what: str
) -> QfiEstimate:
    """Passes at ``step`` and ``step / 2``, Richardson extrapolated; raises
    ConvergenceError when they disagree by more than 5%, or by nan."""
    coarse = pass_qfi(step)
    fine = pass_qfi(step / 2.0)
    value = (4.0 * fine - coarse) / 3.0
    rel = abs(fine - coarse) / max(abs(value), 1e-300)
    if not rel <= _ERROR_REL:
        raise ConvergenceError(f"{what} passes disagree by {rel:.2%} at dim {dim}")
    return QfiEstimate(
        value=value,
        coarse=coarse,
        fine=fine,
        rel_disagreement=rel,
        trusted=rel <= _UNTRUSTED_REL,
        dim=dim,
        step=step,
    )


#: sqrt(machine epsilon): a smaller relative step leaves a central difference
#: nothing but rounding.
_STEP_FLOOR = math.sqrt(sys.float_info.epsilon)


def _check_step(step: float, x0: float) -> None:
    """A finite-difference step must be finite, and its half, the fine
    pass's step, must move x0 by at least sqrt(eps) max(1, |x0|) (about
    1.5e-8 near zero); below that the passes read rounding noise, or zero,
    and could still agree."""
    require_finite(step=step)
    floor = _STEP_FLOOR * max(1.0, abs(x0))
    if not step / 2.0 >= floor:
        raise ValidationError(
            f"finite-difference step {step!r} is too small: its half must be at "
            f"least {floor:.3g} (sqrt(eps) * max(1, |x0|) at x0 = {x0!r})"
        )


def _outcome(compute: Callable[[], object]) -> object:
    """``compute()``, or the LeakageError or ConvergenceError it raised."""
    try:
        return compute()
    except (LeakageError, ConvergenceError) as exc:
        return exc


#: The coarse and the fine pass's steps, in units of the step, as a column
#: that broadcasts over a stack's two passes.
_PASS_STEPS = _read_only(np.array([[1.0], [0.5]]))


def _row_estimates(pass_qfi: Callable[[float], Sequence[float]], step: float, dim: int,
                   what: str) -> list:
    """``_richardson_qfi`` of each row of a stack, or its ConvergenceError,
    from the values ``pass_qfi`` gives for the whole stack at each step."""
    estimates = []
    for coarse, fine in zip(pass_qfi(step), pass_qfi(step / 2.0)):
        try:
            estimates.append(_richardson_qfi({step: coarse, step / 2.0: fine}.__getitem__,
                                             step, dim, what))
        except ConvergenceError as exc:
            estimates.append(exc)
    return estimates


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
    """Brute-force QFI of the protocol's output state w.r.t. lambda_bar.

    Central difference of the evolved state at +-step plus a half-step pass,
    Richardson extrapolated.  On leakage or >5% pass disagreement the
    truncation dimension is doubled up to ``retries`` times before raising.
    """
    return _results(_qfi_rows(protocol, [protocol.n_applications], dim, step, retries))[0]


def _qfi_rows(protocol: EncodingProtocol, ns: Sequence[int], dim: int, step: float,
              retries: int = 1) -> list:
    """``qfi_numeric`` at each N of a scan: a row's estimate, or the trust
    error of its last attempt, the rows that leak or whose passes disagree
    retried together at twice the dimension; a refused time ends the list."""
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
    time, the auxiliary block's leakage, the lambda time, the scan edges'
    leakage, the passes); no row past a refused time is evolved further."""
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
    # Eigen-coordinates of h_lambda: evolution is a phase per coefficient,
    # and overlaps, hence the QFI, do not depend on the basis.
    lam_bar, evolver_l, outcomes, live = protocol.lambda_bar, None, [], []
    for i, n in enumerate(ns[:len(times)]):
        try:
            _check_leakage(after_aux[i, -1], "qfi_numeric (auxiliary block)")
        except LeakageError as exc:
            outcomes.append(exc)
            continue
        evolver_l = evolver_l or _evolver(protocol.h_lambda, dim)
        try:  # the scan edges lam_bar +- step are the largest times
            _evolution_time(n, max(abs(lam_bar + step), abs(lam_bar - step)), "lambda",
                            evolver_l._w_max)
        except ValidationError as exc:
            end = [exc]
            break
        outcomes.append(None)
        live.append(i)
    if not live:
        return outcomes + end
    # ordered so that each pass's outer points are slices: +h, +h/2, centre, -h, -h/2
    lams = (lam_bar + step, lam_bar + step / 2.0, lam_bar, lam_bar - step, lam_bar - step / 2.0)
    coeffs = evolver_l.project(after_aux if len(live) == len(after_aux) else after_aux[live])
    states = evolver_l.phases([[ns[i] * lam for lam in lams] for i in live]) * coeffs[:, None]
    for i, edges in zip(live, evolver_l.top_amplitudes(states[:, ::3])):
        try:  # the scan edges are the coarse pass's outer points
            for top in edges:
                _check_leakage(top, "qfi_numeric (scan edge)")
        except LeakageError as exc:
            outcomes[i] = exc
    kept = [j for j, i in enumerate(live) if outcomes[i] is None]
    if not kept:
        return outcomes + end
    states = states if len(kept) == len(live) else states[kept]
    both = _overlap_qfi(states[:, 2:3], states[:, :2], states[:, 3:], _PASS_STEPS * step)
    passes = {step: both[::2], step / 2.0: both[1::2]}.__getitem__
    blind = _leakage_check_blind(protocol, dim)
    for j, estimate in zip(kept, _row_estimates(passes, step, dim, "finite-difference")):
        outcomes[live[j]] = replace(estimate, trusted=False) if blind and isinstance(
            estimate, QfiEstimate) else estimate
    return outcomes + end


# -- quantum SWITCH (indefinite order of the two displacement blocks) ---------


#: The switch's displacement generators, built once so that each keeps its
#: evolver key in its memo across switch rows.
_X, _P = position_op(), momentum_op()


def _switch_rows(ns: Sequence[int], xs: Sequence[float], p: float, probe: np.ndarray,
                 both: bool) -> tuple[list, list]:
    """The stack, rows by ``xs``, of exp(-iNxP) exp(-iNpX)|psi> over N of
    ``ns`` (ascending) and, if ``both``, of the opposite order, each weighted
    1/sqrt(2); and per row None or its LeakageError, the branches checked x
    by x.  N*x is checked at the largest |x|, and a refused time ends the
    rows and the list."""
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
    phases_x = u_x.phases(times)
    after_x = u_p.project(u_x.lift(phases_x * u_x.project(probe)))
    phases = u_p.phases([[n * x for x in xs] for n in ns[:len(times)]])
    stacks = [u_p.lift(phases * after_x[:, None])]
    if both:
        p_first = u_p.lift(phases * u_p.project(probe))  # exp(-iNxP)|psi>
        stacks.append(u_x.lift(phases_x[:, None] * u_x.project(p_first)))

    def leaks(tops: np.ndarray) -> None:
        for top in tops.ravel():  # x by x
            _check_leakage(top, "switch_protocol")

    tops = np.stack([stack[..., -1] for stack in stacks], -1)
    return ([stack / math.sqrt(2.0) for stack in stacks],
            [_outcome(lambda: leaks(row)) for row in tops] + end)


def switch_protocol(n: int, x: float, p: float,
                    probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Superpose the two orders of N momentum and N position displacements.

    Returns the mode vectors of control 0, exp(-iNxP) exp(-iNpX) |psi>, and
    of control 1, the opposite order, each weighted 1/sqrt(2); by the Weyl
    relation they differ by the phase N^2 x p, so the control qubit picks up
    the product parameter.
    """
    stacks, outcomes = _switch_rows([n], [x], p, probe, True)
    _results(outcomes)
    return tuple(stack[0, 0] for stack in stacks)


def branch_phase_overlap(n: int, x: float, p: float, probe: np.ndarray) -> complex:
    """<psi| (U_A U_B)^dag (U_B U_A) |psi>; equals exp(-i N^2 x p) exactly."""
    ab, ba = switch_protocol(n, x, p, probe)
    return 2.0 * complex(np.vdot(ab, ba))  # each branch carries weight 1/sqrt(2)


def _qubit_qfi(r0: np.ndarray, plus: np.ndarray, minus: np.ndarray, step: float) -> list:
    """QFI of a qubit from its Bloch vectors at x0 and x0 +- step, for each
    row of a stack, as floats with a lone row's bits."""
    dr = (plus - minus) / (2.0 * step)
    rows = zip(np.vecdot(dr, dr).tolist(), (1.0 - np.vecdot(r0, r0)).tolist(),
               np.vecdot(r0, dr).tolist())
    return [qfi + tilt ** 2 / denom if denom > 1e-9 else qfi for qfi, denom, tilt in rows]


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
    """Finite-difference QFI of the switch construction w.r.t. x.

    Modes:

    - ``control``: QFI of the reduced control qubit, which carries the
      relative branch phase N^2 x p; scales as N^4 p^2.
    - ``joint``: QFI of the full control+mode vector; for a vacuum probe it
      equals 2 N^2 + N^4 p^2 (the mode displacement term plus the phase).
    - ``definite``: QFI of the single fixed-order branch exp(-iNxP)
      exp(-iNpX)|psi>; the phase channel is absent, leaving 2 N^2.  Only
      that branch is evolved and checked for leakage, so leakage of the
      opposite order, which this mode never reads, does not refuse it.
    """
    return _results(_switch_qfis([n], x, p, probe, dim, step, mode))[0]


def _switch_qfis(ns: Sequence[int], x: float, p: float, probe: ProbeDescriptor | None,
                 dim: int, step: float, mode: str) -> list:
    """``switch_qfi`` at each N of ``ns`` (ascending): a row's estimate or its
    trust error, the list ended by a refused time."""
    if mode not in SWITCH_MODES:
        raise ValidationError(f"mode must be one of {SWITCH_MODES}")
    require_finite(x=x, p=p)
    _check_step(step, x)
    probe_vec = _probe(probe or ProbeDescriptor.vacuum(), dim)
    xs = (x, x + step, x - step, x + step / 2.0, x - step / 2.0)
    stacks, outcomes = _switch_rows(ns, xs, p, probe_vec, both=mode != "definite")
    kept = [j for j, outcome in enumerate(outcomes[:len(stacks[0])]) if outcome is None]
    if not kept:  # every row leaks, or the first row's time is refused
        return outcomes
    if len(kept) < len(stacks[0]):
        stacks = [stack[kept] for stack in stacks]
    if mode == "control":
        ab, ba = stacks
        rho_01 = np.vecdot(ba, ab)  # control coherence <0|rho|1>
        bloch = np.stack([2.0 * rho_01.real, -2.0 * rho_01.imag,
                          (np.vecdot(ab, ab) - np.vecdot(ba, ba)).real], -1)
        r = dict(zip(xs, bloch.swapaxes(0, 1)))  # Bloch vectors of the control qubit
        estimates = _row_estimates(lambda h: _qubit_qfi(r[x], r[x + h], r[x - h], h),
                                   step, dim, "control-QFI")
    else:
        # the definite order's branch scaled back by sqrt(2), or both orders
        states = stacks[0] * math.sqrt(2.0) if mode == "definite" else np.concatenate(stacks, -1)
        estimates = _row_estimates(
            _overlap_passes(dict(zip(xs, states.swapaxes(0, 1))).__getitem__, x),
            step, dim, "switch QFI")
    for j, estimate in zip(kept, estimates):
        outcomes[j] = estimate
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
