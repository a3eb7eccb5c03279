"""Truncated Fock-space oracle: dense matrices, exact unitary evolution,
finite-difference quantum Fisher information, and the coherently controlled
two-order (quantum SWITCH) construction.

Everything here is deliberately independent of the symbolic generator route:
matrix elements come from the Fock basis in closed form, states are evolved
through eigendecompositions of the Hermitian generators, and the QFI comes
from state overlaps, so this module can certify the closed-form results
computed elsewhere.

A generator is decomposed once per dimension and process: the bounded
least-recently-used cache of :mod:`ladder`, sized by eigenvector bytes,
shares each decomposition between a scan's points and between calls.
A real generator, or one that the diagonal gauge G = diag(i^k) makes real,
gets a real symmetric decomposition and real mat-vecs; X and P = G X G^dag
share one.  Finite differences run in the eigen-coordinates of H_lambda,
where each point is a phase per coefficient, so no point re-evolves the
Fock vector; the switch projects its x-independent vectors once.

Trust model: prepared and evolved vectors must keep the population of the
top Fock level below ``LEAKAGE_THRESHOLD``; finite-difference QFI runs a
second pass at half step and Richardson-extrapolates, flagging the result
untrusted above 0.5% pass disagreement and erroring above 5%.  A QFI is
also flagged untrusted when parity keeps the top level empty, since the
leakage check then sees nothing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    ConvergenceError,
    InternalConsistencyError,
    LeakageError,
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
_NORM_TOL = 1e-9
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


@dataclass(frozen=True)
class FockVector:
    """Normalized state vector in the truncated Fock basis."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (self.dim,):
            raise ValidationError("amplitude vector shape does not match dim")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"state norm {norm!r} deviates from 1")

    @property
    def top_level_population(self) -> float:
        return float(abs(self.amplitudes[-1]) ** 2)


@dataclass(frozen=True)
class SwitchState:
    """Joint control+mode state of the two-order superposition protocol.

    ``joint`` is the 2*dim vector in control-major ordering (control 0 block
    first).
    """

    dim: int
    joint: np.ndarray

    def branch(self, c: int) -> np.ndarray:
        """Mode vector attached to control basis state c, weight included."""
        return self.joint[c * self.dim : (c + 1) * self.dim]

    def reduced_control(self) -> np.ndarray:
        """Exact 2x2 reduced density matrix of the control qubit."""
        rho = np.empty((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                rho[i, j] = np.vdot(self.branch(j), self.branch(i))
        return rho


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
    eigen-coordinates, in which evolution is a diagonal phase.
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

    def in_gauge(self) -> "HermitianEvolver":
        """Evolver of G H G^dag that shares this real decomposition of H."""
        twin = copy.copy(self)
        twin._gauge = _gauge(self._eigvals.size)
        return twin

    def phases(self, t: float) -> np.ndarray:
        return np.exp(-1j * t * self._eigvals)

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Eigen-coordinates (G V)^dag vec of a Fock-basis vector."""
        if self._gauge is not None:
            vec = self._gauge.conj() * vec
        if self._real:
            return _real_times(self._eigvecs.T, vec)
        return (vec.conj() @ self._eigvecs).conj()

    def lift(self, coeffs: np.ndarray) -> np.ndarray:
        """Fock-basis vector G V coeffs of eigen-coordinates."""
        out = _real_times(self._eigvecs, coeffs) if self._real else self._eigvecs @ coeffs
        return out if self._gauge is None else self._gauge * out

    def top_amplitude(self, coeffs: np.ndarray) -> complex:
        """Last Fock amplitude of ``lift(coeffs)``, in O(dim)."""
        top = self._eigvecs[-1] @ coeffs
        return top if self._gauge is None else top * self._gauge[-1]

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        return self.lift(self.phases(t) * self.project(vec))

    def unitary(self, t: float) -> np.ndarray:
        u = (self._eigvecs * self.phases(t)) @ self._eigvecs.conj().T
        return u if self._gauge is None else self._gauge[:, None] * u * self._gauge.conj()


def _real_times(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Real matrix times complex vector as one real product on float pairs."""
    pairs = np.ascontiguousarray(vec, dtype=complex).view(np.float64).reshape(-1, 2)
    return (matrix @ pairs).view(np.complex128).ravel()


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
    gauge twin is kept with its entry, so a hit costs one lookup.
    """
    terms, gauge = poly.terms, False
    if any(c.imag for c in terms.values()):
        rotated = {(m, n): c * _I_POWERS[(n - m) % 4] for (m, n), c in terms.items()}
        if not any(c.imag for c in rotated.values()):
            terms, gauge = rotated, True
    key = tuple(sorted(terms.items()))
    entry = _cached_evolver((key, dim), lambda: [
        HermitianEvolver(matrix_of(LadderPolynomial(dict(key)), dim).matrix), None])
    if not gauge:
        return entry[0]
    if entry[1] is None:
        entry[1] = entry[0].in_gauge()
    return entry[1]


#: Decompositions as [evolver, gauge twin], bounded by their eigenvector
#: bytes.  A real generator's take 8 dim^2 (1.3 MB at dim 400), so the few
#: generators and dimensions a session mixes stay decomposed within 64 MiB,
#: while large complex ones (16 dim^2, 64 MB at dim 2000) do not pile up.
#: The floor keeps a scan's two decompositions (X and P share one) at its
#: dimension and at the retry one, whatever their size.
_cached_evolver = _BoundedLRU(lambda entry: entry[0]._eigvecs.nbytes, 64 * 2**20, floor=4)


def _check_leakage(top: complex, context: str) -> None:
    """Reject a state whose top Fock amplitude ``top`` is too populated."""
    pop = float(abs(top) ** 2)
    if pop > LEAKAGE_THRESHOLD:
        raise LeakageError(
            f"{context}: top-level population {pop:.3e} exceeds "
            f"{LEAKAGE_THRESHOLD:g}; increase the truncation dimension"
        )


def evolve_unitary(state: FockVector, ham: MatrixOperator, t: float) -> FockVector:
    """Apply exp(-i t H) to the state; H must be Hermitian.

    Raises LeakageError when the evolved state populates the top level, and
    InternalConsistencyError if unitarity drifts beyond 1e-9.
    """
    if ham.dim != state.dim:
        raise ValidationError("state and operator dimensions differ")
    evolver = HermitianEvolver(ham.matrix)
    out = evolver.apply(t, state.amplitudes)
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > _NORM_TOL:
        raise InternalConsistencyError(f"evolution norm drift {abs(norm - 1.0):.3e}")
    out = out / norm
    _check_leakage(out[-1], "evolve_unitary")
    return FockVector(dim=state.dim, amplitudes=out)


# -- probe preparation --------------------------------------------------------


def prepare_probe(probe: ProbeDescriptor, dim: int) -> FockVector:
    """Build the truncated amplitude vector for a probe descriptor."""
    if dim < 2:
        raise ValidationError("truncation dimension must be at least 2")
    amps = np.zeros(dim, dtype=complex)
    if probe.kind == "vacuum":
        amps[0] = 1.0
    elif probe.kind == "coherent":
        # <n|alpha> = e^{-|alpha|^2/2} prod_{j<=n} alpha / sqrt(j)
        ratios = np.empty(dim, dtype=complex)
        ratios[0] = math.exp(-abs(probe.alpha) ** 2 / 2.0)
        ratios[1:] = probe.alpha / np.sqrt(np.arange(1, dim))
        amps[:] = np.cumprod(ratios)
    elif probe.kind == "squeezed_vacuum":
        # <2k|r,phi> / <2k-2|r,phi> = -e^{2i phi} tanh(r) sqrt((2k-1)/(2k))
        k = np.arange(1, (dim + 1) // 2)
        ratios = np.empty(k.size + 1, dtype=complex)
        ratios[0] = 1.0 / math.sqrt(math.cosh(probe.r))
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
    return FockVector(dim=dim, amplitudes=amps)


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


def _overlap_qfi(
    center: np.ndarray, plus: np.ndarray, minus: np.ndarray, step: float
) -> float:
    dpsi = (plus - minus) / (2.0 * step)
    return 4.0 * (
        float(np.vdot(dpsi, dpsi).real) - abs(np.vdot(center, dpsi)) ** 2
    )


def _overlap_passes(
    state_at: Callable[[float], np.ndarray], x0: float
) -> Callable[[float], float]:
    """Central-difference overlap QFI at x0 as a function of the step."""
    center = state_at(x0)
    return lambda h: _overlap_qfi(center, state_at(x0 + h), state_at(x0 - h), h)


def _richardson_qfi(
    pass_qfi: Callable[[float], float], step: float, dim: int, what: str
) -> QfiEstimate:
    """Passes at ``step`` and ``step / 2``, Richardson extrapolated; raises
    ConvergenceError when they disagree by more than 5%."""
    coarse = pass_qfi(step)
    fine = pass_qfi(step / 2.0)
    value = (4.0 * fine - coarse) / 3.0
    rel = abs(fine - coarse) / max(abs(value), 1e-300)
    if rel > _ERROR_REL:
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
    require_finite(step=step)
    if step <= 0:
        raise ValidationError("finite-difference step must be positive")
    if retries < 0:
        raise ValidationError("retries must be >= 0")
    last_error: Exception | None = None
    for attempt in range(retries + 1):
        d = dim * (2**attempt)
        try:
            return _qfi_numeric_once(protocol, d, step)
        except (LeakageError, ConvergenceError) as exc:
            last_error = exc
    raise last_error


def _leakage_check_blind(protocol: EncodingProtocol, dim: int) -> bool:
    """True when the top level, the only one ``_check_leakage`` reads, stays
    empty: the probe is even (vacuum or squeezed vacuum), both generators
    keep photon-number parity (every term ad^m a^n has m - n even) and the
    top level dim - 1 is odd."""
    return (dim % 2 == 0 and protocol.probe.kind in ("vacuum", "squeezed_vacuum")
            and all((m - n) % 2 == 0
                    for poly in (protocol.h_g, protocol.h_lambda) for m, n in poly.terms))


def _qfi_numeric_once(
    protocol: EncodingProtocol, dim: int, step: float
) -> QfiEstimate:
    probe = prepare_probe(protocol.probe, dim)
    n = protocol.n_applications
    after_aux = _evolver(protocol.h_g, dim).apply(n * protocol.g_bar, probe.amplitudes)
    _check_leakage(after_aux[-1], "qfi_numeric (auxiliary block)")
    # Eigen-coordinates of h_lambda: evolution is a phase per coefficient,
    # and overlaps, hence the QFI, do not depend on the basis.
    evolver_l = _evolver(protocol.h_lambda, dim)
    coeffs = evolver_l.project(after_aux)

    def state_at(lam: float) -> np.ndarray:
        return evolver_l.phases(n * lam) * coeffs

    for edge in (protocol.lambda_bar + step, protocol.lambda_bar - step):
        _check_leakage(evolver_l.top_amplitude(state_at(edge)), "qfi_numeric (scan edge)")
    estimate = _richardson_qfi(_overlap_passes(state_at, protocol.lambda_bar),
                               step, dim, "finite-difference")
    if _leakage_check_blind(protocol, dim):
        estimate = replace(estimate, trusted=False)
    return estimate


# -- quantum SWITCH (indefinite order of the two displacement blocks) ---------


def _switch_states(n: int, p: float, probe: FockVector) -> Callable[[float], SwitchState]:
    """The switch state as a function of x.  The x-independent work is done
    once: exp(-iNpX)|psi> and |psi> are projected onto P's eigenbasis, so
    each x costs two lifts and one X evolution, and both branches are still
    checked for leakage in the Fock basis."""
    if n < 1:
        raise ValidationError("switch protocol requires n >= 1")
    dim = probe.dim
    u_p = _evolver(momentum_op(), dim)  # exp(-i t P), t = N x
    u_x = _evolver(position_op(), dim)  # exp(-i t X), t = N p
    after_x = u_p.project(u_x.apply(n * p, probe.amplitudes))
    before_x = u_p.project(probe.amplitudes)

    def state_at(x: float) -> SwitchState:
        phases = u_p.phases(n * x)
        branch_ab = u_p.lift(phases * after_x)
        branch_ba = u_x.apply(n * p, u_p.lift(phases * before_x))
        _check_leakage(branch_ab[-1], "switch_protocol")
        _check_leakage(branch_ba[-1], "switch_protocol")
        joint = np.concatenate([branch_ab, branch_ba]) / math.sqrt(2.0)
        return SwitchState(dim=dim, joint=joint)

    return state_at


def switch_protocol(
    n: int, x: float, p: float, probe: FockVector
) -> SwitchState:
    """Superpose the two orders of N momentum and N position displacements.

    Control 0 carries exp(-iNxP) exp(-iNpX) |psi>, control 1 the opposite
    order; by the Weyl relation the branches differ by the phase N^2 x p, so
    the control qubit picks up the product parameter.
    """
    return _switch_states(n, p, probe)(x)


def branch_phase_overlap(n: int, x: float, p: float, probe: FockVector) -> complex:
    """<psi| (U_A U_B)^dag (U_B U_A) |psi>; equals exp(-i N^2 x p) exactly."""
    state = switch_protocol(n, x, p, probe)
    num = complex(np.vdot(state.branch(0), state.branch(1)))
    return 2.0 * num  # each branch carries weight 1/sqrt(2)


def _bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.array(
        [2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
    )


def _qubit_qfi(r0: np.ndarray, plus: np.ndarray, minus: np.ndarray, step: float) -> float:
    """QFI of a qubit from its Bloch vectors at x0 and x0 +- step."""
    dr = (plus - minus) / (2.0 * step)
    qfi = float(dr @ dr)
    denom = 1.0 - float(r0 @ r0)
    if denom > 1e-9:
        qfi += float(r0 @ dr) ** 2 / denom
    return qfi


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
      exp(-iNpX)|psi>; the phase channel is absent, leaving 2 N^2.
    """
    if mode not in SWITCH_MODES:
        raise ValidationError(f"mode must be one of {SWITCH_MODES}")
    require_finite(x=x, p=p, step=step)
    if step <= 0:
        raise ValidationError("finite-difference step must be positive")
    switch_at = _switch_states(n, p, prepare_probe(probe or ProbeDescriptor.vacuum(), dim))

    if mode == "control":
        def bloch_at(xv: float) -> np.ndarray:
            return _bloch_vector(switch_at(xv).reduced_control())

        r0 = bloch_at(x)
        return _richardson_qfi(
            lambda h: _qubit_qfi(r0, bloch_at(x + h), bloch_at(x - h), h),
            step, dim, "control-QFI")

    if mode == "joint":
        def state_at(xv: float) -> np.ndarray:
            return switch_at(xv).joint
    else:
        def state_at(xv: float) -> np.ndarray:
            return switch_at(xv).branch(0) * math.sqrt(2.0)

    return _richardson_qfi(_overlap_passes(state_at, x), step, dim, "switch QFI")


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
