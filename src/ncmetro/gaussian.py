"""Exact Gaussian simulation of quadratic protocols on one mode.

States are (mean, covariance) pairs in the (X, P) quadratures with hbar = 1,
vacuum covariance diag(1/2, 1/2), and sigma_ij the symmetrized second moment
<{dR_i, dR_j}>/2.  Note the convention mapping: the doubled cross moment
<XP + PX> - 2<X><P> often quoted for these protocols equals 2 * sigma_XP.

One map, ``_quadratures``, reads a ladder polynomial of degree <= 2 as
H = (1/2) R^T G R + d^T R + c, with ad = (X - iP)/sqrt2 and a = (X + iP)/sqrt2.
States evolve through the symplectic matrix S = exp(t Omega G); because
Omega G is traceless and 2x2, S and the inhomogeneous shift integral have
closed forms, so evolution is exact to machine precision and purity
det(cov) = 1/4 is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMeasurementError,
    InternalConsistencyError,
    NotGaussianError,
    ValidationError,
    require_finite,
)
from .ladder import LadderPolynomial
from .protocols import EncodingProtocol, ProbeDescriptor

#: Standard symplectic form in (X, P) ordering.
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])

_SQRT2 = math.sqrt(2.0)
_IMAG_TOL = 1e-10


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a single-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean, (2,)))
        object.__setattr__(self, "cov", _frozen_array(self.cov, (2, 2)))
        if abs(self.cov[0, 1] - self.cov[1, 0]) > 1e-12:
            raise ValidationError("covariance matrix must be symmetric")
        # Uncertainty relation: cov + (i/2) Omega = [[a, b + i/2], [b - i/2, c]]
        # is positive semidefinite; its smallest eigenvalue in closed form, with
        # hypot for sqrt(((a - c) / 2)^2 + b^2 + 1/4) so that no square overflows.
        (a, b), (_, c) = self.cov.tolist()
        if (a + c) / 2.0 - math.hypot((a - c) / 2.0, b, 0.5) < -1e-9:
            raise ValidationError("covariance violates the uncertainty relation")

    @staticmethod
    def vacuum() -> "GaussianState":
        return GaussianState(mean=np.zeros(2), cov=0.5 * np.eye(2))

    @staticmethod
    def coherent(alpha: complex) -> "GaussianState":
        mean = np.array([_SQRT2 * alpha.real, _SQRT2 * alpha.imag])
        return GaussianState(mean=mean, cov=0.5 * np.eye(2))

    @staticmethod
    def squeezed_vacuum(r: float, phi: float = 0.0) -> "GaussianState":
        rot = np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        core = 0.5 * np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)])
        return GaussianState(mean=np.zeros(2), cov=rot @ core @ rot.T)

    @property
    def var_x(self) -> float:
        return float(self.cov[0, 0])

    @property
    def var_p(self) -> float:
        return float(self.cov[1, 1])

    @property
    def cov_xp(self) -> float:
        """Symmetrized cross moment sigma_XP."""
        return float(self.cov[0, 1])

    def anticommutator_covariance(self) -> float:
        """<XP + PX> - 2<X><P> = 2 sigma_XP (the doubled-cross convention)."""
        return 2.0 * self.cov_xp

    def purity_defect(self) -> float:
        """det(cov) - 1/4; zero for pure states."""
        return float(np.linalg.det(self.cov) - 0.25)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = (1/2) R^T G R + d^T R with symmetric real G (constants dropped)."""

    g_matrix: np.ndarray
    d_vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g_matrix", _frozen_array(self.g_matrix, (2, 2)))
        object.__setattr__(self, "d_vector", _frozen_array(self.d_vector, (2,)))
        if abs(self.g_matrix[0, 1] - self.g_matrix[1, 0]) > 1e-12:
            raise ValidationError("G must be symmetric")


@dataclass(frozen=True)
class HomodyneSpec:
    """Measured quadrature Q = X cos(theta) + P sin(theta)."""

    theta: float

    def __post_init__(self):
        require_finite(theta=self.theta)

    def direction(self) -> np.ndarray:
        return np.array([math.cos(self.theta), math.sin(self.theta)])


def _quadratures(poly: LadderPolynomial) -> tuple[float, float, float, float, float]:
    """Real (G_xx, G_pp, G_xp, d_x, d_p) of a polynomial of degree <= 2, each
    a fixed sum of its coefficients of ad^2, ad a, a^2, ad and a.  An entry,
    or the constant, with an imaginary part above _IMAG_TOL relative to the
    largest of them is an InternalConsistencyError."""
    coeff = poly._terms.get  # the dict itself, not a view: the QFI path is hot
    c20, c02, c11 = coeff((2, 0), 0j), coeff((0, 2), 0j), coeff((1, 1), 0j)
    c10, c01, c00 = coeff((1, 0), 0j), coeff((0, 1), 0j), coeff((0, 0), 0j)
    pair = c20 + c02
    g_xx, g_pp, g_xp = pair + c11, c11 - pair, 1j * (c02 - c20)
    d_x, d_p = (c10 + c01) / _SQRT2, 1j * (c01 - c10) / _SQRT2
    imag = max(abs(g_xx.imag), abs(g_pp.imag), abs(g_xp.imag),
               abs(d_x.imag), abs(d_p.imag), abs(c00.imag))
    # the scale is at least 1, so an exactly real result skips computing it
    if imag > _IMAG_TOL and imag > _IMAG_TOL * max(
        1.0, abs(g_xx), abs(g_pp), abs(g_xp), abs(d_x), abs(d_p), abs(c00)
    ):
        raise InternalConsistencyError(
            "non-Hermitian generator produced complex quadrature coefficients"
        )
    return g_xx.real, g_pp.real, g_xp.real, d_x.real, d_p.real


def quadratic_from_polynomial(poly: LadderPolynomial) -> QuadraticHamiltonian:
    """(G, d) form of a Hermitian ladder polynomial of degree <= 2; a higher
    degree is a NotGaussianError (such protocols go to the Fock oracle)."""
    if poly.degree > 2:
        raise NotGaussianError(
            f"generator has degree {poly.degree}; not Gaussian-simulable, "
            "use the Fock oracle"
        )
    g_xx, g_pp, g_xp, d_x, d_p = _quadratures(poly)
    return QuadraticHamiltonian([[g_xx, g_xp], [g_xp, g_pp]], [d_x, d_p])


def _symplectic_and_integral(ham: QuadraticHamiltonian, t: float):
    """Return S = exp(t Omega G) and J = integral_0^t exp(s Omega G) ds."""
    m = t * (OMEGA @ ham.g_matrix)  # traceless, so m @ m = -det(m) * I
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
    return s, j


def evolve(state: GaussianState, ham: QuadraticHamiltonian, t: float) -> GaussianState:
    """Evolve the state under exp(-i t H); exact symplectic propagation."""
    s, j = _symplectic_and_integral(ham, t)
    shift = j @ (OMEGA @ ham.d_vector)
    mean = s @ state.mean + shift
    cov = s @ state.cov @ s.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(mean=mean, cov=cov)


def gaussian_probe(probe: ProbeDescriptor) -> GaussianState:
    if probe.kind == "vacuum":
        return GaussianState.vacuum()
    if probe.kind == "coherent":
        return GaussianState.coherent(probe.alpha)
    if probe.kind == "squeezed_vacuum":
        return GaussianState.squeezed_vacuum(probe.r, probe.phi)
    raise NotGaussianError(
        f"probe kind {probe.kind!r} is not Gaussian; use the Fock oracle"
    )


def run_protocol(protocol: EncodingProtocol) -> GaussianState:
    """Final Gaussian state of the block protocol.

    All N auxiliary gates act first, then all N parameter gates (right-to-
    left order of the written product), i.e. the state is
    exp(-i N lam H_lam) exp(-i N g H_g) |probe>.
    """
    state = gaussian_probe(protocol.probe)
    if protocol.n_applications == 0:
        return state
    ham_g = quadratic_from_polynomial(protocol.h_g)
    ham_l = quadratic_from_polynomial(protocol.h_lambda)
    state = evolve(state, ham_g, protocol.n_applications * protocol.g_bar)
    state = evolve(state, ham_l, protocol.n_applications * protocol.lambda_bar)
    return state


def qfi_linear_generator(probe: GaussianState, gen: LadderPolynomial) -> float:
    """QFI = 4 Var[gen] for a linear generator a*X + b*P + c on the probe."""
    for (m, n) in gen.terms:
        if m + n > 1:
            raise NotGaussianError(
                f"generator has degree {gen.degree}; variance of quadratic "
                "generators is delegated to the Fock oracle (qfi_numeric)"
            )
    _, _, _, a, b = _quadratures(gen)
    (var_x, cov_xp), (_, var_p) = probe.cov.tolist()
    qfi = 4.0 * (a * a * var_x + b * b * var_p + 2.0 * a * b * cov_xp)
    if not math.isfinite(qfi):
        raise ValidationError(f"Gaussian QFI is {qfi!r}: the generator overflows")
    return qfi


def homodyne_variance(state: GaussianState, spec: HomodyneSpec) -> float:
    """Variance of Q = X cos(theta) + P sin(theta) in the state."""
    u = spec.direction()
    return float(u @ state.cov @ u)


def cfi_quadrature(protocol: EncodingProtocol, spec: HomodyneSpec) -> float:
    """Classical Fisher information of the homodyne outcome w.r.t. lambda_bar.

    The lambda derivative acts as extra evolution under H_lam appended after
    the protocol, so both moment derivatives are exact:
    d(mean) = N (A mean + b) and d(cov) = N (A cov + cov A^T) with
    A = Omega G_lam, b = Omega d_lam.  The variance term vanishes whenever
    the measured variance is lambda-independent.
    """
    final = run_protocol(protocol)
    ham_l = quadratic_from_polynomial(protocol.h_lambda)
    n = protocol.n_applications
    a_mat = OMEGA @ ham_l.g_matrix
    b_vec = OMEGA @ ham_l.d_vector
    d_mean = n * (a_mat @ final.mean + b_vec)
    d_cov = n * (a_mat @ final.cov + final.cov @ a_mat.T)
    u = spec.direction()
    var = float(u @ final.cov @ u)  # homodyne_variance, from the same u
    if var < 1e-300:
        raise DegenerateMeasurementError(
            "measured quadrature variance vanished; Fisher information undefined"
        )
    mean_term = float(u @ d_mean) ** 2 / var
    var_term = 0.5 * float(u @ d_cov @ u) ** 2 / var**2
    return mean_term + var_term
