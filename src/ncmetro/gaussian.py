"""Exact Gaussian simulation of quadratic protocols on one mode.

States are (mean, covariance) pairs in the (X, P) quadratures with hbar = 1,
vacuum covariance diag(1/2, 1/2), and sigma_ij the symmetrized second moment
<{dR_i, dR_j}>/2, held in ``GaussianState.cov``.  Note the convention
mapping: the doubled cross moment <XP + PX> - 2<X><P> often quoted for these
protocols equals 2 * sigma_XP, that is ``2 * cov[0, 1]``.

One map, ``_quadratures``, reads a ladder polynomial of degree <= 2 as
H = (1/2) R^T G R + d^T R + c, with ad = (X - iP)/sqrt2 and a = (X + iP)/sqrt2.
States evolve through the symplectic matrix S = exp(t Omega G); because
m = t Omega G is traceless and 2x2, m @ m = -det(m) I, so S and the
inhomogeneous shift integral have closed forms (Weedbrook et al., Rev. Mod.
Phys. 84, 621, 2012), evolution is exact to machine precision and purity
det(cov) = 1/4 is preserved.

Every generator is a ladder polynomial, the one generator type of both
engines.  The engine runs on plain floats: a state is the tuple
(<X>, <P>, sigma_XX, sigma_XP, sigma_PP), a generator is read as the tuple
that ``_quadratures`` returns, and ``_flow`` is the one evolution step under
``evolve``, ``run_protocol`` and ``cfi_quadrature``.  A ``GaussianState``,
with its frozen numpy arrays, is built only where a public function
returns one: ``cfi_quadrature`` reads the final moments that
``run_protocol`` wraps.  A generator's quadratures are derived once per
polynomial and kept in its memo.
"""

from __future__ import annotations

import math
import sys
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

_SQRT2 = math.sqrt(2.0)
_IMAG_TOL = 1e-10

#: Smallest variance along the homodyne axis, relative to the size of the
#: covariance terms it sums, that ``cfi_quadrature`` resolves: rounding in
#: the covariance moves it by up to about 2 eps times that size, so at this
#: floor the CFI is still within 5e-4.
_VAR_RESOLUTION = 1e-12

#: (<X>, <P>, sigma_XX, sigma_XP, sigma_PP) of a state.
Moments = tuple[float, float, float, float, float]
#: (G_xx, G_pp, G_xp, d_x, d_p) of a quadratic generator, as ``_quadratures``.
Quadratures = tuple[float, float, float, float, float]


#: 2^27 + 1, Veltkamp's splitting constant for doubles.
_SPLIT = 134217729.0


def _dot2(a: float, b: float, c: float, d: float) -> float:
    """a*b + c*d with the rounding errors of both products and of the sum
    added back (Dot2 of Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 1955,
    2005), as accurate as with one fused multiply-add.  The covariance of a
    squeezed state and its variance along the squeezed axis are sums that
    cancel, so plain products lose digits there."""
    p, q = a * b, c * d
    x = _SPLIT * a
    a_hi = x - (x - a)
    a_lo = a - a_hi
    x = _SPLIT * b
    b_hi = x - (x - b)
    b_lo = b - b_hi
    x = _SPLIT * c
    c_hi = x - (x - c)
    c_lo = c - c_hi
    x = _SPLIT * d
    d_hi = x - (x - d)
    d_lo = d - d_hi
    total = p + q
    x = total - p
    return total + (((p - (total - x)) + (q - x))
                    + (((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo)
                    + (((c_hi * d_hi - q) + c_hi * d_lo + c_lo * d_hi) + c_lo * d_lo))


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(shape)
    arr.setflags(write=False)
    return arr


#: Rounding of det(cov) = a c - b^2 in ``_check_uncertainty``, relative to
#: |a c| + b^2: Dot2 computes it to about eps of that, and the moments,
#: themselves computed with Dot2, carry a few eps of their own.
_UNCERTAINTY_ROUNDING = 8.0 * sys.float_info.epsilon


def _check_uncertainty(var_x: float, cov_xp: float, var_p: float) -> None:
    """cov + (i/2) Omega = [[a, b + i/2], [b - i/2, c]] must be positive
    semidefinite: a + c > 0 and det(cov) = a c - b^2 >= 1/4.  The
    determinant is one compensated Dot2, so a violation far below the
    trace, such as diag(1e10, 1e-12), still shows.  The slack is 1e-9, or
    the rounding of the determinant where it is larger: a strongly squeezed
    pure state sits on the boundary, not beyond it.  Moments that are not
    finite are left to the callers' finite checks."""
    det = _dot2(var_x, var_p, -cov_xp, cov_xp)
    slack = max(1e-9, _UNCERTAINTY_ROUNDING * (abs(var_x * var_p) + cov_xp * cov_xp))
    if var_x + var_p <= 0.0 or det < 0.25 - slack:
        raise ValidationError("covariance violates the uncertainty relation")


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a single-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean, (2,)))
        object.__setattr__(self, "cov", _frozen_array(self.cov, (2, 2)))
        (a, b), (b_t, c) = self.cov.tolist()
        if abs(b - b_t) > 1e-12:
            raise ValidationError("covariance matrix must be symmetric")
        _check_uncertainty(a, b, c)


def _moments(state: GaussianState) -> Moments:
    (mean_x, mean_p), ((var_x, cov_xp), (_, var_p)) = state.mean.tolist(), state.cov.tolist()
    return mean_x, mean_p, var_x, cov_xp, var_p


def _state(moments: Moments) -> GaussianState:
    mean_x, mean_p, var_x, cov_xp, var_p = moments
    return GaussianState(mean=(mean_x, mean_p), cov=((var_x, cov_xp), (cov_xp, var_p)))


_VACUUM: Moments = (0.0, 0.0, 0.5, 0.0, 0.5)


def _coherent(alpha: complex) -> Moments:
    return _SQRT2 * alpha.real, _SQRT2 * alpha.imag, 0.5, 0.0, 0.5


def _squeezed_vacuum(r: float, phi: float) -> Moments:
    """R diag(e^{-2r}, e^{2r}) R^T / 2 for the rotation R by phi."""
    cos, sin = math.cos(phi), math.sin(phi)
    try:
        low, high = 0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r)
    except OverflowError:
        raise ValidationError(
            f"squeezed probe overflows: e^(2|r|) is not finite (r = {r!r})"
        ) from None
    return (0.0, 0.0, cos * low * cos + sin * high * sin,
            cos * low * sin - sin * high * cos, sin * low * sin + cos * high * cos)


@dataclass(frozen=True)
class HomodyneSpec:
    """Measured quadrature Q = X cos(theta) + P sin(theta)."""

    theta: float

    def __post_init__(self):
        require_finite(theta=self.theta)


def _quadratures(poly: LadderPolynomial) -> Quadratures:
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


def _quadratic(poly: LadderPolynomial) -> Quadratures:
    """``_quadratures`` of a generator the engine can evolve; a degree above 2
    is a NotGaussianError (such protocols go to the Fock oracle).  The
    result is derived once per polynomial and kept in its memo, so a
    preset's shared operators are read once per process; an error is
    raised on every call and never kept."""
    return poly._memoised(_checked_quadratures)


def _checked_quadratures(poly: LadderPolynomial) -> Quadratures:
    if poly.degree > 2:
        raise NotGaussianError(
            f"generator has degree {poly.degree}; not Gaussian-simulable, "
            "use the Fock oracle"
        )
    return _quadratures(poly)


def _flow(state: Moments, quad: Quadratures, t: float) -> Moments:
    """The moments after exp(-i t H): mean -> S mean + J Omega d and
    cov -> S cov S^T, with S = exp(m) and J = integral_0^t exp(s m / t) ds
    for the traceless m = t Omega G = [[a, b], [c, -a]] of determinant delta,
    so that S = p I + q m and J = t (u I + v m)."""
    mean_x, mean_p, var_x, cov_xp, var_p = state
    g_xx, g_pp, g_xp, d_x, d_p = quad
    a, b, c = t * g_xp, t * g_pp, t * -g_xx
    if not (a or b or c):  # S = I, J = t I: a linear generator only displaces
        return mean_x + t * d_p, mean_p - t * d_x, var_x, cov_xp, var_p
    delta = a * -a - b * c
    if abs(delta) < 1e-30:
        p = q = u = 1.0
        v = 0.5
    elif delta > 0.0:
        w = math.sqrt(delta)
        p, q = math.cos(w), math.sin(w) / w
        u, v = q, (1.0 - p) / delta
    else:
        k = math.sqrt(-delta)
        p, q = math.cosh(k), math.sinh(k) / k
        u, v = q, (p - 1.0) / -delta
    s00, s01, s10, s11 = p + q * a, q * b, q * c, p - q * a
    j00, j01, j10, j11 = t * (u + v * a), t * (v * b), t * (v * c), t * (u - v * a)
    # (S cov) S^T, symmetrized
    t00, t01 = _dot2(s00, var_x, s01, cov_xp), _dot2(s00, cov_xp, s01, var_p)
    t10, t11 = _dot2(s10, var_x, s11, cov_xp), _dot2(s10, cov_xp, s11, var_p)
    return (
        s00 * mean_x + s01 * mean_p + (j00 * d_p - j01 * d_x),
        s10 * mean_x + s11 * mean_p + (j10 * d_p - j11 * d_x),
        _dot2(t00, s00, t01, s01),
        0.5 * (_dot2(t00, s10, t01, s11) + _dot2(t10, s00, t11, s01)),
        _dot2(t10, s10, t11, s11),
    )


def evolve(state: GaussianState, generator: LadderPolynomial, t: float) -> GaussianState:
    """Evolve the state under exp(-i t H) for a Hermitian ladder polynomial
    H of degree <= 2; exact symplectic propagation."""
    return _state(_flow(_moments(state), _quadratic(generator), t))


def _probe_moments(probe: ProbeDescriptor) -> Moments:
    if probe.kind == "vacuum":
        return _VACUUM
    if probe.kind == "coherent":
        return _coherent(probe.alpha)
    if probe.kind == "squeezed_vacuum":
        return _squeezed_vacuum(probe.r, probe.phi)
    raise NotGaussianError(
        f"probe kind {probe.kind!r} is not Gaussian; use the Fock oracle"
    )


def gaussian_probe(probe: ProbeDescriptor) -> GaussianState:
    return _state(_probe_moments(probe))


def run_protocol(protocol: EncodingProtocol) -> GaussianState:
    """Final Gaussian state of the block protocol.

    All N auxiliary gates act first, then all N parameter gates (right-to-
    left order of the written product), i.e. the state is
    exp(-i N lam H_lam) exp(-i N g H_g) |probe>.
    """
    return _state(_final_moments(protocol))


def _final_moments(protocol: EncodingProtocol) -> Moments:
    """The moments that ``run_protocol`` wraps, with the state between the
    blocks checked; the final ones are left to the caller's check."""
    state = _probe_moments(protocol.probe)
    n = protocol.n_applications
    if n:
        quad_g, quad_l = _quadratic(protocol.h_g), _quadratic(protocol.h_lambda)
        state = _flow(state, quad_g, n * protocol.g_bar)
        _check_uncertainty(*state[2:])  # the state between the blocks is one too
        state = _flow(state, quad_l, n * protocol.lambda_bar)
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


def _variance_along(cos: float, sin: float, var_x: float, cov_xp: float,
                    var_p: float) -> float:
    """u^T cov u for u = (cos, sin)."""
    return _dot2(_dot2(cos, var_x, sin, cov_xp), cos, _dot2(cos, cov_xp, sin, var_p), sin)


def homodyne_variance(state: GaussianState, spec: HomodyneSpec) -> float:
    """Variance of Q = X cos(theta) + P sin(theta) in the state."""
    return _variance_along(math.cos(spec.theta), math.sin(spec.theta), *_moments(state)[2:])


def cfi_quadrature(protocol: EncodingProtocol, spec: HomodyneSpec) -> float:
    """Classical Fisher information of the homodyne outcome w.r.t. lambda_bar.

    The lambda derivative acts as extra evolution under H_lam appended after
    the protocol, so both moment derivatives are exact:
    d(mean) = N (A mean + b) and d(cov) = N (A cov + cov A^T) with
    A = Omega G_lam, b = Omega d_lam.  The variance term vanishes whenever
    the measured variance is lambda-independent.
    """
    mean_x, mean_p, var_x, cov_xp, var_p = _final_moments(protocol)
    _check_uncertainty(var_x, cov_xp, var_p)  # as building run_protocol's state does
    g_xx, g_pp, g_xp, d_x, d_p = _quadratic(protocol.h_lambda)
    n = protocol.n_applications
    cos, sin = math.cos(spec.theta), math.sin(spec.theta)
    var = _variance_along(cos, sin, var_x, cov_xp, var_p)
    if var < 1e-300:
        raise DegenerateMeasurementError(
            "measured quadrature variance vanished; Fisher information undefined"
        )
    # a squeezed state's variance along its squeezed axis cancels e^{4 N xi}
    size = cos * cos * abs(var_x) + 2.0 * abs(cos * sin * cov_xp) + sin * sin * abs(var_p)
    if var < _VAR_RESOLUTION * size:
        raise DegenerateMeasurementError(
            f"measured quadrature variance {var:.3e} is lost in the rounding of "
            f"covariance terms of size {size:.3e}; Fisher information not resolved"
        )
    # u^T A, for A = Omega G_lam = [[G_xp, G_pp], [-G_xx, -G_xp]]
    ua_x, ua_p = cos * g_xp - sin * g_xx, cos * g_pp - sin * g_xp
    d_mean = n * ((ua_x * mean_x + ua_p * mean_p) + (cos * d_p - sin * d_x))
    # u^T (A cov + cov A^T) u = 2 u^T A cov u
    d_var = 2.0 * n * ((ua_x * var_x + ua_p * cov_xp) * cos + (ua_x * cov_xp + ua_p * var_p) * sin)
    return d_mean ** 2 / var + 0.5 * d_var ** 2 / var**2
