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
that ``_quadratures`` returns, and ``_flow`` pushes a state forward under
``evolve`` and ``run_protocol``.  The homodyne CFI of ``cfi_quadrature``
and fig3 pulls the measured axis back to the probe instead, so no variance
along a squeezed axis cancels.  A generator's quadratures are derived once
per polynomial and kept in its memo.
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
    pure state sits on the boundary, not beyond it.  The moments are
    finite: ``GaussianState`` and :func:`_finite_flow` check them first."""
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
        for name, values in (("mean", self.mean), ("cov", self.cov)):
            for index, value in np.ndenumerate(values):
                if not math.isfinite(value):
                    raise ValidationError(f"{name}{list(index)} = {float(value)!r} is not finite")
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


def _finite_flow(state: Moments, quad: Quadratures, n: int, value: float, where: str) -> Moments:
    """``_flow`` for the time n * value, or the ValidationError naming ``where``
    when the time or a moment overflows (``math.cosh`` does past 710)."""
    try:
        out = _flow(state, quad, n * value)
        if all(map(math.isfinite, out)):
            return out
    except OverflowError:
        pass
    raise ValidationError(f"Gaussian evolution overflows at {where}: the moments are not finite")


def evolve(state: GaussianState, generator: LadderPolynomial, t: float) -> GaussianState:
    """Evolve the state under exp(-i t H) for a Hermitian ladder polynomial
    H of degree <= 2; exact symplectic propagation."""
    require_finite(t=t)
    return _state(_finite_flow(_moments(state), _quadratic(generator), 1, t, f"t = {t!r}"))


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
    state = _probe_moments(protocol.probe)
    n = protocol.n_applications
    if n:
        state = _finite_flow(state, _quadratic(protocol.h_g), n, protocol.g_bar, f"N = {n}")
        _check_uncertainty(*state[2:])
        state = _finite_flow(state, _quadratic(protocol.h_lambda), n, protocol.lambda_bar,
                             f"N = {n}")
    return _state(state)


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
    cos, sin = math.cos(spec.theta), math.sin(spec.theta)
    _, _, var_x, cov_xp, var_p = _moments(state)
    return _dot2(_dot2(cos, var_x, sin, cov_xp), cos, _dot2(cos, cov_xp, sin, var_p), sin)


def _axis(a: float, b: float, c: float, sign: float) -> float:
    """Angle in (-pi/2, pi/2] of the eigenvector of M^T = [[a, c], [b, -a]]
    (a^2 + b c = 1) for the eigenvalue ``sign``; for two equal entries it
    is the double nearest pi/4."""
    x, y = max(((c, sign - a), (sign + a, b)), key=lambda v: abs(v[0]) + abs(v[1]))
    return math.atan2(y, x) if x > 0.0 or (x == 0.0 and y > 0.0) else math.atan2(-y, -x)


def _pull_back(quad: Quadratures, theta: float, length: float = 1.0):
    """(n, tau) -> S^T v for the flow S = exp(n tau Omega G), v = length e(theta).
    A squeeze S = e^k P+ + e^-k P-, P+- = (I +- M) / 2, splits v once along
    M^T's eigen-axes by angle differences sin(theta - psi), so no e^(2k) term
    cancels.  The split rounds by about eps |M|, :func:`_flow`'s closed form
    by eps |S|^2: rotations, shears and short times near a shear take the latter."""
    g_xx, g_pp, g_xp, _, _ = quad
    start = (length * math.cos(theta), length * math.sin(theta), 0.0, 0.0, 0.0)
    transposed = (-g_pp, -g_xx, g_xp, 0.0, 0.0)  # S^T is the flow of Omega G Omega

    def closed(n: int, tau: float) -> tuple[float, float]:
        return _flow(start, transposed, n * tau)[:2]

    rate = g_xp * g_xp - g_pp * g_xx
    if not rate > 0.0:
        return closed
    flow = math.sqrt(rate)  # k / t, for m / t = [[a, b], [c, -a]]
    a, b, c = g_xp / flow, g_pp / flow, -g_xx / flow
    size = max(abs(a), abs(b), abs(c))  # |M|
    reach = 0.5 * math.log(size)  # k beyond which the split is the better one
    legs = []
    for sign in (1.0, -1.0):  # sin(theta - psi) P^T e(psi + pi/2), psi the other axis
        psi = _axis(a, b, c, -sign)
        along, x, y = length * math.sin(theta - psi), -math.sin(psi), math.cos(psi)
        if along:
            legs.append((sign * flow, along * 0.5 * (x + sign * (a * x + c * y)),
                         along * 0.5 * (y + sign * (b * x - a * y))))

    def split(n: int, tau: float) -> tuple[float, float]:
        k = abs(flow * n * tau)  # |S| is about e^k (1 + |M| k)
        if k < reach and k + math.log1p(size * k) < reach:
            return closed(n, tau)
        w_x = w_p = 0.0
        for exponent, leg_x, leg_p in legs:
            scale = math.exp(exponent * n * tau)
            w_x, w_p = w_x + scale * leg_x, w_p + scale * leg_p
        return w_x, w_p
    return split


def _homodyne_cfis(protocol: EncodingProtocol, theta: float, ns):
    """Yields the homodyne CFI w.r.t. lambda_bar along u = e(theta) at each N
    of ``ns``.  u is pulled back through both flows to w = S^T u (Weedbrook et
    al., Rev. Mod. Phys. 84, 621, 2012): var = w^T cov0 w, d(var) = 2 N z^T
    cov0 w with z = S^T A^T u, A = Omega G_lam, and d(mean) = N u^T (A mean +
    b), b = Omega d_lam, on the final mean.  A linear h_lambda keeps u: one pull-back per scan."""
    _, _, var_x, cov_xp, var_p = probe = _probe_moments(protocol.probe)
    quad_g, quad_l = _quadratic(protocol.h_g), _quadratic(protocol.h_lambda)
    g_xx, g_pp, g_xp, d_x, d_p = quad_l
    cos, sin = math.cos(theta), math.sin(theta)
    g_bar, d_shift = protocol.g_bar, cos * d_p - sin * d_x  # u^T b
    pulled = None if g_xx or g_pp or g_xp else _pull_back(quad_g, theta)
    for n in ns:
        try:
            d_mean, d_var = d_shift, 0.0
            if pulled:
                w_x, w_p = pulled(n, g_bar)
            else:
                u_x, u_p = _pull_back(quad_l, theta)(n, protocol.lambda_bar)
                (w_x, w_p), (z_x, z_p) = (  # S^T u, S^T A^T u
                    _pull_back(quad_g, math.atan2(y, x), math.hypot(x, y))(n, g_bar)
                    for x, y in ((u_x, u_p), (g_xp * u_x - g_xx * u_p, g_pp * u_x - g_xp * u_p)))
                mean_x, mean_p, _, _, _ = _flow(_flow(probe, quad_g, n * g_bar),
                                                quad_l, n * protocol.lambda_bar)
                d_mean += (cos * g_xp - sin * g_xx) * mean_x + (cos * g_pp - sin * g_xp) * mean_p
                d_var = 2.0 * n * (z_x * (w_x * var_x + w_p * cov_xp)
                                   + z_p * (w_x * cov_xp + w_p * var_p))
            var = w_x * w_x * var_x + w_p * w_p * var_p + 2.0 * w_x * w_p * cov_xp
            if var <= 0.0:
                raise DegenerateMeasurementError("homodyne variance vanished; CFI undefined")
            cfi = (n * d_mean) ** 2 / var + 0.5 * (d_var / var) ** 2
        except OverflowError:
            cfi = math.inf
        if not math.isfinite(cfi):
            raise ValidationError(f"homodyne CFI is {cfi!r} at N = {n}: the protocol overflows")
        yield cfi


def cfi_quadrature(protocol: EncodingProtocol, spec: HomodyneSpec) -> float:
    """Homodyne CFI w.r.t. lambda_bar, from :func:`_homodyne_cfis` as fig3's."""
    return next(_homodyne_cfis(protocol, spec.theta, (protocol.n_applications,)))
