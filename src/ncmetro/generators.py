"""Local generators and leading-order Fisher-information quantities.

Given a classified operator pair, the local generator of the block encoding
``exp(-i N lam H_lam) exp(-i N g H_g)`` with respect to the mean parameter is

    h = N * sum_{n=0}^{K} (i N g)^n / n! * tower[n]

for finite nilpotency index K, and has the sinh/cosh closed form when the
tower satisfies the closure relation.  ``generator_by_conjugation`` computes
the same object as ``N exp(+iNg H_g) H_lam exp(-iNg H_g)`` on truncated
matrices and serves as the independent oracle for the series route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    TruncationInstabilityError,
    UnclassifiedPairError,
    ValidationError,
)
from .fock import HermitianEvolver, MatrixOperator, matrix_of
from .ladder import (
    KIND_CAP_REACHED,
    KIND_CLOSED_INFINITE,
    LadderPolynomial,
    classify_pair,
    is_hermitian,
)
from .protocols import EncodingProtocol

_GENERATOR_HERMITIAN_TOL = 1e-10
_STABILITY_TOL = 1e-8


@dataclass(frozen=True)
class GeneratorResult:
    """Local generator plus bookkeeping about how it was obtained."""

    generator: LadderPolynomial
    truncation_used: int
    closed_form: bool


def local_generator(protocol: EncodingProtocol) -> GeneratorResult:
    """Local generator of the protocol with respect to lambda_bar.  A scan
    over N classifies its pair once (:func:`classified_pair`) and calls
    :func:`generator_at` per N."""
    report = classified_pair(protocol.h_g, protocol.h_lambda)
    return generator_at(report, protocol.h_lambda, protocol.n_applications, protocol.g_bar)


def classified_pair(h_g: LadderPolynomial, h_lambda: LadderPolynomial):
    """The :func:`classify_pair` report of (h_g, h_lambda); a pair whose
    tower hit the cap without closure is an UnclassifiedPairError."""
    report = classify_pair(h_g, h_lambda)
    if report.kind == KIND_CAP_REACHED:
        raise UnclassifiedPairError(
            "unclassified pair: adjoint tower hit the cap without closure"
        )
    return report


def generator_at(report, h_lambda: LadderPolynomial, n: int, g_bar: float) -> GeneratorResult:
    """The local generator at N and g_bar of a :func:`classified_pair` report:
    the exact truncated series, or the sinh/cosh closed form; Hermitian-checked."""
    scalars = _scalars(report, n, g_bar)
    try:
        if report.kind == KIND_CLOSED_INFINITE:
            lam, odd, even = scalars
            gen = lam * h_lambda + odd * (1j * report.tower[1]) + even * report.tower[2]
            result = GeneratorResult(generator=gen, truncation_used=3, closed_form=True)
        else:
            acc = LadderPolynomial()
            for coeff, entry in zip(scalars, report.tower):
                acc = acc + coeff * entry
            result = GeneratorResult(
                generator=float(n) * acc, truncation_used=len(scalars), closed_form=False
            )
    except ValidationError:  # a finite scalar times a tower coefficient is not
        raise _overflow(report, n, g_bar, product=True) from None

    if not is_hermitian(result.generator, _GENERATOR_HERMITIAN_TOL):
        raise InternalConsistencyError("local generator failed the Hermiticity check")
    return result


def _scalars(report, n: int, g_bar: float) -> list:
    """The scalars of the local generator, checked before any polynomial is
    built: (N, N sinh(x) / sqrt(p), N (1 - cosh(x)) / p) with
    x = N g_bar sqrt(p) for a closed tower, else (i N g_bar)^k / k! for
    k <= K, each later scaled by N.  One that is not finite, at that scale,
    is the :func:`_overflow` error."""
    closed = report.kind == KIND_CLOSED_INFINITE
    try:
        if closed:
            p = report.closure_p
            sqrt_p = math.sqrt(p)
            arg = n * g_bar * sqrt_p
            scalars = [float(n), n * math.sinh(arg) / sqrt_p, n * (1.0 - math.cosh(arg)) / p]
        else:
            scalars = [complex(0.0, n * g_bar) ** order / math.factorial(order)
                       for order in range(report.nilpotency_index + 1)]
        if all(cmath.isfinite(value if closed else n * value) for value in scalars):
            return scalars
    except OverflowError:
        pass
    raise _overflow(report, n, g_bar)


def _overflow(report, n: int, g_bar: float, product: bool = False) -> ValidationError:
    """The "generator overflows" error, naming N and g_bar, and for a closed
    tower p and the sinh/cosh argument N g_bar sqrt(p); with ``product``,
    the scalars are finite and only a scalar times a tower coefficient is
    not."""
    times = " times a tower coefficient" if product else ""
    if report.kind != KIND_CLOSED_INFINITE:
        return ValidationError(
            f"series generator overflows: N (i N g_bar)^k / k!{times} is not finite "
            f"for k <= {report.nilpotency_index} (N = {n}, g_bar = {g_bar!r})"
        )
    p = report.closure_p
    try:
        arg = n * g_bar * math.sqrt(p)
    except OverflowError:
        arg = math.inf
    return ValidationError(
        f"closed-form generator overflows: sinh/cosh of N*g_bar*sqrt(p) = "
        f"{arg!r}{times} (N = {n}, g_bar = {g_bar!r}, p = {p!r})"
    )


def certified_block(dim: int) -> int:
    """Rows/cols of a conjugation result certified by the stability gate."""
    return dim // 4


def generator_by_conjugation(protocol: EncodingProtocol, dim: int) -> MatrixOperator:
    """Local generator as N exp(+iNg H_g) H_lam exp(-iNg H_g) on matrices.

    Computed at ``dim`` and ``2 * dim``; if the two disagree by more than
    1e-8 on the low-energy sub-block (rows and columns below
    ``dim // 4``) the truncation is unstable at these parameters and an
    error is raised.  The quarter-dimension block leaves enough buffer for
    the exponential level spread of squeezing-type conjugations; outside
    the returned block the truncated result is not certified.
    """
    if dim < 8:
        raise ValidationError("conjugation oracle requires dim >= 8")

    def conjugated(d: int) -> np.ndarray:
        h_g = matrix_of(protocol.h_g, d)
        h_l = matrix_of(protocol.h_lambda, d)
        # exp(+i N g H_g) = evolution by -N g under exp(-i t H)
        u = HermitianEvolver(h_g.matrix).unitary(-protocol.n_applications * protocol.g_bar)
        return protocol.n_applications * (u @ h_l.matrix @ u.conj().T)

    base = conjugated(dim)
    doubled = conjugated(2 * dim)
    block = certified_block(dim)
    drift = float(np.abs(doubled[:block, :block] - base[:block, :block]).max())
    if drift > _STABILITY_TOL:
        raise TruncationInstabilityError(
            f"conjugated generator changed by {drift:.3e} between dim {dim} and "
            f"{2 * dim} on the {block}x{block} sub-block"
        )
    return MatrixOperator(dim=dim, matrix=base)


def leading_qfi_coefficient(k: int, n: int, g_bar: float, var_k: float) -> float:
    """Leading-order QFI 4 N^{2(1+K)} / (K!)^2 * g^{2K} * Var[tower[K]]."""
    if k < 0:
        raise ValidationError("nilpotency index must be non-negative")
    if n < 1:
        raise ValidationError("number of applications must be positive")
    if var_k < 0:
        raise ValidationError("variance must be non-negative")
    try:
        try:
            base = n ** (2 * (1 + k)) / math.factorial(k) ** 2
        except OverflowError:
            base = math.exp(2 * (1 + k) * math.log(n) - 2 * math.lgamma(k + 1))
        value = 4.0 * base * (g_bar ** (2 * k)) * var_k
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(
            f"leading QFI coefficient is not finite: 4 N^(2(1+K)) / (K!)^2 g_bar^(2K) "
            f"Var (K = {k}, N = {n}, g_bar = {g_bar!r})"
        )
    return value


def k_peak(n: int, k_max: int) -> tuple[int, ...]:
    """Argmax set of f(K) = N^{2(1+K)} / (K!)^2 over 0 <= K <= k_max.

    Since f(K+1)/f(K) = N^2/(K+1)^2, f rises while K < N - 1, ties at
    K = N - 1 and N, and falls after, so the set is {N-1, N} for every N >= 1.
    """
    if n < 1:
        raise ValidationError("number of applications must be positive")
    if k_max < n + 1:
        raise ValidationError("k_max must be at least N + 1 to bracket the peak")
    return (n - 1, n)


def qcrb_rmse(qfi: float, nu: int = 1) -> float:
    """Cramer-Rao root-mean-square error 1 / sqrt(nu * QFI)."""
    if not 0 < qfi < math.inf:  # nan and inf too
        raise ValidationError("QFI must be positive for a finite error bound" if qfi <= 0
                              else f"QFI must be finite, got {qfi!r}")
    if nu < 1:
        raise ValidationError("number of repetitions must be at least 1")
    return 1.0 / math.sqrt(nu * qfi)
