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

import math
from dataclasses import dataclass
from fractions import Fraction

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
    """Local generator of the protocol with respect to lambda_bar.

    The pair (h_g, h_lambda) is classified by :func:`classify_pair`, which
    builds its tower once per process, so a scan over N classifies it once.
    Finite classifications use the exact truncated series, closed towers the
    sinh/cosh closed form; an unclassified pair is an error.
    """
    report = classify_pair(protocol.h_g, protocol.h_lambda)
    if report.kind == KIND_CAP_REACHED:
        raise UnclassifiedPairError(
            "unclassified pair: adjoint tower hit the cap without closure"
        )

    n = protocol.n_applications
    g_bar = protocol.g_bar

    if report.kind == KIND_CLOSED_INFINITE:
        p = report.closure_p
        sqrt_p = math.sqrt(p)
        arg = n * g_bar * sqrt_p
        try:
            sinh, cosh = math.sinh(arg), math.cosh(arg)
        except OverflowError:
            raise ValidationError(
                f"closed-form generator overflows: sinh/cosh of N*g_bar*sqrt(p) = "
                f"{arg!r} (N = {n}, g_bar = {g_bar!r}, p = {p!r})"
            ) from None
        c_entry = report.tower[1]
        d_entry = report.tower[2]
        gen = (
            float(n) * protocol.h_lambda
            + (n * sinh / sqrt_p) * (1j * c_entry)
            + (n * (1.0 - cosh) / p) * d_entry
        )
        result = GeneratorResult(generator=gen, truncation_used=3, closed_form=True)
    else:
        k = report.nilpotency_index
        acc = LadderPolynomial()
        for order in range(k + 1):
            coeff = complex(0.0, n * g_bar) ** order / math.factorial(order)
            acc = acc + coeff * report.tower[order]
        result = GeneratorResult(
            generator=float(n) * acc, truncation_used=k + 1, closed_form=False
        )

    if not is_hermitian(result.generator, _GENERATOR_HERMITIAN_TOL):
        raise InternalConsistencyError("local generator failed the Hermiticity check")
    return result


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
    numerator = n ** (2 * (1 + k))
    denominator = math.factorial(k) ** 2
    try:
        base = numerator / denominator
    except OverflowError:
        base = math.exp(2 * (1 + k) * math.log(n) - 2 * math.lgamma(k + 1))
    return 4.0 * base * (g_bar ** (2 * k)) * var_k


def k_peak(n: int, k_max: int) -> tuple[int, ...]:
    """Argmax set of f(K) = N^{2(1+K)} / (K!)^2 over 0 <= K <= k_max.

    Ties are decided with exact integer arithmetic; since
    f(K+1)/f(K) = N^2/(K+1)^2, the set is {N-1, N} for every N >= 1.
    """
    if n < 1:
        raise ValidationError("number of applications must be positive")
    if k_max < n + 1:
        raise ValidationError("k_max must be at least N + 1 to bracket the peak")
    values = [
        Fraction(n ** (2 * (1 + k)), math.factorial(k) ** 2) for k in range(k_max + 1)
    ]
    peak = max(values)
    return tuple(k for k, value in enumerate(values) if value == peak)


def qcrb_rmse(qfi: float, nu: int = 1) -> float:
    """Cramer-Rao root-mean-square error 1 / sqrt(nu * QFI)."""
    if qfi <= 0:
        raise ValidationError("QFI must be positive for a finite error bound")
    if nu < 1:
        raise ValidationError("number of repetitions must be at least 1")
    return 1.0 / math.sqrt(nu * qfi)
