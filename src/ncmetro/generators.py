"""Local generators and leading-order Fisher-information quantities.

Given a classified operator pair, the local generator of the block encoding
``exp(-i N lam H_lam) exp(-i N g H_g)`` with respect to the mean parameter is

    h = N * sum_{n=0}^{K} (i N g)^n / n! * tower[n]

for finite nilpotency index K.  When the tower satisfies the closure
relation it has the closed form N [h0 + e^x h+ + e^-x h-] at
x = N g sqrt(p), h split along the eigenvalues of i ad_g (``_split``), so
that each part scales by one exponential and none cancels.  Scans read the
tower or its split once and sum each N's terms with a single query's floats
(``_generator_terms``).  ``generator_by_conjugation`` computes the same
object as ``N exp(+iNg H_g) H_lam exp(-iNg H_g)`` on truncated matrices and
serves as the independent oracle for the series route.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    TruncationInstabilityError,
    UnclassifiedPairError,
    ValidationError,
)
from .fock import MatrixOperator, _evolver, matrix_of
from .ladder import (
    CHOP_TOLERANCE,
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
    """Local generator of the protocol with respect to lambda_bar (a scan
    over N reads its pair's tower once instead: ``experiments``)."""
    report = classified_pair(protocol.h_g, protocol.h_lambda)
    return generator_at(report, protocol.n_applications, protocol.g_bar)


def classified_pair(h_g: LadderPolynomial, h_lambda: LadderPolynomial):
    """The :func:`classify_pair` report of (h_g, h_lambda); a pair whose
    tower hit the cap without closure is an UnclassifiedPairError."""
    report = classify_pair(h_g, h_lambda)
    if report.kind == KIND_CAP_REACHED:
        raise UnclassifiedPairError(
            "unclassified pair: adjoint tower hit the cap without closure"
        )
    return report


def generator_at(report, n: int, g_bar: float) -> GeneratorResult:
    """The local generator at N and g_bar of a :func:`classified_pair` report:
    the exact truncated series, or the closed form N [h0 + e^x h+ + e^-x h-]
    of :func:`_split`; Hermitian-checked."""
    closed = report.kind == KIND_CLOSED_INFINITE
    gen = LadderPolynomial._canonical(_generator_terms(report, _parts(report), n, g_bar))
    if not is_hermitian(gen, _GENERATOR_HERMITIAN_TOL):
        raise InternalConsistencyError("local generator failed the Hermiticity check")
    return GeneratorResult(generator=gen, closed_form=closed,
                           truncation_used=3 if closed else report.nilpotency_index + 1)


def _parts(report) -> tuple[LadderPolynomial, ...]:
    """What the local generator of a report is a sum of, each times a scalar
    of :func:`_scalars`: a closed tower's :func:`_split`, else its tower."""
    return _split(report) if report.kind == KIND_CLOSED_INFINITE else report.tower


def _generator_terms(report, parts, n: int, g_bar: float) -> dict:
    """The canonical terms of the local generator at N and g_bar, from the
    report's :func:`_parts` read once (a scan calls this per N): N e^(+-x)
    times the split parts, or the series summed entry by entry, then scaled
    by N, with each product and sum chopped where LadderPolynomial
    arithmetic chops it, so its floats are those of ``N * sum(s_k * t_k)``.
    A coefficient that is not finite is the product overflow."""
    scalars = _scalars(report, n, g_bar, parts)
    acc: dict = {}
    if report.kind == KIND_CLOSED_INFINITE:
        for scalar, part in zip(scalars, parts):
            for key, coeff in part._terms.items():
                acc[key] = acc[key] + scalar * coeff if key in acc else scalar * coeff
    else:
        for scalar, entry in zip(scalars, parts):
            for key, coeff in entry._terms.items():
                term = scalar * coeff
                if not abs(term) <= CHOP_TOLERANCE:  # nan and inf are kept, and raise below
                    total = acc.get(key, 0j) + term
                    if not abs(total) <= CHOP_TOLERANCE:
                        acc[key] = total
                    else:
                        del acc[key]
        acc = {key: float(n) * coeff for key, coeff in acc.items()}
    terms = {}
    for key, coeff in acc.items():
        size = abs(coeff)
        if not size < math.inf:
            raise _overflow(report, n, g_bar, product=True)
        if size > CHOP_TOLERANCE:
            terms[key] = coeff
    return terms


#: A split part's coefficient at most this many roundings of its inputs is
#: their rounding residue, and is dropped.
_RESIDUE_ROUNDINGS = 16


def _split(report) -> tuple[LadderPolynomial, LadderPolynomial, LadderPolynomial]:
    """(h0, h+, h-) of a closed tower.  On a closed orbit a = i ad_g satisfies
    a^3 = p a, so h = h0 + h+ + h- along a's eigenvalues 0 and +-sqrt(p),
    with h0 = t0 + t2 / p and h+- = (-t2 +- sqrt(p) i t1) / (2 p), and
    exp(i N g_bar ad_g) h = h0 + e^x h+ + e^-x h- at x = N g_bar sqrt(p)
    (Higham, Functions of Matrices, SIAM 2008, ch. 10).  Each part scales by
    one exponential, so no e^x term cancels another.  A coefficient is
    dropped only as the rounding residue of its own inputs, not by the
    absolute chop, which applies to the scaled generator: e^x can make a
    small part the largest term.  Where h only contracts, h+ is exactly
    zero.  Each part is Hermitian."""
    t0, t1, t2 = (entry._terms for entry in report.tower[:3])
    p, rate = report.closure_p, math.sqrt(report.closure_p) * 1j
    residue = _RESIDUE_ROUNDINGS * sys.float_info.epsilon
    h0, h_plus, h_minus = {}, {}, {}
    for key in t0.keys() | t1.keys() | t2.keys():
        h, odd, even = t0.get(key, 0j), rate * t1.get(key, 0j), t2.get(key, 0j)
        for part, value, inputs in (
            (h0, h + (1.0 / p) * even, abs(h) + abs(even) / p),
            (h_plus, (0.5 / p) * (odd - even), (0.5 / p) * (abs(odd) + abs(even))),
            (h_minus, (-0.5 / p) * (odd + even), (0.5 / p) * (abs(odd) + abs(even))),
        ):
            if not abs(value) <= residue * inputs:  # kept if not finite: N e^x times it raises
                part[key] = value
    return tuple(map(LadderPolynomial._canonical, (h0, h_plus, h_minus)))


def _scalars(report, n: int, g_bar: float, parts) -> list:
    """The scalars of the local generator, checked before any polynomial is
    built: (N, N e^x, N e^-x) with x = N g_bar sqrt(p) for the parts of a
    closed tower (0 for a part that is zero, whose exponential is never
    taken), else (i N g_bar)^k / k! for k <= K, each later scaled by N.  One
    that is not finite, at that scale, is the :func:`_overflow` error."""
    try:
        if report.kind == KIND_CLOSED_INFINITE:
            arg = n * g_bar * math.sqrt(report.closure_p)
            scalars = [n * math.exp(sign * arg) if part._terms else 0.0
                       for sign, part in zip((0.0, 1.0, -1.0), parts)]
            if all(map(math.isfinite, scalars)):
                return scalars
        else:
            scalars = [complex(0.0, n * g_bar) ** order / math.factorial(order)
                       for order in range(report.nilpotency_index + 1)]
            if all(cmath.isfinite(n * value) for value in scalars):
                return scalars
    except OverflowError:
        pass
    raise _overflow(report, n, g_bar)


def _overflow(report, n: int, g_bar: float, product: bool = False) -> ValidationError:
    """The "generator overflows" error, naming N and g_bar, and for a closed
    tower p and the exponent N g_bar sqrt(p) (the text's sinh/cosh are its
    e^x and e^-x); with ``product``, the scalars are finite and only a
    scalar times a tower coefficient is not."""
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
        h_l = matrix_of(protocol.h_lambda, d)
        # exp(+i N g H_g) = evolution by -N g under exp(-i t H)
        u = _evolver(protocol.h_g, d).unitary(-protocol.n_applications * protocol.g_bar)
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
