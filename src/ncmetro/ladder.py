"""Exact algebra of polynomials in bosonic ladder operators.

Every operator is stored in normal order: a polynomial is a mapping from
exponent pairs ``(m, n)`` to a complex coefficient, representing the sum of
``coeff * (a_dag)**m * a**n`` with ``[a, a_dag] = 1``.  Keeping the
representation canonical makes the zero test and the constant test exact
structural checks, which is what the nilpotency classification relies on.

Coefficients are finite complex floats (a NaN or infinite one raises
``ValidationError``); after every canonicalization, terms with magnitude at
or below ``CHOP_TOLERANCE`` are dropped so that cancellations cannot leave
ghost terms behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .errors import DegreeOverflowError, ValidationError

#: Absolute magnitude below which a coefficient counts as zero.
CHOP_TOLERANCE = 1e-12

#: Largest total degree (m + n) a product may produce before erroring out.
DEFAULT_MAX_DEGREE = 64

#: Default number of adjoint-tower levels explored by :func:`classify_pair`.
DEFAULT_ADJOINT_CAP = 32

#: Tolerance for extracting the closure rate p from the tower.
CLOSURE_TOLERANCE = 1e-10

_SQRT2 = math.sqrt(2.0)


class LadderPolynomial:
    """Canonical normal-ordered polynomial in a single bosonic mode.

    Instances behave as immutable values: arithmetic returns new objects and
    the term mapping is exposed read-only.  ``==`` compares terms exactly
    (bit-level float equality); use :meth:`allclose` for tolerant comparison.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], complex] | None = None):
        canonical: dict[tuple[int, int], complex] = {}
        if terms:
            for key, coeff in terms.items():
                m, n = key
                if m < 0 or n < 0 or m != int(m) or n != int(n):
                    raise ValidationError(f"invalid exponent pair {key!r}")
                c = complex(coeff)
                size = abs(c)
                if not size < math.inf:
                    raise ValidationError(f"coefficient of {key!r} is not finite: {coeff!r}")
                if size > CHOP_TOLERANCE:
                    canonical[(int(m), int(n))] = c
        self._terms = canonical

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, int], complex]:
        """Read-only view of the canonical term mapping."""
        return MappingProxyType(self._terms)

    @property
    def degree(self) -> int:
        """Maximal total degree m + n; zero polynomial has degree 0."""
        return max((m + n for m, n in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """True when the polynomial is c * identity (including zero)."""
        return all(key == (0, 0) for key in self._terms)

    def constant_term(self) -> complex:
        return self._terms.get((0, 0), 0j)

    def coefficient(self, m: int, n: int) -> complex:
        return self._terms.get((m, n), 0j)

    def max_abs_coefficient(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        if not isinstance(other, LadderPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0j) + c
        return LadderPolynomial(out)

    def __sub__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        if not isinstance(other, LadderPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0j) - c
        return LadderPolynomial(out)

    def __neg__(self) -> "LadderPolynomial":
        return LadderPolynomial({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, LadderPolynomial):
            return normal_order_product(self, other)
        if isinstance(other, (int, float, complex)):
            return LadderPolynomial({k: c * other for k, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LadderPolynomial({k: other * c for k, c in self._terms.items()})
        return NotImplemented

    def dagger(self) -> "LadderPolynomial":
        """Hermitian adjoint: (a_dag^m a^n)^dag = a_dag^n a^m, conjugated coeffs."""
        return LadderPolynomial(
            {(n, m): c.conjugate() for (m, n), c in self._terms.items()}
        )

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LadderPolynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-ish value type; not hashable

    def allclose(self, other: "LadderPolynomial", tol: float = 1e-9) -> bool:
        """Term-wise comparison with absolute tolerance scaled by magnitude."""
        keys = set(self._terms) | set(other._terms)
        for key in keys:
            a = self._terms.get(key, 0j)
            b = other._terms.get(key, 0j)
            if abs(a - b) > tol * max(1.0, abs(a), abs(b)):
                return False
        return True

    def __repr__(self) -> str:
        items = ", ".join(
            f"({m},{n}): {c!r}" for (m, n), c in sorted(self._terms.items())
        )
        return f"LadderPolynomial({{{items}}})"


# -- constructors -----------------------------------------------------------


def ladder_term(m: int, n: int, coeff: complex = 1.0) -> LadderPolynomial:
    """Single normal-ordered monomial coeff * a_dag^m * a^n."""
    return LadderPolynomial({(m, n): coeff})


def zero_op() -> LadderPolynomial:
    return LadderPolynomial()


def identity_op(coeff: complex = 1.0) -> LadderPolynomial:
    return LadderPolynomial({(0, 0): coeff})


def annihilation_op() -> LadderPolynomial:
    return ladder_term(0, 1)


def creation_op() -> LadderPolynomial:
    return ladder_term(1, 0)


def position_op() -> LadderPolynomial:
    """X = (a_dag + a) / sqrt(2)."""
    return LadderPolynomial({(1, 0): 1.0 / _SQRT2, (0, 1): 1.0 / _SQRT2})


def momentum_op() -> LadderPolynomial:
    """P = i (a_dag - a) / sqrt(2), so that [X, P] = i."""
    return LadderPolynomial({(1, 0): 1j / _SQRT2, (0, 1): -1j / _SQRT2})


# -- products and commutators -----------------------------------------------


@lru_cache(maxsize=None)
def _reorder_coefficient(n1: int, m2: int, k: int) -> int:
    # a^n1 ad^m2 = sum_k C(n1,k) C(m2,k) k! ad^(m2-k) a^(n1-k)
    return math.comb(n1, k) * math.comb(m2, k) * math.factorial(k)


@lru_cache(maxsize=None)
def _reorder_row(n: int, m: int, length: int) -> tuple[int, ...]:
    """R(n, m, k) = C(n, k) C(m, k) k! for k = 1 .. length (zero past min(n, m))."""
    return tuple(_reorder_coefficient(n, m, k) for k in range(1, length + 1))


def _check_degree(a: LadderPolynomial, b: LadderPolynomial, max_degree: int) -> None:
    if a.degree + b.degree > max_degree:
        raise DegreeOverflowError(
            f"product degree {a.degree + b.degree} exceeds limit {max_degree}"
        )


def normal_order_product(
    a: LadderPolynomial,
    b: LadderPolynomial,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> LadderPolynomial:
    """Canonical form of the operator product a * b.

    Each term pair is recombined through the Wick-style reordering identity
    for ``a^n a_dag^m``, so the result is normal-ordered by construction.

    Raises:
        DegreeOverflowError: if the worst-case product degree exceeds
            ``max_degree`` (the sum of the input degrees is the bound).
    """
    if a.is_zero() or b.is_zero():
        return zero_op()
    _check_degree(a, b, max_degree)
    out: dict[tuple[int, int], complex] = {}
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            c = c1 * c2
            for k in range(min(n1, m2) + 1):
                key = (m1 + m2 - k, n1 + n2 - k)
                out[key] = out.get(key, 0j) + c * _reorder_coefficient(n1, m2, k)
    return LadderPolynomial(out)


def commutator(
    a: LadderPolynomial,
    b: LadderPolynomial,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> LadderPolynomial:
    """Canonical form of [a, b] = a*b - b*a, in one pass over the term pairs.

    The two products share their k = 0 (uncontracted) terms, so the
    commutator keeps only the contractions k >= 1 (Blasiak et al., Am. J.
    Phys. 75, 639, 2007):

        [ad^m1 a^n1, ad^m2 a^n2]
            = sum_{k>=1} (R(n1, m2, k) - R(n2, m1, k)) ad^(m1+m2-k) a^(n1+n2-k),
        R(n, m, k) = C(n, k) C(m, k) k!,

    with each weight difference taken exactly in integers (rows of R are
    cached per exponent pair) and rounded once.  The k = 0 terms are never
    formed, and nothing cancels between two large products, so deep adjoint
    towers keep their digits.

    Antisymmetry is exact: the term pairs are always summed with the operand
    that sorts first (by sorted terms) outside, and the other order returns
    that sum negated as ``0j - c``, which never makes a negative zero.  ``[a, a]``
    is zero.

    Raises:
        DegreeOverflowError: under the same rule as :func:`normal_order_product`
            (the sum of the input degrees exceeds ``max_degree``).
    """
    if a.is_zero() or b.is_zero():
        return zero_op()
    _check_degree(a, b, max_degree)
    key_a, key_b = _order_key(a), _order_key(b)
    if key_a == key_b:
        return zero_op()
    first, second = (a, b) if key_a < key_b else (b, a)
    # accumulate into a flat list indexed by m * stride + n: the result's
    # exponents are below the sum of the input degrees; one more contraction
    # (m - 1, n - 1) moves the index down by stride + 1
    stride = a.degree + b.degree + 1
    step = stride + 1
    out = [0j] * (stride * stride)
    second_terms = [(m2, n2, c2) for (m2, n2), c2 in second._terms.items()]
    for (m1, n1), c1 in first._terms.items():
        for m2, n2, c2 in second_terms:
            # the contractions of a*b and of b*a; conditional expressions,
            # as builtin min/max calls cost more in this loop
            k_forward = n1 if n1 < m2 else m2
            k_backward = n2 if n2 < m1 else m1
            top = k_forward if k_forward > k_backward else k_backward
            if top:
                c = c1 * c2
                index = (m1 + m2) * stride + n1 + n2
                for r_forward, r_backward in zip(
                    _reorder_row(n1, m2, top), _reorder_row(n2, m1, top)
                ):
                    index -= step
                    if r_forward != r_backward:
                        out[index] += c * (r_forward - r_backward)
    terms = {divmod(i, stride): c for i, c in enumerate(out) if c}
    if first is b:
        terms = {key: 0j - c for key, c in terms.items()}
    return LadderPolynomial(terms)


def _order_key(p: LadderPolynomial) -> list[tuple[int, int, float, float]]:
    """A total order on polynomials; equal keys mean equal polynomials."""
    return sorted((m, n, c.real, c.imag) for (m, n), c in p._terms.items())


def adjoint_power(
    g: LadderPolynomial,
    h: LadderPolynomial,
    n: int,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> LadderPolynomial:
    """n-fold nested commutator [g, [g, ... [g, h] ...]]; n = 0 returns h."""
    if n < 0:
        raise ValidationError("adjoint power requires n >= 0")
    out = h
    for _ in range(n):
        out = commutator(g, out, max_degree)
    return out


def is_hermitian(p: LadderPolynomial, tol: float = CHOP_TOLERANCE) -> bool:
    """True iff coefficient(m, n) == conj(coefficient(n, m)) within tol."""
    seen = set()
    for (m, n), c in p.terms.items():
        if (n, m) in seen:
            continue
        seen.add((m, n))
        partner = p.coefficient(n, m)
        if abs(c - partner.conjugate()) > tol * max(1.0, abs(c), abs(partner)):
            return False
    return True


# -- classification of the adjoint tower -------------------------------------

KIND_FINITE = "finite"
KIND_FINITE_CONSTANT = "finite_constant"
KIND_CLOSED_INFINITE = "closed_infinite"
KIND_CAP_REACHED = "cap_reached"


@dataclass(frozen=True)
class NilpotencyReport:
    """Outcome of the adjoint-tower analysis of an operator pair (g, h).

    ``tower[n]`` holds the n-th nested commutator of g acting on h, with
    ``tower[0] == h``.  For a finite classification the tower stops at the
    last nonzero entry; otherwise it extends to the exploration cap.
    """

    kind: str
    tower: tuple[LadderPolynomial, ...]
    nilpotency_index: int | None = None
    constant_value: complex | None = None
    closure_p: float | None = None
    cap: int | None = None

    def summary(self) -> str:
        if self.kind == KIND_FINITE:
            return f"finite nilpotency index {self.nilpotency_index}"
        if self.kind == KIND_FINITE_CONSTANT:
            return (
                f"finite nilpotency index {self.nilpotency_index} with constant "
                f"top commutator {self.constant_value}"
            )
        if self.kind == KIND_CLOSED_INFINITE:
            return f"closed infinite tower with p = {self.closure_p}"
        return f"unclassified after {self.cap} levels"


def _extract_closure_rate(
    c_entry: LadderPolynomial, ad2_entry: LadderPolynomial
) -> float | None:
    """Return p > 0 such that ad2_entry == -p * c_entry, or None."""
    if c_entry.is_zero() or ad2_entry.is_zero():
        return None
    ref_key = max(c_entry.terms, key=lambda k: abs(c_entry.coefficient(*k)))
    ratio = -ad2_entry.coefficient(*ref_key) / c_entry.coefficient(*ref_key)
    keys = set(c_entry.terms) | set(ad2_entry.terms)
    for key in keys:
        lhs = ad2_entry.coefficient(*key)
        rhs = -ratio * c_entry.coefficient(*key)
        if abs(lhs - rhs) > CLOSURE_TOLERANCE * max(1.0, abs(lhs), abs(rhs)):
            return None
    if abs(ratio.imag) > CLOSURE_TOLERANCE * max(1.0, abs(ratio)):
        return None
    if ratio.real <= 0.0:
        return None
    return ratio.real


def classify_pair(
    g: LadderPolynomial,
    h: LadderPolynomial,
    cap: int = DEFAULT_ADJOINT_CAP,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> NilpotencyReport:
    """Classify the noncommutative structure of the pair (g, h).

    Iterates the adjoint tower ``t[n+1] = [g, t[n]]`` starting at h.  The
    classification is one of:

    - finite: the tower vanishes at some level K+1 <= cap and the last
      nonzero entry is a genuine operator;
    - finite_constant: as above, but the last nonzero entry is a multiple
      of the identity;
    - closed_infinite: the tower never vanishes but satisfies the closure
      relation ad^2_g([g, h]) = -p [g, h] with p > 0, verified exactly on
      the canonical forms (tolerance ``CLOSURE_TOLERANCE``);
    - cap_reached: none of the above within ``cap`` levels (a value, not
      an error).
    """
    if g.is_zero() or h.is_zero():
        raise ValidationError("classification requires nonzero operators")
    if cap < 2:
        raise ValidationError("adjoint cap must be at least 2")

    tower: list[LadderPolynomial] = [h]
    for n in range(1, cap + 1):
        entry = commutator(g, tower[-1], max_degree)
        if entry.is_zero():
            k = n - 1
            top = tower[k]
            if top.is_constant():
                return NilpotencyReport(
                    kind=KIND_FINITE_CONSTANT,
                    tower=tuple(tower),
                    nilpotency_index=k,
                    constant_value=top.constant_term(),
                )
            return NilpotencyReport(
                kind=KIND_FINITE, tower=tuple(tower), nilpotency_index=k
            )
        tower.append(entry)

    if len(tower) >= 4:
        p = _extract_closure_rate(tower[1], tower[3])
        if p is not None:
            return NilpotencyReport(
                kind=KIND_CLOSED_INFINITE, tower=tuple(tower), closure_p=p, cap=cap
            )
    return NilpotencyReport(kind=KIND_CAP_REACHED, tower=tuple(tower), cap=cap)
