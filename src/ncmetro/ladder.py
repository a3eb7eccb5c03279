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

Commutators run on dense numpy grids indexed (m, n), through one adjoint
stepper t -> [g, t] (:class:`_AdjointStep`): a single :func:`commutator`
is one step, :func:`adjoint_power` and the towers of :func:`classify_pair`
are many.  The contraction weights are the exact normal-ordering integers
R(n, m, k) = C(n, k) C(m, k) k! (Blasiak et al., Am. J. Phys. 75, 639,
2007); for one term and one k they are a row minus a column vector, so
each (term, k) is one slice-add over the other operand's whole grid: the
kernel (:func:`_contract`) is one loop that slices as it adds, and a
stepper sizes g's contractions once, to the largest grid a level below the
degree limit can have.  While a tower runs, its levels stay trimmed,
chop-zeroed grids (:class:`_Level`); a level's terms are built when the
kernel runs over them, and every level becomes a polynomial once, when the
report is returned, so a tower that overflows builds none.  Every product
stops at the fixed total degree ``MAX_DEGREE``; within it each weight
difference is rounded once.  A pair is classified once per process:
:func:`classify_pair` keeps its reports in a bounded least-recently-used
cache (:class:`_BoundedLRU`, which also holds the Fock oracle's
decompositions), sized by the tower terms they hold.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import DegreeOverflowError, ValidationError

#: Absolute magnitude below which a coefficient counts as zero.
CHOP_TOLERANCE = 1e-12

#: Largest total degree (m + n) a product may produce before erroring out.
MAX_DEGREE = 64

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

    Values that depend on the terms alone (the exact key of
    :func:`classify_pair`, :func:`is_hermitian` at its default tolerance, the
    Fock oracle's evolver key) are derived once per instance and kept in its
    memo (:meth:`_memoised`), so a shared operator such as a preset's pays
    for each once per process.  Every constructor sets the memo empty.
    """

    __slots__ = ("_terms", "_memo")

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
        self._terms, self._memo = canonical, None

    @classmethod
    def _canonical(cls, terms: dict[tuple[int, int], complex]) -> "LadderPolynomial":
        """Wrap a mapping that is already canonical (int keys, finite complex
        coefficients above the chop) without checking it again."""
        poly = cls.__new__(cls)
        poly._terms, poly._memo = terms, None
        return poly

    @classmethod
    def _combined(cls, terms: dict[tuple[int, int], complex]) -> "LadderPolynomial":
        """Canonicalize coefficients computed over canonical operands' keys:
        each is coerced to complex, checked finite and chopped as by the
        constructor, whose exponent checks those keys have already passed."""
        canonical: dict[tuple[int, int], complex] = {}
        for key, coeff in terms.items():
            c = complex(coeff)
            size = abs(c)
            if not size < math.inf:
                raise ValidationError(f"coefficient of {key!r} is not finite: {coeff!r}")
            if size > CHOP_TOLERANCE:
                canonical[key] = c
        return cls._canonical(canonical)

    def _memoised(self, derive: Callable[["LadderPolynomial"], object]):
        """``derive(self)``, computed on the first call and kept: ``derive``
        must depend on the terms alone."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        try:
            return memo[derive]
        except KeyError:
            value = memo[derive] = derive(self)
            return value

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
        return LadderPolynomial._combined(out)

    def __sub__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        if not isinstance(other, LadderPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0j) - c
        return LadderPolynomial._combined(out)

    def __neg__(self) -> "LadderPolynomial":
        return LadderPolynomial._combined({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, LadderPolynomial):
            return normal_order_product(self, other)
        if isinstance(other, (int, float, complex)):
            return LadderPolynomial._combined({k: c * other for k, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LadderPolynomial._combined({k: other * c for k, c in self._terms.items()})
        return NotImplemented

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


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise DegreeOverflowError(f"product degree {degree} exceeds limit {MAX_DEGREE}")


def normal_order_product(a: LadderPolynomial, b: LadderPolynomial) -> LadderPolynomial:
    """Canonical form of the operator product a * b.

    Each term pair is recombined through the Wick-style reordering identity
    for ``a^n a_dag^m``, so the result is normal-ordered by construction.

    Raises:
        DegreeOverflowError: if the worst-case product degree exceeds
            ``MAX_DEGREE`` (the sum of the input degrees is the bound).
    """
    if a.is_zero() or b.is_zero():
        return zero_op()
    _check_degree(a.degree + b.degree)
    out: dict[tuple[int, int], complex] = {}
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            c = c1 * c2
            for k in range(min(n1, m2) + 1):
                key = (m1 + m2 - k, n1 + n2 - k)
                out[key] = out.get(key, 0j) + c * _reorder_coefficient(n1, m2, k)
    return LadderPolynomial(out)


#: Every caller of the kernel runs under this: an overflow is reported as a
#: ValidationError on the coefficient it spoils, not as a numpy warning first.
_kernel_errors = np.errstate(over="ignore", invalid="ignore")


@_kernel_errors
def commutator(a: LadderPolynomial, b: LadderPolynomial) -> LadderPolynomial:
    """Canonical form of [a, b] = a*b - b*a, from the contracted terms alone:
    one step of a's adjoint tower (:class:`_AdjointStep`).

    The two products share their k = 0 (uncontracted) terms, so the
    commutator keeps only the contractions k >= 1 (Blasiak et al., Am. J.
    Phys. 75, 639, 2007):

        [ad^m1 a^n1, ad^m2 a^n2]
            = sum_{k>=1} (R(n1, m2, k) - R(n2, m1, k)) ad^(m1+m2-k) a^(n1+n2-k),
        R(n, m, k) = C(n, k) C(m, k) k!.

    For one term (m1, n1, c1) and one k the weight W_k[m2, n2] is a row
    vector minus a column vector, so the dense kernel (:func:`_contract`)
    adds ``(c1 * V) * W_k`` over the whole coefficient grid V of the other
    operand in one numpy slice-add, shifted by (m1 - k, n1 - k).  Each
    weight is the float difference of two rows, each rounded once.  That
    is exact below 2^53, and above it, for every weight pair that a product
    within ``MAX_DEGREE`` reaches, it is the exact difference rounded once:
    the tests check all of them.  Each value is (c1 * c2) * W, rounded as
    the term-by-term sum rounds it.  The k = 0 terms are never formed, and
    nothing cancels between two large products, so deep adjoint towers keep
    their digits.

    Antisymmetry is exact: the kernel always runs over the terms of the
    operand with fewer terms (:func:`_runs_outer`) against the other's grid,
    and for the other argument order it runs with those coefficients
    negated, which negates every product and every sum exactly.  The sums
    start at +0, so no negative zero appears.  ``[a, a]`` is zero.

    Raises:
        DegreeOverflowError: under the same rule as :func:`normal_order_product`
            (the sum of the input degrees exceeds ``MAX_DEGREE``).
        ValidationError: if a coefficient of the result is not finite.
    """
    if a.is_zero() or b.is_zero():
        return zero_op()
    return _AdjointStep(a)(_Level.of(b)).polynomial()


class _Level:
    """A level t of an adjoint tower, as the kernel keeps it: t's grid trimmed
    to its terms with every chopped entry zeroed, the rows and columns of
    its terms in row-major order, their coefficients and their count.  t as
    a polynomial is built only when asked for (:meth:`polynomial`).  A level
    made from a polynomial (:meth:`of`) has its grid built only if a step
    needs it."""

    __slots__ = ("grid", "ms", "ns", "values", "size", "poly")

    def __init__(self, grid: np.ndarray, ms: np.ndarray, ns: np.ndarray,
                 values: np.ndarray):
        self.grid, self.ms, self.ns, self.values = grid, ms, ns, values
        self.size, self.poly = len(ms), None

    @classmethod
    def of(cls, p: LadderPolynomial) -> "_Level":
        level = cls.__new__(cls)
        level.grid = level.ms = level.ns = level.values = None
        level.size, level.poly = len(p._terms), p
        return level

    def polynomial(self) -> LadderPolynomial:
        """t, its terms in row-major order, built once."""
        if self.poly is None:
            self.poly = LadderPolynomial._canonical(dict(zip(
                zip(self.ms.tolist(), self.ns.tolist()), self.values.tolist())))
        return self.poly

    def degree(self) -> int:
        if self.poly is not None:
            return self.poly.degree
        return int(np.add(self.ms, self.ns).max())


#: The zero level, where a tower ends.
_ZERO_LEVEL = _Level.of(LadderPolynomial())


class _AdjointStep:
    """ad_g, one level t -> [g, t] of g's adjoint tower on dense grids.

    Built once per g, it keeps what the levels share: g's coefficients and
    grid, and the contractions of g's terms, sized once, at the first step
    that runs over them, to the largest grid an entry below the degree
    limit can have.  The contractions of an entry's terms with g's grid are
    derived at each step that runs over them.  A level's terms are built
    only when the kernel runs over them, or to break a tie in
    :func:`_runs_outer`.  Callers step under ``_kernel_errors``.
    """

    def __init__(self, g: LadderPolynomial):
        self.g, self.extent = g, _extent(g)
        self.degree = sum(self.extent) - 2  # bounds g's degree; exact once needed
        self.g_grid = self.g_terms = self.g_coefficients = None

    def __call__(self, t: _Level) -> _Level:
        """[g, t] from a nonzero level t."""
        g = self.g
        grid = t.grid
        shape = _extent(t.poly) if grid is None else grid.shape
        # extents bound degrees (m + n <= rows - 1 + cols - 1); the exact
        # degrees are needed only near the limit
        if self.degree + sum(shape) - 2 > MAX_DEGREE:
            self.degree = g.degree
            _check_degree(self.degree + t.degree())
        size = len(g._terms)
        g_outer = size < t.size if size != t.size else _runs_outer(g, t.polynomial())
        if g_outer is None:
            return _ZERO_LEVEL
        if g_outer:
            if self.g_terms is None:
                limit = MAX_DEGREE + 1 - g.degree
                self.g_terms = [(m1, n1, _contractions(m1, n1, limit, limit))
                                for m1, n1 in g._terms]
                self.g_coefficients = _coefficients(g, True)
            if grid is None:
                grid = _grid(t.poly, shape)
            return _level(_contract(self.g_terms, self.g_coefficients, self.extent, grid))
        if self.g_grid is None:
            self.g_grid = _grid(g, self.extent)
        p = t.polynomial()
        terms = [(m1, n1, _contractions(m1, n1, *self.extent)) for m1, n1 in p._terms]
        return _level(_contract(terms, _coefficients(p, False), shape, self.g_grid))


def _runs_outer(a: LadderPolynomial, b: LadderPolynomial) -> bool | None:
    """Whether the kernel runs over a's terms for [a, b]; None when a == b.

    It runs over the operand with fewer terms; on a tie, over the one that
    sorts last by its sorted exponents and then by its sorted terms.  The
    choice does not depend on the argument order.
    """
    if len(a._terms) != len(b._terms):
        return len(a._terms) < len(b._terms)
    key_a, key_b = sorted(a._terms), sorted(b._terms)
    if key_a == key_b:
        key_a, key_b = _order_key(a), _order_key(b)
    return None if key_a == key_b else key_a > key_b


def _order_key(p: LadderPolynomial) -> list[tuple[int, int, float, float]]:
    """A total order on polynomials; equal keys mean equal polynomials."""
    return sorted([(m, n, c.real, c.imag) for (m, n), c in p._terms.items()])


def _extent(p: LadderPolynomial) -> tuple[int, int]:
    """Shape of the smallest grid that holds a nonzero polynomial."""
    ms, ns = zip(*p._terms)
    return max(ms) + 1, max(ns) + 1


def _grid(p: LadderPolynomial, extent: tuple[int, int]) -> np.ndarray:
    """Dense coefficient grid of a nonzero polynomial, given its extent:
    grid[m, n] multiplies ad^m a^n."""
    grid = np.zeros(extent, dtype=complex)
    for key, c in p._terms.items():
        grid[key] = c
    return grid


@lru_cache(maxsize=None)
def _weight_row(j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """R(j, x, k) for x = 0 .. MAX_DEGREE, each rounded to a float once, and
    0 - R(j, x, k) (complex dtype, read-only)."""
    scale = math.comb(j, k) * math.factorial(k)
    row = np.array([float(scale * math.comb(x, k)) for x in range(MAX_DEGREE + 1)],
                   dtype=complex)
    negated = np.subtract(0.0, row)
    row.flags.writeable = negated.flags.writeable = False
    return row, negated


def _contractions(m1: int, n1: int, rows: int, cols: int) -> list:
    """The contractions of term (m1, n1) with a rows x cols grid: (k, i, j, W_k)
    for every k >= 1 that reaches the grid, where W_k[m2, n2] = R(n1, m2, k) -
    R(n2, m1, k) and (i, j) are the first row and column of the grid that the
    block shifted by (m1 - k, n1 - k) can reach.

    Past min(m1, n1) one of the two rows vanishes, and W_k is the other row
    alone, kept as a (1, cols) or (rows, 1) array that broadcasts.  Where
    both rows are present, W_k is their float difference, which within
    ``MAX_DEGREE`` is the exact difference rounded once (see
    :func:`commutator`).
    """
    out = []
    for k in range(1, max(min(n1, rows - 1), min(m1, cols - 1)) + 1):
        if k > n1:
            weight = _weight_row(m1, k)[1][None, :cols]
        elif k > m1:
            weight = _weight_row(n1, k)[0][:rows, None]
        else:
            weight = np.subtract.outer(_weight_row(n1, k)[0][:rows],
                                       _weight_row(m1, k)[0][:cols])
        out.append((k, k - m1 if k > m1 else 0, k - n1 if k > n1 else 0, weight))
    return out


def _coefficients(p: LadderPolynomial, positive: bool) -> np.ndarray:
    """p's coefficients in term order (negated when not ``positive``), shaped
    (terms, 1, 1) to scale a grid once per term."""
    values = p._terms.values()
    return np.array(list(values) if positive else [-c for c in values],
                    dtype=complex)[:, None, None]


def _contract(terms: list, coefficients: np.ndarray, extent: tuple[int, int],
              grid: np.ndarray) -> np.ndarray:
    """The kernel: the dense grid of [outer, inner] from the outer operand's
    terms as (m1, n1, contractions) in term order, its coefficients
    (:func:`_coefficients`) and extent, and the inner operand's grid.

    Contraction k of term (m1, n1, c) moves grid entry (m2, n2, c2) to
    (m1 + m2 - k, n1 + n2 - k) with the value (c * c2) * W_k[m2, n2]: one
    product of the coefficients with the grid, then, in term order and then
    k order, one slice-add per (term, k) that reaches the grid, with the
    scaled grid's block shifted by (m1 - k, n1 - k).  The sums start at +0
    and so never end at -0, and negated coefficients negate every product
    and sum exactly.
    """
    rows, cols = grid.shape
    out = np.zeros((extent[0] + rows - 2, extent[1] + cols - 2), dtype=complex)
    for (m1, n1, contractions), scaled in zip(terms, coefficients * grid):
        for k, i, j, weight in contractions:
            if not ((k < rows and k <= n1) or (k < cols and k <= m1)):
                break  # k rises, so no later contraction reaches the grid
            block = out[m1 - k + i: m1 - k + rows, n1 - k + j: n1 - k + cols]
            block += scaled[i:, j:] * weight[i:rows, j:cols]
    return out


def _level(out: np.ndarray) -> _Level:
    """A result grid as a tower level: chopped, checked and trimmed.

    The chop drops |c| <= ``CHOP_TOLERANCE`` and zeroes those entries in
    place, so the trimmed grid holds exactly the level's terms.
    """
    if not out.size:
        return _ZERO_LEVEL
    size = np.abs(out)
    keep = size > CHOP_TOLERANCE
    if not np.add.reduce(size, None) < math.inf:
        bad = np.argwhere(~np.isfinite(out))
        if len(bad):
            m, n = bad[0].tolist()
            raise ValidationError(
                f"coefficient of {(m, n)!r} is not finite: {complex(out[m, n])!r}")
    ms, ns = keep.nonzero()
    if not len(ms):
        return _ZERO_LEVEL
    if len(ms) != np.count_nonzero(out):
        out *= keep
    return _Level(out[: ms[-1] + 1, : ns[ns.argmax()] + 1], ms, ns, out[keep])


@_kernel_errors
def adjoint_power(g: LadderPolynomial, h: LadderPolynomial, n: int) -> LadderPolynomial:
    """n-fold nested commutator [g, [g, ... [g, h] ...]]; n = 0 returns h."""
    if n < 0:
        raise ValidationError("adjoint power requires n >= 0")
    if n == 0:
        return h
    if g.is_zero() or h.is_zero():
        return zero_op()
    step, level = _AdjointStep(g), _Level.of(h)
    for _ in range(n):
        level = step(level)
        if not level.size:
            break
    return level.polynomial()


def is_hermitian(p: LadderPolynomial, tol: float = CHOP_TOLERANCE) -> bool:
    """True iff coefficient(m, n) == conj(coefficient(n, m)) within tol; at
    the default tolerance the answer is kept in p's memo."""
    if tol == CHOP_TOLERANCE:
        return p._memoised(_is_hermitian)
    return _is_hermitian(p, tol)


def _is_hermitian(p: LadderPolynomial, tol: float = CHOP_TOLERANCE) -> bool:
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

    A pair is classified once per process: the report is kept by
    ``_reports`` (a :class:`_BoundedLRU` that keeps no oversized tower and
    no error) and returned again for the same exact terms of g and h
    (:func:`_exact_key`) and ``cap``.  Reports are therefore shared between
    callers and must not be mutated.
    """
    if g.is_zero() or h.is_zero():
        raise ValidationError("classification requires nonzero operators")
    if cap < 2:
        raise ValidationError("adjoint cap must be at least 2")
    return _reports((_exact_key(g), _exact_key(h), cap), lambda: _classify(g, h, cap))


@_kernel_errors
def _classify(g: LadderPolynomial, h: LadderPolynomial, cap: int) -> NilpotencyReport:
    """The adjoint tower of :func:`classify_pair` and its classification."""
    step = _AdjointStep(g)
    levels = [_Level.of(h)]
    for n in range(1, cap + 1):
        entry = step(levels[-1])
        if not entry.size:
            k = n - 1
            tower = tuple(level.polynomial() for level in levels)
            top = tower[k]
            if top.is_constant():
                return NilpotencyReport(
                    kind=KIND_FINITE_CONSTANT,
                    tower=tower,
                    nilpotency_index=k,
                    constant_value=top.constant_term(),
                )
            return NilpotencyReport(kind=KIND_FINITE, tower=tower, nilpotency_index=k)
        levels.append(entry)

    tower = tuple(level.polynomial() for level in levels)
    if len(tower) >= 4:
        p = _extract_closure_rate(tower[1], tower[3])
        if p is not None:
            return NilpotencyReport(
                kind=KIND_CLOSED_INFINITE, tower=tower, closure_p=p, cap=cap
            )
    return NilpotencyReport(kind=KIND_CAP_REACHED, tower=tower, cap=cap)


def _exact_key(p: LadderPolynomial) -> tuple[tuple, bytes]:
    """p's exponents in term order and its coefficients' bytes, so that
    coefficients equal under ``==`` but for the sign of a zero part
    (0.0 and -0.0) give different keys; kept in p's memo."""
    return p._memoised(_fresh_exact_key)


def _fresh_exact_key(p: LadderPolynomial) -> tuple[tuple, bytes]:
    terms = p._terms
    return tuple(terms), np.fromiter(terms.values(), complex, len(terms)).tobytes()


class _BoundedLRU:
    """A process-wide cache, least recently used values evicted first while
    the sizes they hold exceed ``budget``, except that the ``floor`` newest
    are always kept.

    ``cache(key, build)`` returns the value kept under ``key``, or keeps and
    returns ``build()``.  Without a floor, a value larger than the budget is
    returned but not kept, so it does not flush the rest; an error from
    ``build`` is never kept.  The lock guards the bookkeeping, not
    ``build``: two threads may build one key, and the value stored first is
    the one both return.  ``cache_clear()`` empties it.
    """

    def __init__(self, size: Callable[[object], int], budget: int, floor: int = 0):
        self._size, self.budget, self.floor = size, budget, floor
        self._entries: OrderedDict = OrderedDict()  # key -> (value, size)
        self._lock = threading.Lock()
        self.held = 0

    def __call__(self, key, build: Callable[[], object]):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        value = build()
        size = self._size(value)
        if size > self.budget and not self.floor:
            return value
        with self._lock:
            entry = self._entries.setdefault(key, (value, size))
            if entry[0] is value:
                self.held += size
                while len(self._entries) > self.floor and self.held > self.budget:
                    self.held -= self._entries.popitem(last=False)[1][1]
        return entry[0]

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.held = 0


#: Reports of :func:`classify_pair`, bounded by the tower terms they hold: a
#: few hundred KB of coefficients and dict slots.  The presets' towers hold
#: 3 to 66 terms; a capped tower of a cubic pair holds thousands and is not
#: kept.
_reports = _BoundedLRU(lambda report: sum(len(level._terms) for level in report.tower), 2048)
