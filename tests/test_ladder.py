"""Ladder-polynomial algebra: products, commutators, towers, classification."""

import math
import random
import struct
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmetro import (
    DegreeOverflowError,
    LadderPolynomial,
    ValidationError,
    adjoint_power,
    annihilation_op,
    build_preset,
    classify_pair,
    commutator,
    creation_op,
    identity_op,
    is_hermitian,
    ladder_term,
    momentum_op,
    normal_order_product,
    parse_operator,
    position_op,
    zero_op,
)
from ncmetro.cli import main
from ncmetro.ladder import (
    CHOP_TOLERANCE,
    KIND_CAP_REACHED,
    KIND_CLOSED_INFINITE,
    KIND_FINITE,
    KIND_FINITE_CONSTANT,
)

from ncmetro import fock, ladder
from ncmetro.expressions import format_polynomial
from helpers import (
    dagger,
    exact_commutator,
    exact_tower,
    naive_commutator,
    naive_product,
    random_hermitian_polynomial,
    random_polynomial,
    tower_pool_pairs,
)

X = position_op()
P = momentum_op()
X2 = normal_order_product(X, X)
SQUEEZE = normal_order_product(creation_op(), creation_op()) + normal_order_product(
    annihilation_op(), annihilation_op()
)


def assert_canonical_zero(poly, tol=1e-12):
    assert poly.max_abs_coefficient() <= tol, dict(poly.terms)


def max_abs_difference(p, q):
    """Largest coefficient difference, without the chop a subtraction applies."""
    keys = set(p.terms) | set(q.terms)
    return max((abs(p.coefficient(*k) - q.coefficient(*k)) for k in keys), default=0.0)


class TestConstruction:
    def test_non_finite_coefficient_rejected(self):
        # abs(nan) > CHOP_TOLERANCE is False, so a NaN must not pass as a zero
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0)):
            with pytest.raises(ValidationError, match="not finite"):
                LadderPolynomial({(1, 0): bad, (0, 1): 1.0})
        with pytest.raises(ValidationError):
            X * math.nan
        assert LadderPolynomial({(1, 0): 1e-13, (0, 1): 1.0}).terms == {(0, 1): 1.0}


class TestNormalOrderProduct:
    def test_a_times_adag(self):
        # a * ad = ad a + 1
        result = normal_order_product(annihilation_op(), creation_op())
        assert result == LadderPolynomial({(1, 1): 1.0, (0, 0): 1.0})

    def test_x_squared_expansion(self):
        # (ad^2 + 2 ad a + a^2)/2 + 1/2, independently from the word oracle
        expected = LadderPolynomial({(2, 0): 0.5, (1, 1): 1.0, (0, 2): 0.5, (0, 0): 0.5})
        assert X2.allclose(expected, 1e-12)
        assert X2.allclose(naive_product(X, X), 1e-15)

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = random_hermitian_polynomial(rng)
            assert normal_order_product(identity_op(), p) == p
            assert normal_order_product(p, identity_op()) == p

    def test_matches_naive_oracle_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_hermitian_polynomial(rng, max_degree=3)
            b = random_hermitian_polynomial(rng, max_degree=3)
            assert normal_order_product(a, b).allclose(naive_product(a, b), 1e-13)

    def test_degree_overflow(self):
        with pytest.raises(DegreeOverflowError):
            normal_order_product(ladder_term(40, 0), ladder_term(30, 0))

    def test_canonical_keys(self):
        rng = np.random.default_rng(3)
        prod = normal_order_product(
            random_hermitian_polynomial(rng), random_hermitian_polynomial(rng)
        )
        assert all(m >= 0 and n >= 0 for m, n in prod.terms)
        assert all(abs(c) > 0 for c in prod.terms.values())


class TestCommutator:
    def test_x_p_is_i_identity(self):
        result = commutator(X, P)
        assert set(result.terms) == {(0, 0)}
        assert abs(result.constant_term() - 1j) < 1e-12

    def test_x2_p_is_2ix(self):
        assert commutator(X2, P).allclose(2j * X, 1e-12)

    def test_squeeze_tower_entry(self):
        # [X^2 - P^2, 2iX] = -4P; ad^2 + a^2 equals X^2 - P^2
        p2 = normal_order_product(P, P)
        assert SQUEEZE.allclose(X2 - p2, 1e-12)
        lhs = commutator(SQUEEZE, 2j * X)
        assert lhs.allclose(-4.0 * P, 1e-12)
        assert lhs.allclose(naive_commutator(SQUEEZE, 2j * X), 1e-13)

    def test_antisymmetry_and_jacobi_on_random_set(self):
        rng = np.random.default_rng(2024)
        polys = [random_hermitian_polynomial(rng) for _ in range(30)]
        for i in range(0, 30, 3):
            a, b, c = polys[i], polys[i + 1], polys[i + 2]
            assert_canonical_zero(commutator(a, b) + commutator(b, a), 0.0)
            jacobi = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert_canonical_zero(jacobi, 1e-12)


class TestOnePassCommutator:
    def test_matches_product_paths_on_generic_coefficients(self):
        rng = np.random.default_rng(8128)
        for _ in range(12):
            a = random_polynomial(rng, int(rng.integers(1, 9)), density=0.3)
            b = random_polynomial(rng, int(rng.integers(1, 9)), density=0.3)
            result = commutator(a, b)
            for reference in (
                naive_commutator(a, b),
                normal_order_product(a, b) - normal_order_product(b, a),
            ):
                scale = max(1.0, reference.max_abs_coefficient())
                assert max_abs_difference(result, reference) <= 1e-12 * scale

    def test_exact_antisymmetry_without_negative_zeros(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = random_polynomial(rng, 5), random_polynomial(rng, 5)
            assert commutator(a, b) == -commutator(b, a)
            for poly in (commutator(a, b), commutator(b, a)):
                parts = [x for c in poly.terms.values() for x in (c.real, c.imag)]
                assert all(math.copysign(1.0, x) > 0 for x in parts if x == 0.0)
        assert commutator(X2, X2).is_zero()
        assert commutator(X, position_op()).is_zero()

    def test_capped_tower_tracks_exact_tower(self):
        # rational analogue of X^3 + P^2 | P: g = (ad + a)^3 / 3 - (ad - a)^2 / 2,
        # h = ad - a; 32 levels, every coefficient within 1e-11 of the exact
        # one relative to the level's largest coefficient
        third, half = Fraction(1, 3), Fraction(1, 2)
        g = {(3, 0): third, (2, 1): 3 * third, (1, 2): 3 * third, (0, 3): third,
             (1, 0): 3 * third, (0, 1): 3 * third,
             (2, 0): -half, (1, 1): 2 * half, (0, 2): -half, (0, 0): half}
        h = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
        report = classify_pair(
            LadderPolynomial({k: float(c) for k, c in g.items()}),
            LadderPolynomial({k: float(c) for k, c in h.items()}),
            cap=32,
        )
        assert report.kind == KIND_CAP_REACHED and len(report.tower) == 33
        for level, (entry, exact) in enumerate(zip(report.tower, exact_tower(g, h, 32))):
            reference = LadderPolynomial({k: float(c) for k, c in exact.items()})
            scale = reference.max_abs_coefficient()
            assert max_abs_difference(entry, reference) <= 1e-11 * scale, level


class TestCommutatorFastPath:
    def test_tower_forms_no_products(self, monkeypatch):
        g = normal_order_product(X2, X) + normal_order_product(P, P)
        calls = []
        original = ladder.normal_order_product

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ladder, "normal_order_product", counting)
        report = classify_pair(g, P)
        assert report.kind == KIND_CAP_REACHED
        assert calls == []

    def test_degree_overflow_where_products_overflowed(self):
        def raises(fn, a, b):
            try:
                fn(a, b)
            except DegreeOverflowError:
                return True
            return False

        pairs = [
            (ladder_term(40, 0), ladder_term(0, 30)),
            (ladder_term(40, 0), ladder_term(30, 0)),
            (X, ladder_term(0, 63)),
            (zero_op(), ladder_term(70, 0)),
            (ladder_term(33, 0), ladder_term(33, 0)),
        ]
        # degrees 70, 70, 64, 70 and 66 straddle the limit of 64
        for a, b in pairs:
            expected = raises(normal_order_product, a, b) or raises(normal_order_product, b, a)
            assert raises(commutator, a, b) == expected
        with pytest.raises(DegreeOverflowError, match="product degree 70 exceeds limit 64"):
            commutator(ladder_term(40, 0), ladder_term(0, 30))


def _power(p, k):
    out = p
    for _ in range(k - 1):
        out = normal_order_product(out, p)
    return out


def _exact(p, scale=Fraction(1)):
    """Rational copy of a polynomial with integer coefficients, times scale."""
    return {key: Fraction(int(c.real)) * scale for key, c in p.terms.items()}


def _floats(exact):
    return LadderPolynomial({key: float(c) for key, c in exact.items()})


class TestDenseKernel:
    AD, A = creation_op(), annihilation_op()

    @pytest.mark.parametrize("pair", ["X^5 | P", "X^3+P^3 | X"])
    def test_tower_matches_exact_tower(self, pair):
        # rational analogues with non-dyadic coefficients, so that the float
        # tower rounds: (ad + a)^5 / 3 | ad - a runs the kernel over the
        # entry's terms (fewer than g's); ((ad + a)^3 + (ad - a)^3) / 3 |
        # ad + a runs it over g's terms once the entry outgrows g
        third = Fraction(1, 3)
        if pair == "X^5 | P":
            g = _exact(_power(self.AD + self.A, 5), third)
            h = _exact(self.AD - self.A)
        else:
            g = _exact(_power(self.AD + self.A, 3) + _power(self.AD - self.A, 3), third)
            h = _exact(self.AD + self.A)
        report = classify_pair(_floats(g), _floats(h))
        levels = len(report.tower) - (report.kind == KIND_CAP_REACHED)
        exact = exact_tower(g, h, levels)
        counts = [len(entry.terms) for entry in report.tower]
        if pair == "X^5 | P":
            assert report.kind == KIND_FINITE and not exact[-1]
            assert max(counts) < len(g)
        else:
            assert report.kind == KIND_CAP_REACHED
            assert min(counts) < len(g) < max(counts)
        for level, (entry, reference) in enumerate(zip(report.tower, exact)):
            reference = _floats(reference)
            scale = reference.max_abs_coefficient()
            assert max_abs_difference(entry, reference) <= 1e-12 * scale, level

    @pytest.mark.parametrize("first, second", [
        # R(20, 20, 12) = C(20, 12)^2 12! ~ 7.6e18 passes 2^53
        ((12, 20), (20, 12)),
    ])
    def test_weights_beyond_2_53_are_rounded_once(self, first, second):
        a, b = ladder_term(*first), ladder_term(*second)
        result = commutator(a, b)
        exact = exact_commutator({first: Fraction(1)}, {second: Fraction(1)})
        assert max(abs(value) for value in exact.values()) > 2**53
        assert set(result.terms) == set(exact)
        for key, value in exact.items():
            assert result.coefficient(*key) == float(value), key
        assert commutator(b, a) == -result

    def test_every_reachable_weight_difference_is_rounded_once(self):
        # the kernel takes W_k = R(n1, m2, k) - R(n2, m1, k) as the float
        # difference of two once-rounded rows.  Both are present when all four
        # exponents are at least k, and a product within the limit has
        # (n1 + m2) + (m1 + n2) <= MAX_DEGREE, so a pair of values is reachable
        # when the least n + m that gives each sums to at most the limit.
        # Every such pair above 2^53 must give the exact difference rounded
        # once; at a limit of 68, 22 pairs would round twice.
        limit, checked, twice = ladder.MAX_DEGREE, 0, []
        for k in range(1, limit // 4 + 1):
            least = {}  # R(n, m, k) -> (n + m, its float in the kernel's row)
            for n in range(k, limit - 3 * k + 1):
                for m in range(k, limit - 2 * k - n + 1):
                    value = math.comb(n, k) * math.comb(m, k) * math.factorial(k)
                    if n + m < least.get(value, (limit + 1,))[0]:
                        least[value] = n + m, ladder._weight_row(n, k)[0][m].real
            for a, (da, fa) in least.items():
                for b, (db, fb) in least.items():
                    if da + db <= limit and max(a, b) > 2**53:
                        checked += 1
                        if fa - fb != float(a - b):
                            twice.append((k, a, b))
        assert checked > 0
        assert twice == []

    def test_tower_is_the_commutator_chain(self):
        # classify_pair and commutator share the kernel: every level is
        # exactly [g, previous level], including levels whose chop dropped
        # residues below CHOP_TOLERANCE
        g = _power(X, 3) + normal_order_product(P, P)
        report = classify_pair(g, P)
        assert report.kind == KIND_CAP_REACHED
        for previous, entry in zip(report.tower, report.tower[1:]):
            assert entry == commutator(g, previous)

    @pytest.mark.parametrize("g, h", [pair for pair in tower_pool_pairs()
                                      if pair not in (("X^6", "P"), ("X^4", "P^3"))])
    def test_pool_levels_are_the_commutator_loop(self, g, h):
        # the tower keeps its levels as grids and builds their terms once, at
        # the end; each must be the commutator of the level before, to the
        # bytes of every coefficient and the order of the terms, which is
        # row-major
        g, h = parse_operator(g), parse_operator(h)
        report = ladder._classify(g, h, ladder.DEFAULT_ADJOINT_CAP)
        level = h
        for entry in report.tower[1:]:
            level = commutator(g, level)
            assert ladder._exact_key(entry) == ladder._exact_key(level)
            assert list(entry.terms) == sorted(entry.terms)
        assert ladder._exact_key(report.tower[0]) == ladder._exact_key(h)

    @pytest.mark.parametrize("g, h, degree", [("X^4", "P^3", 65), ("X^6", "P", 67)])
    def test_pool_overflows_name_the_product_degree(self, g, h, degree):
        with pytest.raises(DegreeOverflowError,
                           match=f"product degree {degree} exceeds limit 64"):
            classify_pair(parse_operator(g), parse_operator(h))

    def test_overflow_is_a_validation_error_without_warnings(self):
        # all-real against all-imaginary, and mixed against all-imaginary: the
        # error quotes the coefficient as complex arithmetic leaves it, a nan
        # in its zero part included
        b = LadderPolynomial({(1, 0): 1e300j, (0, 1): -1e300j})
        for a, value in ((LadderPolynomial({(2, 0): 1e300, (0, 2): 1e300}), "(nan+infj)"),
                         (LadderPolynomial({(2, 0): 1e300 + 1e300j, (0, 2): 1e300 - 1e300j}),
                          "(nan+nanj)")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for call in (lambda: commutator(a, b), lambda: classify_pair(a, b)):
                    with pytest.raises(ValidationError) as caught:
                        call()
                    assert str(caught.value) == f"coefficient of (0, 1) is not finite: {value}"

    def test_weight_cache_holds_rows_not_levels(self):
        # the cache keeps one row per (exponent, k), never a weight per tower
        # level: after X^6 | P has grown to the degree limit it holds no more
        # rows than g has (m1, n1, k) contractions
        g = _power(X, 6)
        ladder._weight_row.cache_clear()
        with pytest.raises(DegreeOverflowError):
            classify_pair(g, P)
        contractions = sum(max(m, n) for m, n in g.terms)
        assert 0 < ladder._weight_row.cache_info().currsize <= contractions

    @staticmethod
    def _kernel_dtypes(monkeypatch, g, h):
        """The (coefficient, grid) dtypes the kernel runs on for g's tower
        from h, classified afresh, and for the lone commutator [h, g]."""
        dtypes = set()
        contract = ladder._contract

        def recording(terms, coefficients, extent, grid):
            dtypes.add((coefficients.dtype.name, grid.dtype.name))
            return contract(terms, coefficients, extent, grid)

        with monkeypatch.context() as patch:
            patch.setattr(ladder, "_contract", recording)
            try:
                ladder._classify(g, h, ladder.DEFAULT_ADJOINT_CAP)
            except DegreeOverflowError:
                pass
            commutator(h, g)
        return dtypes

    @pytest.mark.parametrize("g, h", [(f"X^{k}", "P") for k in range(1, 7)]
                             + [("P", f"X^{k}") for k in range(1, 7)]
                             + [("X^4", "P^3"), ("0.7*ad^2 + 0.7*a^2", "P")])
    def test_axis_aligned_pairs_run_on_float_grids(self, monkeypatch, g, h):
        # every coefficient of g real or every one imaginary, and h's too: the
        # kernel runs on the nonzero parts alone
        dtypes = self._kernel_dtypes(monkeypatch, parse_operator(g), parse_operator(h))
        assert dtypes == {("float64", "float64")}

    def test_mixed_pairs_run_on_complex_grids(self, monkeypatch):
        complex_grids = {("complex128", "complex128")}
        assert self._kernel_dtypes(monkeypatch, parse_operator("X^3+P^3"), X) == complex_grids

        def aligned(p):
            values = p.terms.values()
            return all(c.imag == 0 for c in values) or all(c.real == 0 for c in values)

        rng = np.random.default_rng(2405)
        mixed = 0
        for _ in range(20):
            g = random_hermitian_polynomial(rng, int(rng.integers(1, 4)))
            h = random_hermitian_polynomial(rng, int(rng.integers(1, 4)))
            expected = {("float64", "float64")} if aligned(g) and aligned(h) else complex_grids
            mixed += expected == complex_grids
            assert self._kernel_dtypes(monkeypatch, g, h) == expected, (g, h)
        assert mixed >= 10


class TestAdjointPower:
    def test_order_zero_returns_h(self):
        assert adjoint_power(X2, P, 0) == P

    def test_shear_tower_terminates(self):
        assert adjoint_power(X2, P, 2).is_zero()

    def test_squeeze_third_power(self):
        # ad^2 applied to 2iX scales it by -4, so the third power is -8iX
        assert adjoint_power(SQUEEZE, P, 3).allclose(-4.0 * (2j * X), 1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            adjoint_power(X, P, -1)


class TestClassifyPair:
    def test_shear_pair_finite(self):
        report = classify_pair(X2, P)
        assert report.kind == KIND_FINITE
        assert report.nilpotency_index == 1
        assert len(report.tower) == 2
        assert report.tower[0] == P
        assert report.tower[1].allclose(2j * X, 1e-12)

    def test_xp_pair_finite_constant(self):
        report = classify_pair(X, P)
        assert report.kind == KIND_FINITE_CONSTANT
        assert report.nilpotency_index == 1
        assert abs(report.constant_value - 1j) < 1e-12

    def test_squeeze_pair_closed(self):
        report = classify_pair(SQUEEZE, P, cap=32)
        assert report.kind == KIND_CLOSED_INFINITE
        assert abs(report.closure_p - 4.0) < 1e-10
        assert len(report.tower) == 33

    def test_rotation_pair_hits_cap(self):
        # X^2 + P^2 closes with the wrong sign (trigonometric, p < 0)
        number_like = X2 + normal_order_product(P, P)
        report = classify_pair(number_like, X, cap=8)
        assert report.kind == KIND_CAP_REACHED
        assert report.cap == 8

    def test_tower_matches_adjoint_power(self):
        for g, h in ((X2, P), (SQUEEZE, P)):
            report = classify_pair(g, h, cap=6)
            for n, entry in enumerate(report.tower):
                assert entry == adjoint_power(g, h, n)

    def test_preconditions(self):
        # they run before the memo, so a warm one does not skip them
        classify_pair(X, P)
        classify_pair(X, P, cap=2)
        with pytest.raises(ValidationError):
            classify_pair(zero_op(), P)
        with pytest.raises(ValidationError):
            classify_pair(X, zero_op())
        with pytest.raises(ValidationError):
            classify_pair(X, P, cap=1)


def _raw(x):
    return None if x is None else struct.pack("<2d", x.real, x.imag)


def _raw_terms(poly):
    """A polynomial's terms in order, each coefficient as its bytes."""
    return [(key, _raw(c)) for key, c in poly.terms.items()]


def _bits(report):
    """Everything a report holds, each number as its bytes (so -0.0 != 0.0)."""
    return (report.kind, report.nilpotency_index, _raw(report.constant_value),
            _raw(report.closure_p), report.cap, [_raw_terms(entry) for entry in report.tower])


def _memo_pairs():
    """The presets, X^k | P, P | X^k, ad*a | X and jittered c(ad^2 + a^2) | P."""
    pairs = []
    for name in ("squeeze-inf", "shear-k1", "xp-constant"):
        preset = build_preset(name, 1, 0.0, 0.0)
        pairs.append((preset.h_g, preset.h_lambda))
    for k in range(1, 6):
        pairs += [(parse_operator(f"X^{k}"), P), (P, parse_operator(f"X^{k}"))]
    pairs.append((parse_operator("ad*a"), X))
    rng = random.Random(3)
    pairs += [((1.0 + rng.uniform(-1e-9, 1e-9)) * SQUEEZE, P) for _ in range(3)]
    return pairs


class TestClassifyMemo:
    def test_warm_reports_are_bit_identical_to_uncached(self):
        pairs = _memo_pairs()
        expected = [_bits(ladder._classify(g, h, 32)) for g, h in pairs]
        order = list(range(len(pairs)))
        random.Random(5).shuffle(order)
        for i in order + order:  # fill in shuffled order, then read warm
            assert _bits(classify_pair(*pairs[i])) == expected[i], i
        # the presets recur as X | P and X^2 | P
        distinct = {(ladder._exact_key(g), ladder._exact_key(h)) for g, h in pairs}
        assert len(ladder._reports._entries) == len(distinct) == len(pairs) - 2

    def test_signed_zero_twins_get_their_own_entries(self):
        # equal under ==, but the twin's (1, 0) real part is -0.0
        twin = LadderPolynomial({key: complex(-0.0, c.imag) for key, c in P.terms.items()})
        assert twin == P and _bits(classify_pair(SQUEEZE, P)) != _bits(classify_pair(SQUEEZE, twin))
        for h in (P, twin, P, twin):
            report = classify_pair(SQUEEZE, h)
            assert _bits(report) == _bits(ladder._classify(SQUEEZE, h, 32))
        assert len(ladder._reports._entries) == 2

    def test_term_order_is_part_of_the_key(self):
        # the kernel sums g's terms in order, so an equal g in another order
        # can round its tower differently
        g = parse_operator("X^3 + P^2")
        reordered = LadderPolynomial(dict(reversed(list(g.terms.items()))))
        assert reordered == g
        for first, second in ((g, reordered), (reordered, g)):
            ladder._reports.cache_clear()
            classify_pair(first, P, cap=8)
            assert _bits(classify_pair(second, P, cap=8)) == _bits(
                ladder._classify(second, P, 8))
        assert _bits(ladder._classify(g, P, 8)) != _bits(ladder._classify(reordered, P, 8))

    def test_oversized_report_returned_but_not_kept(self):
        memo = ladder._reports
        classify_pair(X2, P)
        g = parse_operator("X^3 + P^3")
        first = classify_pair(g, X)
        assert sum(len(entry.terms) for entry in first.tower) > memo.budget
        second = classify_pair(g, X)
        assert second is not first and _bits(second) == _bits(first)
        assert len(memo._entries) == 1 and memo.held == 4

    def test_least_recently_used_evicted_within_budget(self, monkeypatch):
        memo = ladder._reports
        monkeypatch.setattr(memo, "budget", 70)
        pairs = {"xp": (X, P), "shear": (X2, P), "p_x4": (P, parse_operator("X^4")),
                 "p_x5": (P, parse_operator("X^5")),
                 "x2_p2": (X2, normal_order_product(P, P))}
        kept = {}
        # 3 + 4 + 22 + 34 terms, xp touched, then 10 more
        for name in ("xp", "shear", "p_x4", "p_x5", "xp", "x2_p2"):
            kept[name] = classify_pair(*pairs[name])
            assert memo.held == sum(size for _, size in memo._entries.values()) <= 70
            assert classify_pair(*pairs[name]) is kept[name]  # every report fits
        # shear was the least recently used when x2_p2 came in
        held = [id(report) for report, _ in memo._entries.values()]
        assert held == [id(kept[name]) for name in ("p_x4", "p_x5", "xp", "x2_p2")]
        assert memo.held == 22 + 34 + 3 + 10

    def test_threads_keep_the_bookkeeping(self, monkeypatch):
        # more threads than cores, switching often, against a budget that
        # forces evictions: every report is bit-identical to an uncached one
        # and the terms held match the entries
        monkeypatch.setattr(ladder._reports, "budget", 100)
        pairs = _memo_pairs()
        expected = [_bits(ladder._classify(g, h, 32)) for g, h in pairs]
        failures = []

        def work(seed):
            order = list(range(len(pairs))) * 3
            random.Random(seed).shuffle(order)
            for i in order:
                if _bits(classify_pair(*pairs[i])) != expected[i]:
                    failures.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        memo = ladder._reports
        assert memo.held == sum(size for _, size in memo._entries.values()) <= 100

    def test_overflow_raises_on_every_call(self):
        g = parse_operator("X^6")
        for _ in range(3):
            with pytest.raises(DegreeOverflowError):
                classify_pair(g, P)
        assert not ladder._reports._entries

    def test_cli_scan_builds_the_tower_once(self, monkeypatch, capsys):
        calls = []
        original = ladder._classify

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ladder, "_classify", counting)
        for n in range(1, 13):
            assert main(["qfi", "--preset", "squeeze-inf", "--N", str(n), "--aux", "0.1"]) == 0
        assert len(calls) == 1
        assert len(capsys.readouterr().out.splitlines()) == 24


class TestHermiticity:
    def test_spec_cases(self):
        assert is_hermitian(X)
        assert not is_hermitian(1j * X)
        assert is_hermitian(SQUEEZE)

    def test_random_hermitian_constructions(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_hermitian_polynomial(rng)
            assert is_hermitian(p)
            assert not p.is_zero() and not is_hermitian(p * (1 + 1j))


@st.composite
def small_polynomials(draw):
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        m = draw(st.integers(0, 3))
        n = draw(st.integers(0, 3))
        re = draw(st.floats(-2, 2, allow_nan=False))
        im = draw(st.floats(-2, 2, allow_nan=False))
        terms[(m, n)] = complex(re, im)
    return LadderPolynomial(terms)


@settings(max_examples=60, deadline=None)
@given(small_polynomials(), small_polynomials())
def test_commutator_antisymmetry_property(a, b):
    lhs = commutator(a, b)
    rhs = -commutator(b, a)
    assert lhs == rhs  # exact: same float subtractions in reverse order


@settings(max_examples=60, deadline=None)
@given(small_polynomials(), small_polynomials())
def test_dagger_reverses_products(a, b):
    lhs = dagger(normal_order_product(a, b))
    rhs = normal_order_product(dagger(b), dagger(a))
    scale = max(1.0, lhs.max_abs_coefficient(), rhs.max_abs_coefficient())
    assert (lhs - rhs).max_abs_coefficient() <= 1e-10 * scale


@st.composite
def hermitian_polynomials(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_hermitian_polynomial(rng, draw(st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(hermitian_polynomials(), hermitian_polynomials(), st.integers(2, 12))
def test_tower_levels_are_the_commutator_chain(g, h, cap):
    # the tower and commutator step through one kernel path, so each level
    # is the chain of commutators bit for bit (g has degree <= 4, so each
    # level adds at most 2 and none nears the limit)
    report = ladder._classify(g, h, cap)
    level = h
    for entry in report.tower[1:]:
        level = commutator(g, level)
        assert _raw_terms(entry) == _raw_terms(level)
    if report.kind in (KIND_FINITE, KIND_FINITE_CONSTANT):
        assert commutator(g, level).is_zero()


# -- the per-polynomial memo and the arithmetic constructor ---------------------

_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]),
                   st.floats(-4, 4, allow_nan=False, allow_subnormal=False))


@st.composite
def polynomials_of_every_kind(draw):
    """Hermitian, general, gauge-real (c i^(n-m) real) or complex terms."""
    raw = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               st.tuples(_PARTS, _PARTS), min_size=1, max_size=6))
    kind = draw(st.sampled_from(["hermitian", "general", "gauge-real", "complex"]))
    if kind == "gauge-real":
        terms = {(m, n): re * fock._I_POWERS[(m - n) % 4] for (m, n), (re, _) in raw.items()}
    else:
        terms = {key: complex(re, im) for key, (re, im) in raw.items()}
    p = LadderPolynomial(terms)
    return p + dagger(p) if kind == "hermitian" else p


def _fresh_answers(p):
    """The memoised values, computed afresh on a new polynomial of p's terms."""
    twin = LadderPolynomial._canonical(dict(p.terms))
    return [ladder._is_hermitian(twin), ladder._fresh_exact_key(twin),
            repr(fock._evolver_key(twin))]


_ASKS = (ladder.is_hermitian, ladder._exact_key,
         lambda p: repr(p._memoised(fock._evolver_key)))


@settings(max_examples=150, deadline=None)
@given(polynomials_of_every_kind(), st.permutations(range(3)))
def test_memoised_values_equal_fresh_computations(p, order):
    fresh = _fresh_answers(p)
    for _ in range(2):
        for i in order:
            assert _ASKS[i](p) == fresh[i]
    # a tolerance other than the default is never answered from the memo
    assert is_hermitian(p, 0.0) == ladder._is_hermitian(p, 0.0)
    assert is_hermitian(p, 10.0) == ladder._is_hermitian(p, 10.0)


def test_gauge_real_polynomials_share_the_real_key():
    # P is X in the gauge: its evolver key is X's terms, flagged
    x_key, x_gauge = X._memoised(fock._evolver_key)
    p_key, p_gauge = P._memoised(fock._evolver_key)
    assert p_key == x_key and p_gauge and not x_gauge


def test_every_constructor_starts_with_an_empty_memo():
    g, h = parse_operator("ad^2 + a^2"), parse_operator("X^2 + 0.5*P")
    built = [LadderPolynomial(), LadderPolynomial({(1, 0): 1.0}), g, h, g + h, g - h, -g,
             2.0 * g, g * 2.0, normal_order_product(g, h), commutator(g, h),
             adjoint_power(g, h, 2), LadderPolynomial._canonical({(0, 0): 1j})]
    # the levels above h of a tower of copies (classify_pair keys g and h)
    g_copy, h_copy = LadderPolynomial(dict(g.terms)), LadderPolynomial(dict(h.terms))
    built += classify_pair(g_copy, h_copy).tower[1:]
    for poly in built:
        assert poly._memo is None


def _summed(a, b, subtract):
    """a + b or a - b as the unchecked dict that the constructor canonicalizes."""
    out = dict(a.terms)
    for key, c in b.terms.items():
        out[key] = out.get(key, 0j) - c if subtract else out.get(key, 0j) + c
    return out


def _arithmetic_cases(a, b, factor):
    """(result, the full constructor's result from the same dict) per operation."""
    return [
        (a + b, LadderPolynomial(_summed(a, b, False))),
        (a - b, LadderPolynomial(_summed(a, b, True))),
        (-a, LadderPolynomial({k: -c for k, c in a.terms.items()})),
        (a * factor, LadderPolynomial({k: c * factor for k, c in a.terms.items()})),
        (factor * a, LadderPolynomial({k: factor * c for k, c in a.terms.items()})),
    ]


class TestArithmeticConstructor:
    SIGNED = LadderPolynomial({(1, 0): complex(1.0, -0.0), (0, 1): complex(-0.0, 2.0),
                               (2, 2): complex(3.0, -0.0), (0, 0): complex(-0.0, -1.5)})
    CANCELLING = LadderPolynomial({(1, 0): complex(-1.0, 0.0), (0, 1): complex(0.0, -2.0),
                                   (3, 1): 0.25 - 0.5j})

    @pytest.mark.parametrize("factor", [2.0, -0.0, 0.5, 1j, -3 + 0.25j, 7,
                                        np.float64(0.5), np.float64(-2.0),
                                        np.complex128(1.5 - 2j)])
    def test_matches_the_full_constructor_bit_for_bit(self, factor):
        for a, b in ((self.SIGNED, self.CANCELLING), (self.CANCELLING, self.SIGNED),
                     (self.SIGNED, self.SIGNED), (SQUEEZE, X2)):
            for result, expected in _arithmetic_cases(a, b, factor):
                assert _raw_terms(result) == _raw_terms(expected)
                assert all(type(c) is complex for c in result.terms.values())
                assert all(type(m) is int and type(n) is int for m, n in result.terms)
                assert format_polynomial(result) == format_polynomial(expected)

    def test_a_coefficient_at_the_chop_is_dropped_as_before(self):
        at_chop = LadderPolynomial({(1, 1): 2 * CHOP_TOLERANCE, (0, 2): 1.0})
        for factor in (0.5, np.float64(0.5)):
            for result, expected in _arithmetic_cases(at_chop, at_chop, factor)[3:]:
                assert _raw_terms(result) == _raw_terms(expected) == [((0, 2), _raw(0.5 + 0j))]
        three, two = (LadderPolynomial({(1, 1): k * CHOP_TOLERANCE}) for k in (3, 2))
        assert _raw_terms(three - two) == _raw_terms(LadderPolynomial(_summed(three, two, True)))

    def test_overflow_raises_the_constructors_message(self):
        big = LadderPolynomial({(0, 0): 1.0, (1, 0): 1e308 + 1e308j})
        cases = [
            (lambda: big + big, _summed(big, big, False)),
            (lambda: big - (-big), _summed(big, -big, True)),
            (lambda: big * 10.0, {k: c * 10.0 for k, c in big.terms.items()}),
            (lambda: 10.0 * big, {k: 10.0 * c for k, c in big.terms.items()}),
            (lambda: big * 1e300j, {k: c * 1e300j for k, c in big.terms.items()}),
        ]
        for operate, raw in cases:
            with pytest.raises(ValidationError) as lean:
                operate()
            with pytest.raises(ValidationError) as full:
                LadderPolynomial(raw)
            assert str(lean.value) == str(full.value)
            assert "coefficient of (1, 0) is not finite" in str(lean.value)
