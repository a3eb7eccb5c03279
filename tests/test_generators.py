"""Local generators, the conjugation oracle, peak index, and the QCRB."""

import math
import random

import numpy as np
import pytest
from helpers import exact_k_peak

from ncmetro import (
    EncodingProtocol,
    ProbeDescriptor,
    TruncationInstabilityError,
    UnclassifiedPairError,
    ValidationError,
    certified_block,
    classify_pair,
    gaussian_probe,
    generator_by_conjugation,
    identity_op,
    k_peak,
    ladder,
    parse_operator,
    leading_qfi_coefficient,
    local_generator,
    matrix_of,
    momentum_op,
    normal_order_product,
    position_op,
    protocols,
    qcrb_rmse,
    qfi_linear_generator,
    shear_protocol,
    squeeze_protocol,
)

X = position_op()
P = momentum_op()


class TestProtocols:
    def test_squeeze_preset_absorbs_gate_prefactor(self):
        protocol = squeeze_protocol(3, 0.1, 0.2)
        assert protocol.g_bar == 0.1  # xi_bar / 2

    def test_hermiticity_enforced(self):
        with pytest.raises(ValidationError):
            EncodingProtocol(
                h_lambda=1j * X, h_g=X, n_applications=1, lambda_bar=0.1, g_bar=0.1
            )

    def test_fock_probe_normalization(self):
        with pytest.raises(ValidationError):
            ProbeDescriptor.fock_vector([1.0, 1.0])
        ProbeDescriptor.fock_vector([1.0 / math.sqrt(2)] * 2)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf, -math.inf])
    def test_fock_probe_non_finite_amplitude_rejected(self, bad):
        # abs(norm - 1) > tol is False for a nan norm, so nan amplitudes once
        # reached the Fock oracle
        with pytest.raises(ValidationError, match=r"amplitudes\[0\]"):
            ProbeDescriptor.fock_vector([bad, 1.0])

    def test_n_zero_allowed_negative_rejected(self):
        shear_protocol(0, 0.1, 0.1)
        with pytest.raises(ValidationError):
            shear_protocol(-1, 0.1, 0.1)


class TestPresetTable:
    README_PAIRS = {
        "shear-k1": ("X^2", "P"),
        "xp-constant": ("X", "P"),
        "squeeze-inf": ("ad^2 + a^2", "P"),
    }

    @pytest.mark.parametrize("name", sorted(README_PAIRS))
    def test_pairs_are_the_readme_expressions_bit_for_bit(self, name):
        # so --preset and --g/--h share one classification memo entry
        h_lambda, h_g, _ = protocols.PRESETS[name]
        g_text, h_text = self.README_PAIRS[name]
        assert ladder._exact_key(h_g) == ladder._exact_key(parse_operator(g_text))
        assert ladder._exact_key(h_lambda) == ladder._exact_key(parse_operator(h_text))

    @pytest.mark.parametrize("name", sorted(README_PAIRS))
    def test_build_preset_forms_no_products(self, name, monkeypatch):
        calls = []
        original = ladder.normal_order_product

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ladder, "normal_order_product", counting)
        monkeypatch.setattr(protocols, "normal_order_product", counting)
        first = protocols.build_preset(name, 3, 0.1, 0.2)
        second = protocols.build_preset(name, 5, 0.3, 0.4)
        assert calls == []
        assert first.h_g is second.h_g and first.h_lambda is second.h_lambda
        h_lambda, h_g, _ = protocols.PRESETS[name]
        assert first.h_g is h_g and first.h_lambda is h_lambda

    def test_squeeze_g_bar_is_bitwise_half_xi(self):
        rng = random.Random(11)
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3e-320,
                  1.7976931348623157e308, -1.7976931348623157e308]
        values += [rng.uniform(-10.0, 10.0) for _ in range(200)]
        values += [math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1023))
                   for _ in range(200)]
        for xi in values:
            # hex() keeps the sign of a zero
            assert squeeze_protocol(1, 0.1, xi).g_bar.hex() == (xi / 2).hex(), xi


class TestLocalGenerator:
    def test_shear_printed_form(self):
        # N P - 2 N^2 s X, exact at the canonical 1e-12 tolerance
        for n, s in ((1, 0.125), (3, 0.125), (4, -0.25)):
            protocol = shear_protocol(n, 0.1, s)
            result = local_generator(protocol)
            expected = float(n) * P - (2.0 * n * n * s) * X
            assert result.generator.allclose(expected, 1e-12)
            assert not result.closed_form
            assert result.truncation_used == 2

    def test_squeeze_printed_form(self):
        # -N sinh(N xi) X + N cosh(N xi) P
        for n, xi in ((1, 0.25), (3, 0.25), (4, 0.1)):
            protocol = squeeze_protocol(n, 0.1, xi)
            result = local_generator(protocol)
            expected = (-n * math.sinh(n * xi)) * X + (n * math.cosh(n * xi)) * P
            assert result.generator.allclose(expected, 1e-12)
            assert result.closed_form

    def test_zero_auxiliary_strength(self):
        protocol = shear_protocol(5, 0.1, 0.0)
        assert local_generator(protocol).generator.allclose(5.0 * P, 1e-12)

    def test_constant_commutator_generator(self):
        # N P + N (i N g)(i) = N P - N^2 g * identity
        protocol = protocols.build_preset("xp-constant", 3, 0.1, 0.2)
        expected = 3.0 * P - (9 * 0.2) * identity_op()
        assert local_generator(protocol).generator.allclose(expected, 1e-12)

    def test_unclassified_pair_rejected(self):
        number_like = normal_order_product(X, X) + normal_order_product(P, P)
        protocol = EncodingProtocol(
            h_lambda=X, h_g=number_like, n_applications=2, lambda_bar=0.1, g_bar=0.1
        )
        with pytest.raises(UnclassifiedPairError):
            local_generator(protocol)

    def test_series_converges_to_closed_form(self):
        # partial sums of the tower approach the sinh/cosh closed form
        protocol = squeeze_protocol(3, 0.1, 0.1)
        report = classify_pair(protocol.h_g, protocol.h_lambda)
        closed = local_generator(protocol).generator
        n, g = protocol.n_applications, protocol.g_bar
        dim = 40
        target = matrix_of(closed, dim).matrix
        block = dim // 2
        errors = []
        for order in (2, 6, 12, 20):
            acc = None
            for j in range(order + 1):
                term = (complex(0, n * g) ** j / math.factorial(j)) * report.tower[j]
                acc = term if acc is None else acc + term
            partial = matrix_of(float(n) * acc, dim).matrix
            errors.append(
                np.abs(partial[:block, :block] - target[:block, :block]).max()
            )
        assert errors[-1] < 1e-8
        assert errors[0] > errors[-1]

    def test_closed_form_overflow_names_its_argument(self):
        # sinh/cosh of N * g_bar * sqrt(p) = 100000 * 0.05 * 2 overflows a float
        with pytest.raises(ValidationError, match=r"N\*g_bar\*sqrt\(p\) = 10000\.0"):
            local_generator(squeeze_protocol(100000, 0.1, 0.1))


    @pytest.mark.parametrize(
        "protocol, named",
        [
            # complex(0, N g_bar) ** k once raised a bare OverflowError
            (shear_protocol(10, 0.1, 1e308), "N = 10, g_bar = 1e+308"),
            # N (i N g_bar) once overflowed inside the polynomial, naming a term
            (shear_protocol(8, 0.1, 1e307), "N = 8, g_bar = 1e+307"),
            # sinh(700) is finite, N sinh(700) is not
            (squeeze_protocol(1000000, 0.1, 0.0007), "N = 1000000, g_bar = 0.00035, p = 4.0"),
        ],
    )
    def test_overflowing_scalar_names_n_and_g_bar(self, protocol, named):
        with pytest.raises(ValidationError, match="generator overflows") as info:
            local_generator(protocol)
        assert named in str(info.value)


class TestClosedFormSplit:
    """A closed tower's generator is N [h0 + e^x h+ + e^-x h-]: under
    ad^2 + a^2, [g, X + P] = 2i (X + P), so X + P only contracts and its
    generator is N e^(-2 N g_bar) (X + P).  Once N [h + sinh(x)/sqrt(p) i t1
    + (1 - cosh(x))/p t2] took it as a difference of terms of size e^x: at
    aux 10 the coefficient of ad read -2.98e-8 for +e^(-20)/sqrt(2), and the
    Gaussian QFI 7.1e-15 for 4 e^(-40)."""

    PAIR = (parse_operator("ad^2 + a^2"), parse_operator("X + P"))

    @pytest.mark.parametrize("n, aux", [(1, 10.0), (1, 5.0), (2, 2.5), (3, 0.5)])
    def test_contracting_generator_is_exact(self, n, aux):
        g, h = self.PAIR
        protocol = EncodingProtocol(h_lambda=h, h_g=g, n_applications=n, lambda_bar=0.1, g_bar=aux)
        result = local_generator(protocol)
        scale = n * math.exp(-2.0 * n * aux)
        assert result.closed_form and set(result.generator.terms) == set(h.terms)
        for key, coeff in h.terms.items():
            assert result.generator.coefficient(*key) == pytest.approx(
                scale * coeff, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n, aux", [(1, 10.0), (1, 8.0), (2, 2.5)])
    def test_contracting_gaussian_qfi_is_exact(self, n, aux):
        g, h = self.PAIR
        protocol = EncodingProtocol(h_lambda=h, h_g=g, n_applications=n, lambda_bar=0.1, g_bar=aux)
        qfi = qfi_linear_generator(gaussian_probe(protocol.probe),
                                   local_generator(protocol).generator)
        # 4 Var[N e^(-2 N g) (X + P)] on the vacuum
        assert qfi == pytest.approx(4.0 * n * n * math.exp(-4.0 * n * aux), rel=1e-12, abs=0.0)

    def test_contracting_pair_never_overflows(self):
        # e^x multiplies h+ = 0, so no N overflows the generator
        g, h = self.PAIR
        protocol = EncodingProtocol(h_lambda=h, h_g=g, n_applications=1000, lambda_bar=0.1,
                                    g_bar=1.0)
        assert local_generator(protocol).generator.is_zero()  # e^-2000 underflows

    def test_small_expanding_part_is_kept(self):
        # h = X + P + 5e-13 (X - P): h+ = 5e-13 (X - P) has coefficients below the
        # absolute chop, yet e^20 makes it the generator's largest term; the input
        # holds 5e-13 to about 3 digits
        g = self.PAIR[0]
        h = parse_operator("1.0000000000005*X + 0.9999999999995*P")
        protocol = EncodingProtocol(h_lambda=h, h_g=g, n_applications=1, lambda_bar=0.1, g_bar=10.0)
        gen = local_generator(protocol).generator
        x, p = parse_operator("X"), parse_operator("P")
        expected = 5e-13 * math.exp(20.0) * (x - p) + math.exp(-20.0) * (x + p)
        assert set(gen.terms) == set(expected.terms)
        for key, coeff in expected.terms.items():
            assert gen.coefficient(*key) == pytest.approx(coeff, rel=1e-3, abs=0.0)
        qfi = qfi_linear_generator(gaussian_probe(protocol.probe), gen)
        assert qfi == pytest.approx(4.0 * (5e-13 * math.exp(20.0)) ** 2, rel=1e-3, abs=0.0)


class TestConjugationOracle:
    def test_matches_series_where_stable(self):
        cases = [
            (shear_protocol(2, 0.1, 0.05), 40),   # N g = 0.1
            (shear_protocol(2, 0.1, 0.1), 40),    # spec example: 2P - 0.8X
            (squeeze_protocol(1, 0.1, 0.1), 80),
            (squeeze_protocol(3, 0.1, 0.1), 60),  # sinh(0.3)/cosh(0.3) case
        ]
        for protocol, dim in cases:
            conjugated = generator_by_conjugation(protocol, dim)
            series = matrix_of(local_generator(protocol).generator, dim).matrix
            block = certified_block(dim)
            err = np.abs(
                conjugated.matrix[:block, :block] - series[:block, :block]
            ).max()
            assert err < 1e-8, (protocol.g_bar, dim, err)

    def test_spec_shear_example_values(self):
        # N=2, s=0.1: conjugated generator is 2P - 0.8X on the certified block
        protocol = shear_protocol(2, 0.3, 0.1)
        conjugated = generator_by_conjugation(protocol, 40)
        expected = matrix_of(2.0 * P - 0.8 * X, 40).matrix
        block = certified_block(40)
        assert np.abs(conjugated.matrix[:block, :block] - expected[:block, :block]).max() < 1e-8

    def test_zero_auxiliary_is_n_h_lambda(self):
        protocol = shear_protocol(3, 0.1, 0.0)
        conjugated = generator_by_conjugation(protocol, 24)
        expected = matrix_of(3.0 * P, 24).matrix
        assert np.abs(conjugated.matrix - expected).max() < 1e-12

    def test_squeeze_closed_form_coefficients(self):
        # N=3, xi=0.1: sinh(0.3), cosh(0.3) appear as quadrature coefficients
        protocol = squeeze_protocol(3, 0.1, 0.1)
        conjugated = generator_by_conjugation(protocol, 60)
        expected = matrix_of(
            -3.0 * math.sinh(0.3) * X + 3.0 * math.cosh(0.3) * P, 60
        ).matrix
        block = certified_block(60)
        assert np.abs(conjugated.matrix[:block, :block] - expected[:block, :block]).max() < 1e-8

    def test_instability_detected_at_strong_coupling(self):
        # exponential level spread outruns any fixed block fraction
        with pytest.raises(TruncationInstabilityError):
            generator_by_conjugation(shear_protocol(4, 0.1, 0.2), 40)
        with pytest.raises(TruncationInstabilityError):
            generator_by_conjugation(squeeze_protocol(4, 0.1, 0.4), 80)

    def test_dim_validation(self):
        with pytest.raises(ValidationError):
            generator_by_conjugation(shear_protocol(1, 0.1, 0.1), 4)


class TestLeadingCoefficient:
    def test_heisenberg_case(self):
        # K = 0: 4 N^2 Var[h_lambda]
        assert leading_qfi_coefficient(0, 7, 0.3, 0.5) == pytest.approx(98.0)

    def test_plug_in_arithmetic(self):
        assert leading_qfi_coefficient(1, 2, 1.0, 0.5) == 32.0

    def test_zero_variance(self):
        assert leading_qfi_coefficient(1, 5, 0.7, 0.0) == 0.0

    def test_overflow_falls_back_to_logs(self):
        value = leading_qfi_coefficient(120, 30, 1.0, 1.0)
        expected = math.exp(
            2 * 121 * math.log(30) - 2 * math.lgamma(121)
        ) * 4.0
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k, n, g_bar, named", [
        (200, 1000, 0.1, "(K = 200, N = 1000, g_bar = 0.1)"),  # past the log fallback
        (1, 10, 1e300, "(K = 1, N = 10, g_bar = 1e+300)"),  # g_bar^(2K)
        (1, 10**40, 1e80, f"(K = 1, N = {10**40}, g_bar = 1e+80)"),  # the product
    ])
    def test_overflow_names_its_inputs(self, k, n, g_bar, named):
        # once a bare OverflowError ("math range error") or an inf
        with pytest.raises(ValidationError, match="is not finite") as info:
            leading_qfi_coefficient(k, n, g_bar, 1.0)
        assert named in str(info.value)


class TestKPeak:
    @pytest.mark.parametrize("n, expected", [(6, (5, 6)), (2, (1, 2)), (1, (0, 1))])
    def test_spec_values(self, n, expected):
        assert k_peak(n, n + 4) == expected

    def test_tie_is_exact_for_all_desk_n(self):
        for n in range(2, 31):
            assert k_peak(n, n + 1) == (n - 1, n)

    def test_matches_the_exact_argmax(self):
        for n in range(1, 41):
            for k_max in range(n + 1, n + 9):
                assert k_peak(n, k_max) == exact_k_peak(n, k_max), (n, k_max)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            k_peak(6, 6)
        with pytest.raises(ValidationError):
            k_peak(0, 5)


class TestQcrb:
    def test_simple_value(self):
        assert qcrb_rmse(4.0, 1) == 0.5

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            qcrb_rmse(0.0, 1)
        with pytest.raises(ValidationError):
            qcrb_rmse(1.0, 0)

    @pytest.mark.parametrize("qfi", [math.nan, math.inf])
    def test_non_finite_qfi_rejected(self, qfi):
        # nan once came back as nan and inf as a zero error bound
        with pytest.raises(ValidationError, match="QFI must be finite"):
            qcrb_rmse(qfi, 1)

    def test_exponential_decay_of_squeeze_protocol(self):
        # 1/sqrt(2 N^2 cosh(2 N xi)) ~ N^-1 e^-(N xi) for N xi large
        xi = 0.5
        for n in (6, 9, 12):
            rmse = qcrb_rmse(2 * n**2 * math.cosh(2 * n * xi), 1)
            assert rmse * n * math.exp(n * xi) == pytest.approx(1.0, rel=0.02)

    def test_shear_rmse_scales_as_inverse_square(self):
        xs = []
        for n in (8, 16, 32, 64):
            qfi = 2.0 * n**2 + 8.0 * n**4 * 0.2**2
            xs.append((math.log(n), math.log(qcrb_rmse(qfi, 1))))
        slope = (xs[-1][1] - xs[0][1]) / (xs[-1][0] - xs[0][0])
        assert slope == pytest.approx(-2.0, abs=0.03)
