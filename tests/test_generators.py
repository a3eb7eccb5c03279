"""Local generators, the conjugation oracle, peak index, and the QCRB."""

import math

import numpy as np
import pytest

from ncmetro import (
    EncodingProtocol,
    ProbeDescriptor,
    TruncationInstabilityError,
    UnclassifiedPairError,
    ValidationError,
    certified_block,
    classify_pair,
    constant_commutator_protocol,
    generator_by_conjugation,
    identity_op,
    k_peak,
    leading_qfi_coefficient,
    local_generator,
    matrix_of,
    momentum_op,
    normal_order_product,
    position_op,
    qcrb_rmse,
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
        protocol = constant_commutator_protocol(3, 0.1, 0.2)
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


class TestKPeak:
    @pytest.mark.parametrize("n, expected", [(6, (5, 6)), (2, (1, 2)), (1, (0, 1))])
    def test_spec_values(self, n, expected):
        assert k_peak(n, n + 4) == expected

    def test_tie_is_exact_for_all_desk_n(self):
        for n in range(2, 31):
            assert k_peak(n, n + 1) == (n - 1, n)

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
