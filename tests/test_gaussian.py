"""Symplectic engine: evolution, protocol runs, QFI/CFI, oracle agreement."""

import math
import random

import numpy as np
import pytest

from ncmetro import (
    DegenerateMeasurementError,
    GaussianState,
    HomodyneSpec,
    InternalConsistencyError,
    LadderPolynomial,
    NotGaussianError,
    ProbeDescriptor,
    ValidationError,
    cfi_quadrature,
    evolve,
    gaussian_probe,
    homodyne_variance,
    identity_op,
    local_generator,
    matrix_of,
    momentum_op,
    normal_order_product,
    position_op,
    prepare_probe,
    qfi_linear_generator,
    quadratic_from_polynomial,
    run_protocol,
    shear_protocol,
    squeeze_protocol,
)

X = position_op()
P = momentum_op()
DISPLACE = quadratic_from_polynomial(P)
SHEAR = quadratic_from_polynomial(normal_order_product(X, X))
SQUEEZE = quadratic_from_polynomial(
    normal_order_product(X, X) - normal_order_product(P, P)
)


def fock_moments(vec):
    dim = vec.shape[0]
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    x = (a.conj().T + a) / math.sqrt(2.0)
    p = 1j * (a.conj().T - a) / math.sqrt(2.0)

    def ev(mat):
        return float(np.vdot(vec, mat @ vec).real)

    mean = np.array([ev(x), ev(p)])
    cov = np.array(
        [
            [ev(x @ x) - mean[0] ** 2, ev((x @ p + p @ x) / 2) - mean[0] * mean[1]],
            [0.0, ev(p @ p) - mean[1] ** 2],
        ]
    )
    cov[1, 0] = cov[0, 1]
    return mean, cov


class TestEvolve:
    def test_displacement_shifts_x(self):
        state = evolve(GaussianState.vacuum(), DISPLACE, 0.3)
        assert np.allclose(state.mean, [0.3, 0.0], atol=1e-14)
        assert np.allclose(state.cov, 0.5 * np.eye(2), atol=1e-14)

    def test_shear_leaves_var_x(self):
        state = evolve(GaussianState.vacuum(), SHEAR, 0.2)
        assert np.allclose(state.mean, 0.0, atol=1e-14)
        assert state.var_x == pytest.approx(0.5, abs=1e-14)
        assert abs(state.cov_xp) > 1e-3

    def test_shear_heisenberg_map_vs_fock(self):
        # P -> P - 2 s X on the matrix side
        s, dim = 0.15, 60
        vac = np.zeros(dim, complex)
        vac[0] = 1.0
        hg = matrix_of(normal_order_product(X, X), dim).matrix
        w, v = np.linalg.eigh(hg)
        psi = (v * np.exp(-1j * s * w)) @ v.conj().T @ vac
        mean, cov = fock_moments(psi)
        state = evolve(GaussianState.vacuum(), SHEAR, s)
        assert np.allclose(state.mean, mean, atol=1e-8)
        assert np.allclose(state.cov, cov, atol=1e-8)

    def test_squeeze_then_diagonal_quadrature(self):
        # N steps of strength xi: variance at 45 degrees is exp(-2 N xi)/2
        n, xi = 4, 0.1
        state = evolve(GaussianState.vacuum(), SQUEEZE, n * xi / 2.0)
        var = homodyne_variance(state, HomodyneSpec(math.pi / 4.0))
        assert var == pytest.approx(math.exp(-2 * n * xi) / 2.0, rel=1e-12)

    def test_purity_preserved_through_gate_stack(self):
        state = GaussianState.coherent(0.2 + 0.1j)
        for ham, t in ((SHEAR, 0.3), (SQUEEZE, -0.2), (DISPLACE, 1.1), (SHEAR, -0.7)):
            state = evolve(state, ham, t)
            assert abs(state.purity_defect()) < 1e-10

    def test_rotation_branch_vs_fock(self):
        # X^2 + P^2 generates rotation (positive-determinant branch); adding
        # a linear term exercises the trigonometric shift integral too
        rotor = quadratic_from_polynomial(
            normal_order_product(X, X) + normal_order_product(P, P) + X
        )
        dim, t = 60, 0.37
        probe = ProbeDescriptor.coherent(0.3 - 0.2j)
        vec = prepare_probe(probe, dim).amplitudes
        h = matrix_of(
            normal_order_product(X, X) + normal_order_product(P, P) + X, dim
        ).matrix
        w, v = np.linalg.eigh(h)
        vec = (v * np.exp(-1j * t * w)) @ v.conj().T @ vec
        mean, cov = fock_moments(vec)
        state = evolve(gaussian_probe(probe), rotor, t)
        assert np.allclose(state.mean, mean, atol=1e-9)
        assert np.allclose(state.cov, cov, atol=1e-9)


class TestStateValidation:
    def test_uncertainty_violation_rejected(self):
        with pytest.raises(ValidationError):
            GaussianState(mean=np.zeros(2), cov=np.diag([0.1, 0.1]))
        with pytest.raises(ValidationError):
            GaussianState(mean=np.zeros(2), cov=0.49 * np.eye(2))

    def test_pure_states_accepted_up_to_strong_squeezing(self):
        # pure states sit exactly on the uncertainty boundary
        GaussianState.vacuum()
        GaussianState.coherent(0.3 - 1.2j)
        for r in np.linspace(0.0, 5.0, 11):
            for phi in (0.0, 0.4, math.pi / 4, 2.0):
                state = GaussianState.squeezed_vacuum(float(r), phi)
                assert np.linalg.det(state.cov) == pytest.approx(0.25, rel=1e-6)

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValidationError):
            GaussianState(mean=np.zeros(2), cov=np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_probe_conventions_match_fock(self):
        for probe in (
            ProbeDescriptor.coherent(0.3),
            ProbeDescriptor.coherent(-0.2 + 0.4j),
            ProbeDescriptor.squeezed_vacuum(0.3, 0.0),
            ProbeDescriptor.squeezed_vacuum(0.3, 0.7),
            ProbeDescriptor.squeezed_vacuum(0.5, -1.1),
        ):
            state = gaussian_probe(probe)
            mean, cov = fock_moments(prepare_probe(probe, 80).amplitudes)
            assert np.allclose(state.mean, mean, atol=1e-9), probe
            assert np.allclose(state.cov, cov, atol=1e-9), probe


class TestRunProtocol:
    def test_squeeze_protocol_cov_eigenvalues(self):
        protocol = squeeze_protocol(4, 0.1, 0.1, ProbeDescriptor.coherent(0.3))
        state = run_protocol(protocol)
        eigvals = np.sort(np.linalg.eigvalsh(state.cov))
        assert eigvals[0] == pytest.approx(math.exp(-0.8) / 2.0, rel=1e-10)
        assert eigvals[1] == pytest.approx(math.exp(0.8) / 2.0, rel=1e-10)
        # principal axes at +-45 degrees
        assert homodyne_variance(state, HomodyneSpec(math.pi / 4)) == pytest.approx(
            eigvals[0], rel=1e-10
        )

    def test_empty_product(self):
        protocol = squeeze_protocol(0, 0.4, 0.3, ProbeDescriptor.coherent(0.2))
        state = run_protocol(protocol)
        probe = gaussian_probe(protocol.probe)
        assert np.allclose(state.mean, probe.mean)
        assert np.allclose(state.cov, probe.cov)

    def test_shear_protocol_moments_vs_fock(self):
        # auxiliary gates first: final mean is (N x, 0) with sheared covariance
        n, s, x_bar, dim = 2, 0.05, 0.3, 60
        protocol = shear_protocol(n, x_bar, s)
        state = run_protocol(protocol)
        assert np.allclose(state.mean, [n * x_bar, 0.0], atol=1e-12)

        vac = np.zeros(dim, complex)
        vac[0] = 1.0
        for poly, t in (
            (protocol.h_g, n * protocol.g_bar),
            (protocol.h_lambda, n * protocol.lambda_bar),
        ):
            h = matrix_of(poly, dim).matrix
            w, v = np.linalg.eigh(h)
            vac = (v * np.exp(-1j * t * w)) @ v.conj().T @ vac
        mean, cov = fock_moments(vac)
        assert np.allclose(state.mean, mean, atol=1e-6)
        assert np.allclose(state.cov, cov, atol=1e-6)

    def test_oracle_agreement_across_parameters(self):
        dim = 80
        for n in (1, 4):
            for x_bar in (0.1, 0.5):
                for xi in (0.02, 0.1):
                    protocol = squeeze_protocol(
                        n, x_bar, xi, ProbeDescriptor.coherent(0.3)
                    )
                    state = run_protocol(protocol)
                    vec = prepare_probe(protocol.probe, dim).amplitudes
                    for poly, t in (
                        (protocol.h_g, n * protocol.g_bar),
                        (protocol.h_lambda, n * protocol.lambda_bar),
                    ):
                        h = matrix_of(poly, dim).matrix
                        w, v = np.linalg.eigh(h)
                        vec = (v * np.exp(-1j * t * w)) @ v.conj().T @ vec
                    mean, cov = fock_moments(vec)
                    assert np.allclose(state.mean, mean, atol=1e-6)
                    assert np.allclose(state.cov, cov, atol=1e-6)

    def test_non_quadratic_generator_rejected(self):
        from ncmetro import EncodingProtocol

        cubic = normal_order_product(normal_order_product(X, X), X)
        protocol = EncodingProtocol(
            h_lambda=P, h_g=cubic, n_applications=1, lambda_bar=0.1, g_bar=0.1
        )
        with pytest.raises(NotGaussianError):
            run_protocol(protocol)


class TestQfiLinearGenerator:
    def test_squeeze_generator_on_coherent(self):
        n, xi = 5, 0.1
        gen = (-n * math.sinh(n * xi)) * X + (n * math.cosh(n * xi)) * P
        qfi = qfi_linear_generator(GaussianState.coherent(0.3), gen)
        assert qfi == pytest.approx(2 * n**2 * math.cosh(2 * n * xi), rel=1e-12)

    def test_momentum_generator_on_vacuum(self):
        assert qfi_linear_generator(GaussianState.vacuum(), 4.0 * P) == pytest.approx(
            32.0, rel=1e-12
        )

    def test_shear_generator_on_vacuum(self):
        n, s = 3, 0.1
        gen = float(n) * P - (2 * n * n * s) * X
        qfi = qfi_linear_generator(GaussianState.vacuum(), gen)
        assert qfi == pytest.approx(2 * n**2 + 8 * n**4 * s**2, rel=1e-12)

    def test_quadratic_generator_delegated(self):
        with pytest.raises(NotGaussianError):
            qfi_linear_generator(
                GaussianState.vacuum(), normal_order_product(X, X)
            )

    def test_matches_local_generator_pipeline(self):
        protocol = squeeze_protocol(3, 0.1, 0.1, ProbeDescriptor.coherent(0.3))
        gen = local_generator(protocol).generator
        qfi = qfi_linear_generator(gaussian_probe(protocol.probe), gen)
        assert qfi == pytest.approx(2 * 9 * math.cosh(0.6), rel=1e-12)


class TestHomodyne:
    def test_squeeze_final_state_at_zero_angle(self):
        n, xi = 5, 0.1
        state = run_protocol(squeeze_protocol(n, 0.1, xi, ProbeDescriptor.coherent(0.3)))
        assert homodyne_variance(state, HomodyneSpec(0.0)) == pytest.approx(
            math.cosh(2 * n * xi) / 2.0, rel=1e-12
        )

    def test_vacuum_is_isotropic(self):
        for theta in np.linspace(0, 2 * math.pi, 9):
            assert homodyne_variance(
                GaussianState.vacuum(), HomodyneSpec(theta)
            ) == pytest.approx(0.5, rel=1e-14)

    def test_full_angle_formula_on_grid(self):
        # exp(2Nxi)(1-sin2t)/4 + exp(-2Nxi)(1+sin2t)/4 on a 16-point grid
        n, xi = 6, 0.1
        state = run_protocol(squeeze_protocol(n, 0.1, xi, ProbeDescriptor.coherent(0.3)))
        for theta in np.linspace(0.0, math.pi, 16):
            expected = math.exp(2 * n * xi) * (1 - math.sin(2 * theta)) / 4.0
            expected += math.exp(-2 * n * xi) * (1 + math.sin(2 * theta)) / 4.0
            assert homodyne_variance(state, HomodyneSpec(theta)) == pytest.approx(
                expected, abs=1e-10
            )


class TestCfi:
    def test_diagonal_quadrature_cfi(self):
        n, xi = 4, 0.1
        protocol = squeeze_protocol(n, 0.1, xi, ProbeDescriptor.coherent(0.3))
        cfi = cfi_quadrature(protocol, HomodyneSpec(math.pi / 4.0))
        assert cfi == pytest.approx(n**2 * math.exp(2 * n * xi), rel=1e-12)

    def test_ratio_to_qfi(self):
        for n in (2, 6, 10):
            xi = 0.1
            protocol = squeeze_protocol(n, 0.1, xi, ProbeDescriptor.coherent(0.3))
            cfi = cfi_quadrature(protocol, HomodyneSpec(math.pi / 4.0))
            qfi = qfi_linear_generator(
                gaussian_probe(protocol.probe), local_generator(protocol).generator
            )
            assert cfi / qfi == pytest.approx(
                1.0 / (1.0 + math.exp(-4 * n * xi)), rel=1e-12
            )

    def test_uninformative_quadrature(self):
        # P-measurement carries no displacement signal and a fixed variance
        protocol = squeeze_protocol(4, 0.1, 0.1, ProbeDescriptor.coherent(0.3))
        assert cfi_quadrature(protocol, HomodyneSpec(math.pi / 2.0)) == pytest.approx(
            0.0, abs=1e-20
        )

    def test_variance_term_for_quadratic_parameter_generator(self):
        # estimating the shear strength itself: variance term is nonzero
        from ncmetro import EncodingProtocol

        protocol = EncodingProtocol(
            h_lambda=normal_order_product(X, X),
            h_g=P,
            n_applications=2,
            lambda_bar=0.05,
            g_bar=0.3,
        )
        cfi = cfi_quadrature(protocol, HomodyneSpec(0.3))
        assert cfi > 0.0

    def test_degenerate_measurement_error(self):
        protocol = squeeze_protocol(1, 0.1, 0.1)
        state = run_protocol(protocol)
        spec = HomodyneSpec(math.pi / 4.0)
        assert homodyne_variance(state, spec) > 0  # sanity: not actually degenerate
        with pytest.raises(DegenerateMeasurementError):
            # force the degenerate branch through a zero-variance fake
            from unittest import mock

            with mock.patch("ncmetro.gaussian.run_protocol") as fake:
                fake.return_value = GaussianState(
                    mean=np.zeros(2), cov=np.diag([0.0, 1e300])
                )
                cfi_quadrature(protocol, HomodyneSpec(0.0))


def random_quadratic(rng: random.Random, degree: int = 2) -> LadderPolynomial:
    """Hermitian polynomial of degree <= ``degree`` with generic (non-dyadic)
    coefficients, its terms inserted in a shuffled order."""
    terms = {}
    while not any(key != (0, 0) for key in terms):
        terms = {}
        for m in range(degree + 1):
            for n in range(m, degree + 1 - m):
                if rng.random() < 0.7:
                    c = complex(rng.uniform(-1, 1), 0.0 if m == n else rng.uniform(-1, 1))
                    terms[(m, n)], terms[(n, m)] = c, c.conjugate()
    items = list(terms.items())
    rng.shuffle(items)
    return LadderPolynomial(dict(items))


PROBES = (
    GaussianState.vacuum(),
    GaussianState.coherent(0.3 - 0.2j),
    GaussianState.squeezed_vacuum(0.4, 0.7),
)


class TestQuadratureMap:
    """quadratic_from_polynomial and qfi_linear_generator share one
    ladder-to-quadrature map; these pin it against an independent rebuild."""

    def test_rebuilds_the_polynomial(self):
        rng = random.Random(1729)
        xx, pp = normal_order_product(X, X), normal_order_product(P, P)
        xp = normal_order_product(X, P) + normal_order_product(P, X)
        for _ in range(300):
            poly = random_quadratic(rng)
            ham = quadratic_from_polynomial(poly)
            (g_xx, g_xp), (_, g_pp) = ham.g_matrix.tolist()
            d_x, d_p = ham.d_vector.tolist()
            rebuilt = 0.5 * (g_xx * xx + g_pp * pp + g_xp * xp) + d_x * X + d_p * P
            expected = poly - identity_op(poly.constant_term())
            rebuilt = rebuilt - identity_op(rebuilt.constant_term())
            assert rebuilt.allclose(expected, tol=1e-12), poly

    def test_linear_qfi_is_four_d_sigma_d(self):
        rng = random.Random(7919)
        for _ in range(100):
            gen = random_quadratic(rng, degree=1)
            d = quadratic_from_polynomial(gen).d_vector
            for probe in PROBES:
                assert qfi_linear_generator(probe, gen) == pytest.approx(
                    4.0 * float(d @ probe.cov @ d), rel=1e-12
                )

    @pytest.mark.parametrize("poly", [P + identity_op(1j), 1j * X], ids=["P+1j", "1j*X"])
    def test_non_hermitian_rejected(self, poly):
        with pytest.raises(InternalConsistencyError):
            qfi_linear_generator(GaussianState.vacuum(), poly)

    def test_non_hermitian_quadratic_form_rejected(self):
        with pytest.raises(InternalConsistencyError):
            quadratic_from_polynomial(1j * X)

    def test_imaginary_constant_rejected_by_quadratic_form(self):
        # the map checks the constant too, so this path now sees it as well
        with pytest.raises(InternalConsistencyError):
            quadratic_from_polynomial(P + identity_op(1j))

    def test_overflowing_qfi_rejected(self):
        with pytest.raises(ValidationError, match="Gaussian QFI is inf"):
            qfi_linear_generator(GaussianState.vacuum(), 1e200 * X)
