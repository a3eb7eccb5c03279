"""Symplectic engine: evolution, protocol runs, QFI/CFI, oracle agreement."""

import math
import random
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncmetro import (
    DegenerateMeasurementError,
    EncodingProtocol,
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
    run_protocol,
    shear_protocol,
    squeeze_protocol,
)
from ncmetro import gaussian
from ncmetro.experiments import fig3_scan
from ncmetro.gaussian import _dot2
from ncmetro.protocols import build_preset

from helpers import (
    numpy_cfi,
    numpy_quadratic,
    numpy_evolve,
    numpy_probe,
    numpy_run_protocol,
    numpy_symplectic_and_integral,
)

X = position_op()
P = momentum_op()
DISPLACE = P
SHEAR = normal_order_product(X, X)
SQUEEZE = normal_order_product(X, X) - normal_order_product(P, P)
VACUUM = gaussian_probe(ProbeDescriptor.vacuum())


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
        state = evolve(VACUUM, DISPLACE, 0.3)
        assert np.allclose(state.mean, [0.3, 0.0], atol=1e-14)
        assert np.allclose(state.cov, 0.5 * np.eye(2), atol=1e-14)

    def test_shear_leaves_var_x(self):
        state = evolve(VACUUM, SHEAR, 0.2)
        assert np.allclose(state.mean, 0.0, atol=1e-14)
        assert state.cov[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert abs(state.cov[0, 1]) > 1e-3

    def test_shear_heisenberg_map_vs_fock(self):
        # P -> P - 2 s X on the matrix side
        s, dim = 0.15, 60
        vac = np.zeros(dim, complex)
        vac[0] = 1.0
        hg = matrix_of(normal_order_product(X, X), dim).matrix
        w, v = np.linalg.eigh(hg)
        psi = (v * np.exp(-1j * s * w)) @ v.conj().T @ vac
        mean, cov = fock_moments(psi)
        state = evolve(VACUUM, SHEAR, s)
        assert np.allclose(state.mean, mean, atol=1e-8)
        assert np.allclose(state.cov, cov, atol=1e-8)

    def test_squeeze_then_diagonal_quadrature(self):
        # N steps of strength xi: variance at 45 degrees is exp(-2 N xi)/2
        n, xi = 4, 0.1
        state = evolve(VACUUM, SQUEEZE, n * xi / 2.0)
        var = homodyne_variance(state, HomodyneSpec(math.pi / 4.0))
        assert var == pytest.approx(math.exp(-2 * n * xi) / 2.0, rel=1e-12)

    def test_purity_preserved_through_gate_stack(self):
        state = gaussian_probe(ProbeDescriptor.coherent(0.2 + 0.1j))
        for gen, t in ((SHEAR, 0.3), (SQUEEZE, -0.2), (DISPLACE, 1.1), (SHEAR, -0.7)):
            state = evolve(state, gen, t)
            assert abs(np.linalg.det(state.cov) - 0.25) < 1e-10

    def test_rotation_branch_vs_fock(self):
        # X^2 + P^2 generates rotation (positive-determinant branch); adding
        # a linear term exercises the trigonometric shift integral too
        rotor = normal_order_product(X, X) + normal_order_product(P, P) + X
        dim, t = 60, 0.37
        probe = ProbeDescriptor.coherent(0.3 - 0.2j)
        vec = prepare_probe(probe, dim)
        h = matrix_of(rotor, dim).matrix
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

    def test_violation_beyond_rounding_rejected_at_any_trace(self):
        # det(cov) = 0.1, 60% below 1/4, with the smallest eigenvalue of
        # cov + (i/2) Omega at -1.5e-6: the slack follows the rounding of
        # that eigenvalue, about eps (a + c), not a + c itself
        with pytest.raises(ValidationError):
            GaussianState(mean=np.zeros(2), cov=np.diag([1e5, 1e-6]))

    @pytest.mark.parametrize("diagonal", [(1e10, 1e-12), (1e8, 1e-10), (1e-12, 1e10)])
    def test_violation_far_below_the_trace_rejected(self, diagonal):
        # det(cov) = 0.01, 25 times below 1/4; the closed-form smallest
        # eigenvalue of cov + (i/2) Omega (about -2.4e-11) was lost inside a
        # slack of 8 eps (a + c), so these states were accepted
        with pytest.raises(ValidationError):
            GaussianState(mean=np.zeros(2), cov=np.diag(diagonal))

    def test_fig3_grid_states_sit_within_the_rounding_of_the_boundary(self):
        # the fig3 grid xi = 0.2..3.0 by N = 1..12 for the vacuum and two
        # coherent probes: every state, and every state between the blocks,
        # passes the determinant test; the closest lies 0.68 eps (|a c| + b^2)
        # below 1/4, well inside the 8 eps slack
        eps = sys.float_info.epsilon
        for probe in (ProbeDescriptor.vacuum(), ProbeDescriptor.coherent(0.3),
                      ProbeDescriptor.coherent(0.3 + 0.2j)):
            for xi in np.linspace(0.2, 3.0, 29):
                for n in range(1, 13):
                    state = run_protocol(build_preset("squeeze-inf", n, 0.1, float(xi), probe))
                    (a, b), (_, c) = state.cov.tolist()
                    margin = (_dot2(a, c, -b, b) - 0.25) / (abs(a * c) + b * b)
                    assert margin >= -eps, (probe, xi, n)

    def test_pure_states_accepted_up_to_strong_squeezing(self):
        # pure states sit exactly on the uncertainty boundary
        gaussian_probe(ProbeDescriptor.vacuum())
        gaussian_probe(ProbeDescriptor.coherent(0.3 - 1.2j))
        for r in np.linspace(0.0, 5.0, 11):
            for phi in (0.0, 0.4, math.pi / 4, 2.0):
                state = gaussian_probe(ProbeDescriptor.squeezed_vacuum(float(r), phi))
                assert np.linalg.det(state.cov) == pytest.approx(0.25, rel=1e-6)

    def test_strongly_squeezed_pure_states_accepted(self):
        # rounding once left the rotated covariance asymmetric beyond 1e-12
        # (r >= 6), or pushed the smallest eigenvalue of cov + (i/2) Omega
        # below an absolute -1e-9 (N xi = 12)
        for r in (6.0, 7.0, 10.0, 15.0):
            for phi in (0.4, math.pi / 4, 2.0):
                state = gaussian_probe(ProbeDescriptor.squeezed_vacuum(r, phi))
                assert state.cov[0, 1] == state.cov[1, 0]
                assert np.trace(state.cov) == pytest.approx(math.cosh(2 * r), rel=1e-12)
        state = run_protocol(squeeze_protocol(12, 0.1, 1.0, ProbeDescriptor.coherent(0.3)))
        assert np.trace(state.cov) == pytest.approx(math.cosh(24.0), rel=1e-12)

    @pytest.mark.parametrize("r", [400.0, -400.0, 1e300])
    def test_overflowing_squeezing_rejected(self, r):
        # e^{2|r|} overflowing once raised a bare OverflowError in each reader
        protocol = build_preset("squeeze-inf", 2, 0.1, 0.1, ProbeDescriptor.squeezed_vacuum(r))
        for compute in (lambda: gaussian_probe(protocol.probe), lambda: run_protocol(protocol),
                        lambda: cfi_quadrature(protocol, HomodyneSpec(0.3))):
            with pytest.raises(ValidationError, match=re.escape(f"(r = {r!r})")):
                compute()

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValidationError):
            GaussianState(mean=np.zeros(2), cov=np.array([[0.5, 0.1], [0.0, 0.5]]))

    @pytest.mark.parametrize("mean, cov, named", [
        ((math.nan, 0.0), ((math.nan, 0.0), (0.0, math.nan)), "mean[0] = nan is not finite"),
        ((0.0, 0.0), ((math.inf, 0.0), (0.0, 1.0)), "cov[0, 0] = inf is not finite"),
        ((0.0, -math.inf), ((0.5, 0.0), (0.0, 0.5)), "mean[1] = -inf is not finite"),
        ((0.0, 0.0), ((0.5, math.nan), (math.nan, 0.5)), "cov[0, 1] = nan is not finite"),
    ], ids=["nan", "inf-variance", "inf-mean", "nan-covariance"])
    def test_non_finite_moments_rejected(self, mean, cov, named):
        # both once built a state: nan and inf moments passed the
        # symmetry and uncertainty checks
        with pytest.raises(ValidationError, match=re.escape(named)):
            GaussianState(mean=mean, cov=cov)

    def test_probe_conventions_match_fock(self):
        for probe in (
            ProbeDescriptor.coherent(0.3),
            ProbeDescriptor.coherent(-0.2 + 0.4j),
            ProbeDescriptor.squeezed_vacuum(0.3, 0.0),
            ProbeDescriptor.squeezed_vacuum(0.3, 0.7),
            ProbeDescriptor.squeezed_vacuum(0.5, -1.1),
        ):
            state = gaussian_probe(probe)
            mean, cov = fock_moments(prepare_probe(probe, 80))
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
                    vec = prepare_probe(protocol.probe, dim)
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

    @pytest.mark.parametrize("block", [0, 1])
    def test_run_protocol_checks_the_states_it_builds(self, monkeypatch, block):
        # moments with det(cov) = 0.2 < 1/4 after either block are refused;
        # the homodyne CFI builds no state to check (it pulls the axis back)
        protocol = squeeze_protocol(1, 0.1, 0.1)
        flow, blocks = gaussian._flow, []

        def corrupting(state, quad, t):
            blocks.append(t)
            moments = flow(state, quad, t)
            return moments[:2] + (0.5, 0.0, 0.4) if len(blocks) == block + 1 else moments

        monkeypatch.setattr(gaussian, "_flow", corrupting)
        with pytest.raises(ValidationError, match="^covariance violates the uncertainty"):
            run_protocol(protocol)
        assert len(blocks) == block + 1

    @pytest.mark.parametrize("n, xi", [(100, 15.0), (3, 1e306), (10**400, 0.1)],
                             ids=["cosh", "moments", "time"])
    def test_overflowing_evolution_rejected(self, n, xi):
        # cosh(2 N xi / 2) past about e^710 once raised a bare OverflowError
        # ("math range error"), and a time N * g_bar too large for a float
        # another
        with pytest.raises(ValidationError, match=re.escape(
                f"Gaussian evolution overflows at N = {n}: the moments are not finite")):
            run_protocol(squeeze_protocol(n, 0.1, xi))

    @pytest.mark.parametrize("t", [400.0, -1e300, 350.0])
    def test_overflowing_evolve_rejected(self, t):
        # evolve under X^2 - P^2 once raised a bare OverflowError at t = 400
        vacuum = gaussian_probe(ProbeDescriptor.vacuum())
        squeezer = normal_order_product(X, X) - normal_order_product(P, P)
        with pytest.raises(ValidationError, match=re.escape(
                f"Gaussian evolution overflows at t = {t!r}: the moments are not finite")):
            evolve(vacuum, squeezer, t)
        with pytest.raises(ValidationError, match="^t must be finite, got nan$"):
            evolve(vacuum, squeezer, math.nan)

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
        qfi = qfi_linear_generator(gaussian_probe(ProbeDescriptor.coherent(0.3)), gen)
        assert qfi == pytest.approx(2 * n**2 * math.cosh(2 * n * xi), rel=1e-12)

    def test_momentum_generator_on_vacuum(self):
        assert qfi_linear_generator(VACUUM, 4.0 * P) == pytest.approx(
            32.0, rel=1e-12
        )

    def test_shear_generator_on_vacuum(self):
        n, s = 3, 0.1
        gen = float(n) * P - (2 * n * n * s) * X
        qfi = qfi_linear_generator(VACUUM, gen)
        assert qfi == pytest.approx(2 * n**2 + 8 * n**4 * s**2, rel=1e-12)

    def test_quadratic_generator_delegated(self):
        with pytest.raises(NotGaussianError):
            qfi_linear_generator(
                VACUUM, normal_order_product(X, X)
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
                VACUUM, HomodyneSpec(theta)
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
        # a probe squeezed along pi/4, squeezed further along that axis: the
        # pulled-back variance, e^(-2 N xi) e^(-2 r) / 2 = e^(-762) / 2,
        # underflows to zero
        probe = ProbeDescriptor.squeezed_vacuum(1.0, math.pi / 4)
        protocol = squeeze_protocol(200, 0.1, 1.9, probe)
        with pytest.raises(DegenerateMeasurementError, match="variance vanished"):
            cfi_quadrature(protocol, HomodyneSpec(math.pi / 4.0))


EPS = sys.float_info.epsilon


@pytest.mark.parametrize("c, s", [(0.3, 2.0), (0.3, 1 / 3), (0.7, 1.0), (0.7, 0.5), (1.3, 1.0)])
def test_cfi_of_a_shear_written_as_a_square(c, s):
    # h_g = (c X + s P)^2 is a shear, but its quadratures round to a squeeze
    # of rate -det G = 7e-18..2e-15, whose eigen-axes lie 1e-9..1e-7 apart:
    # split along them the CFI was up to 8e-9 off; the closed form is not
    quad = c * X + s * P
    protocol = EncodingProtocol(h_lambda=P + 0.3 * X, h_g=normal_order_product(quad, quad),
                                n_applications=3, lambda_bar=0.1, g_bar=0.4,
                                probe=ProbeDescriptor.coherent(0.3))
    g_xx, g_pp, g_xp, _, _ = gaussian._quadratic(protocol.h_g)
    assert g_xp * g_xp - g_pp * g_xx > 0.0
    want = numpy_cfi(protocol, 0.7)
    assert cfi_quadrature(protocol, HomodyneSpec(0.7)) == pytest.approx(want, rel=1e-14)


def _exact_cfi(n: int, xi: float) -> Decimal:
    """N^2 e^(2 N xi) to 50 digits, for the float xi as it is."""
    with localcontext() as context:
        context.prec = 50
        return Decimal(n) ** 2 * (2 * n * Decimal(xi)).exp()


def test_cfi_on_the_fig3_grid_is_the_exact_law_fig3_prints():
    # xi = 0.2..3.0 by N = 1..12 for the vacuum and alpha = 0.3, where a
    # pushed-forward variance cancels e^(4 N xi) (390 of these 696 cells were
    # once refused): every cell is N^2 e^(2 N xi) to 1e-14, at most 8 eps
    # above the QFI, and fig3's printed CFI bit for bit where fig3 did not
    # hold it at the QFI
    spec = HomodyneSpec(math.pi / 4.0)
    for alpha in (0.0, 0.3):
        probe = ProbeDescriptor.coherent(alpha)
        for xi in map(float, np.linspace(0.2, 3.0, 29)):
            for row in fig3_scan(range(1, 13), xi_bar=xi, alpha=alpha, include_fock=False).rows:
                n, qfi = row["N"], row["qfi_gaussian"]
                cfi = cfi_quadrature(build_preset("squeeze-inf", n, 0.1, xi, probe), spec)
                exact = _exact_cfi(n, xi)
                assert abs(Decimal(cfi) - exact) <= Decimal(1e-14) * exact, (alpha, xi, n)
                assert cfi <= qfi * (1.0 + 8.0 * EPS), (alpha, xi, n)
                assert cfi == row["cfi"] or row["cfi"] == qfi, (alpha, xi, n)


def test_cfi_is_a_value_or_a_named_overflow_at_large_n():
    # 2 N xi <= 709 for N in {20, 50, 100, 150, 200} and xi = 0.1..3.9 once
    # gave 148 refusals, 4 values and, at N = 100, xi = 3.5, a silent nan;
    # each cell is now N^2 e^(2 N xi), to the rounding of the exponent N xi
    # (which e^(2 N xi) turns into up to 2 N xi eps) and a few eps
    spec = HomodyneSpec(math.pi / 4.0)
    for n in (20, 50, 100, 150, 200):
        for xi in (round(0.1 * j, 10) for j in range(1, 40)):
            if 2 * n * xi <= 709:
                protocol = squeeze_protocol(n, 0.1, xi, ProbeDescriptor.coherent(0.3))
                cfi = cfi_quadrature(protocol, spec)
                exact = _exact_cfi(n, xi)
                assert abs(Decimal(cfi) - exact) <= Decimal((2 * n * xi + 8) * EPS) * exact, (n, xi)
    assert cfi_quadrature(squeeze_protocol(100, 0.1, 3.5), spec) == pytest.approx(1.0142320547e308)
    # N^2 e^(2 N xi) beyond the largest double: an error naming N, not inf;
    # off the axis, e^(N xi) itself overflows (once a bare OverflowError)
    for n, xi, theta in ((200, 1.75, spec.theta), (100, 3.54, spec.theta),
                         (150, 2.35, spec.theta), (100, 15.0, 0.0)):
        with pytest.raises(ValidationError, match=f"homodyne CFI is inf at N = {n}:"):
            cfi_quadrature(squeeze_protocol(n, 0.1, xi), HomodyneSpec(theta))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_quadratic_memo_equals_a_fresh_derivation(seed, degree, skew):
    poly = random_quadratic(random.Random(seed), degree)
    if skew:  # a lone ad term leaves an imaginary part in d_p
        poly = poly + LadderPolynomial({(1, 0): 0.5})
    try:
        want = gaussian._checked_quadratures(LadderPolynomial(dict(poly.terms)))
    except (NotGaussianError, InternalConsistencyError) as exc:
        for _ in range(2):  # raised on every call, never kept
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                gaussian._quadratic(poly)
        assert gaussian._checked_quadratures not in (poly._memo or {})
    else:
        assert gaussian._quadratic(poly) == want
        assert gaussian._quadratic(poly) is gaussian._quadratic(poly)  # kept


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
    VACUUM,
    gaussian_probe(ProbeDescriptor.coherent(0.3 - 0.2j)),
    gaussian_probe(ProbeDescriptor.squeezed_vacuum(0.4, 0.7)),
)


class TestQuadratureMap:
    """evolve and qfi_linear_generator share one ladder-to-quadrature map;
    these pin it against an independent rebuild."""

    def test_rebuilds_the_polynomial(self):
        rng = random.Random(1729)
        xx, pp = normal_order_product(X, X), normal_order_product(P, P)
        xp = normal_order_product(X, P) + normal_order_product(P, X)
        for _ in range(300):
            poly = random_quadratic(rng)
            g_xx, g_pp, g_xp, d_x, d_p = gaussian._quadratic(poly)
            rebuilt = 0.5 * (g_xx * xx + g_pp * pp + g_xp * xp) + d_x * X + d_p * P
            expected = poly - identity_op(poly.constant_term())
            rebuilt = rebuilt - identity_op(rebuilt.constant_term())
            assert rebuilt.allclose(expected, tol=1e-12), poly

    def test_linear_qfi_is_four_d_sigma_d(self):
        rng = random.Random(7919)
        for _ in range(100):
            gen = random_quadratic(rng, degree=1)
            _, d = numpy_quadratic(gen)
            for probe in PROBES:
                assert qfi_linear_generator(probe, gen) == pytest.approx(
                    4.0 * float(d @ probe.cov @ d), rel=1e-12
                )

    @pytest.mark.parametrize("poly", [P + identity_op(1j), 1j * X], ids=["P+1j", "1j*X"])
    def test_non_hermitian_rejected(self, poly):
        with pytest.raises(InternalConsistencyError):
            qfi_linear_generator(VACUUM, poly)

    def test_non_hermitian_quadratic_form_rejected(self):
        with pytest.raises(InternalConsistencyError):
            evolve(VACUUM, 1j * X, 0.1)

    def test_imaginary_constant_rejected_by_quadratic_form(self):
        # the map checks the constant too, so this path now sees it as well
        with pytest.raises(InternalConsistencyError):
            evolve(VACUUM, P + identity_op(1j), 0.1)

    def test_cubic_generator_not_evolved(self):
        cubic = normal_order_product(normal_order_product(X, X), X)
        with pytest.raises(NotGaussianError, match="degree 3"):
            evolve(VACUUM, cubic, 0.1)

    def test_overflowing_qfi_rejected(self):
        with pytest.raises(ValidationError, match="Gaussian QFI is inf"):
            qfi_linear_generator(VACUUM, 1e200 * X)


# -- the plain-float core against the numpy reference ---------------------------

XP = normal_order_product(X, P) + normal_order_product(P, X)
XX, PP = normal_order_product(X, X), normal_order_product(P, P)
BRANCHES = ("elliptic", "hyperbolic", "degenerate")


def _generator(g_xx: float, g_pp: float, g_xp: float, d_x: float, d_p: float) -> LadderPolynomial:
    """(1/2) R^T G R + d^T R as a ladder polynomial."""
    return 0.5 * (g_xx * XX + g_pp * PP + g_xp * XP) + d_x * X + d_p * P


@st.composite
def generators(draw, branch: str, scale: float = 1.0):
    """A quadratic generator whose flow takes ``branch``: det G > 0 rotates
    (elliptic), det G < 0 squeezes (hyperbolic), det G = 0 shears or only
    displaces (degenerate)."""
    size = st.floats(0.1 * scale, scale)
    linear = st.floats(-scale, scale)
    d_x, d_p = draw(linear), draw(linear)
    if branch == "degenerate":
        g = draw(st.sampled_from([0.0, 1.0, -1.0])) * draw(size)
        g_xx, g_pp = (g, 0.0) if draw(st.booleans()) else (0.0, g)
        return _generator(g_xx, g_pp, 0.0, d_x, d_p)
    g_xx, g_pp = draw(size), draw(size)
    if branch == "hyperbolic":
        g_pp = -g_pp
    g_xp = draw(st.floats(-0.9, 0.9)) * math.sqrt(g_xx * abs(g_pp))
    return _generator(g_xx, g_pp, g_xp, d_x, d_p)


PROBE_DESCRIPTORS = st.sampled_from([
    ProbeDescriptor.vacuum(), ProbeDescriptor.coherent(0.3 - 0.2j),
    ProbeDescriptor.squeezed_vacuum(0.4, 0.7), ProbeDescriptor.squeezed_vacuum(0.2, -1.1),
])


def _same_state(state: GaussianState, mean: np.ndarray, cov: np.ndarray) -> bool:
    """Moments within 1e-13 of the reference's largest one, or of the
    vacuum's scale 1/2: a mean that cancels to zero is rounding noise on the
    scale of what it summed."""
    scale = max(float(np.abs(mean).max()), float(np.abs(cov).max()), 0.5)
    return max(float(np.abs(state.mean - mean).max()),
               float(np.abs(state.cov - cov).max())) <= 1e-13 * scale


def _branch(poly: LadderPolynomial, t: float) -> str:
    _, _, delta = numpy_symplectic_and_integral(numpy_quadratic(poly)[0], t)
    if abs(delta) < 1e-30:
        return "degenerate"
    return "elliptic" if delta > 0 else "hyperbolic"


@pytest.mark.parametrize("branch", BRANCHES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evolve_matches_numpy_reference(branch, data):
    poly = data.draw(generators(branch))
    t = data.draw(st.floats(0.05, 3.0)) * data.draw(st.sampled_from([1.0, -1.0]))
    probe = data.draw(PROBE_DESCRIPTORS)
    assert _branch(poly, t) == branch
    state = evolve(gaussian_probe(probe), poly, t)
    mean, cov = numpy_evolve(*numpy_probe(probe), poly, t)
    assert _same_state(state, mean, cov)


@pytest.mark.parametrize("branch", BRANCHES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_protocol_and_cfi_match_numpy_reference(branch, data):
    # mild flows (N |t| |G| <= 0.75), so the variance along theta is not a
    # sum that cancels the compared digits away
    h_g = data.draw(generators(data.draw(st.sampled_from(BRANCHES)), scale=0.5))
    h_lambda = data.draw(generators(branch, scale=0.5))
    n = data.draw(st.integers(1, 3))
    lam = data.draw(st.floats(0.02, 0.25))
    # no flow so slow that np.linalg.det in the reference underflows and warns
    aux = data.draw(st.sampled_from([0.0, 1.0, -1.0])) * data.draw(st.floats(1e-3, 0.25))
    assert _branch(h_lambda, n * lam) == branch
    protocol = EncodingProtocol(h_lambda=h_lambda, h_g=h_g, n_applications=n,
                                lambda_bar=lam, g_bar=aux, probe=data.draw(PROBE_DESCRIPTORS))
    state = run_protocol(protocol)
    mean, cov = numpy_run_protocol(protocol)
    assert _same_state(state, mean, cov)
    theta = data.draw(st.floats(0.0, math.pi))
    want = numpy_cfi(protocol, theta)
    got = cfi_quadrature(protocol, HomodyneSpec(theta))
    assert abs(got - want) <= 1e-13 * max(want, _cfi_scale(protocol, theta, mean, cov))


def _cfi_scale(protocol, theta: float, mean: np.ndarray, cov: np.ndarray) -> float:
    """The CFI that derivatives as large as the terms they sum would give: a
    derivative that cancels (a rotation of the vacuum) is rounding noise
    on that scale, not on its own."""
    g_matrix, d_vector = numpy_quadratic(protocol.h_lambda)
    g, d = float(np.abs(g_matrix).max()), float(np.abs(d_vector).max())
    u = np.array([math.cos(theta), math.sin(theta)])
    var = float(u @ cov @ u)
    n = protocol.n_applications
    d_mean, d_var = n * (g * float(np.abs(mean).max()) + d), n * g * float(np.abs(cov).max())
    return d_mean**2 / var + d_var**2 / var**2


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cfi_never_exceeds_the_qfi(data):
    # homodyne CFI <= QFI (the Cramer-Rao chain) for squeezes and shears that
    # the classifier accepts (rotations reach its cap), a linear h_lambda,
    # and flows up to N |t| = 15, where along the squeezed axis the two agree
    # to e^(-4 k).  Each side rounds its own exponent k = N |t| sqrt(-det G)
    # (the rate, its root, N t), and e^(2 k) turns that into about 2 k eps
    # per rounding: at k = 12, X^2 - P^2 with its coefficients a rounding off
    # gives a CFI 10 eps above and a QFI 9 eps below their 60-digit values
    h_g = data.draw(generators(data.draw(st.sampled_from(["hyperbolic", "degenerate"]))))
    assume(h_g.degree == 2)
    sign = st.sampled_from([1.0, -1.0])
    h_lambda = _generator(0.0, 0.0, 0.0, data.draw(st.floats(0.1, 1.0)) * data.draw(sign),
                          data.draw(st.floats(0.1, 1.0)) * data.draw(sign))
    n = data.draw(st.integers(1, 12))
    aux = data.draw(st.floats(0.0, 15.0)) * data.draw(sign) / n
    protocol = EncodingProtocol(h_lambda=h_lambda, h_g=h_g, n_applications=n, lambda_bar=0.1,
                                g_bar=aux, probe=data.draw(PROBE_DESCRIPTORS))
    qfi = qfi_linear_generator(gaussian_probe(protocol.probe), local_generator(protocol).generator)
    cfi = cfi_quadrature(protocol, HomodyneSpec(data.draw(st.floats(0.0, math.pi))))
    g_xx, g_pp, g_xp, _, _ = gaussian._quadratic(h_g)
    k = n * abs(aux) * math.sqrt(max(0.0, g_xp * g_xp - g_pp * g_xx))
    assert cfi <= qfi * (1.0 + (8.0 + 16.0 * k) * EPS)


def test_squeeze_protocol_closed_forms():
    # QFI 2 N^2 cosh(2 N xi) and homodyne CFI N^2 e^{2 N xi} over fig3's
    # range; numpy_cfi's pushed-forward variance is a sum that cancels
    # e^{4 N xi}, which N xi <= 1.2 keeps within the compared digits
    for xi in (0.05, 0.08, 0.1):
        for row in fig3_scan(range(1, 13), xi_bar=xi, include_fock=False).rows:
            n = row["N"]
            assert row["qfi_gaussian"] == pytest.approx(2 * n**2 * math.cosh(2 * n * xi), rel=1e-13)
            assert row["cfi"] == pytest.approx(n**2 * math.exp(2 * n * xi), rel=1e-12)
            protocol = build_preset("squeeze-inf", n, 0.1, xi, ProbeDescriptor.coherent(0.3))
            assert row["cfi"] == pytest.approx(numpy_cfi(protocol, math.pi / 4.0), rel=1e-13)
