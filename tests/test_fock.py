"""Truncated-Fock oracle: matrices, evolution, QFI, switch, DV bound."""

import contextlib
import io
import math
import re
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from ncmetro import (
    ConvergenceError,
    EncodingProtocol,
    LadderPolynomial,
    LeakageError,
    MatrixOperator,
    ProbeDescriptor,
    ValidationError,
    branch_phase_overlap,
    dv_bound_check,
    dv_saturating_probe,
    identity_op,
    ladder_term,
    matrix_of,
    momentum_op,
    normal_order_product,
    position_op,
    prepare_probe,
    qfi_numeric,
    shear_protocol,
    squeeze_protocol,
    switch_protocol,
    switch_qfi,
)
from ncmetro import fock, ladder
from ncmetro.cli import main
from ncmetro.errors import NumericalTrustError
from ncmetro.experiments import fig3_scan, switch_scan
from ncmetro.fock import SWITCH_MODES, HermitianEvolver
from ncmetro.protocols import build_preset

from helpers import (
    ORACLE_POOL,
    eigh_evolution,
    full_vector_qfi,
    full_vector_switch_qfi,
    overlap_passes,
    per_row_dv_bound_check,
    per_row_qfi,
    per_row_switch_qfi,
    power_chain_matrix,
    random_hermitian_polynomial,
    recurrence_probe,
    richardson_of_passes,
)

X = position_op()
P = momentum_op()

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex) / 2.0
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex) / 2.0
SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2.0)
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)


def reduced_control(*branches: np.ndarray) -> np.ndarray:
    """Reduced density matrix <i|rho|j> = <branch j|branch i> of the switch's
    control qubit, from the two weighted branches."""
    return np.array([[np.vdot(branches[j], branches[i]) for j in range(2)]
                     for i in range(2)])


class TestMatrixOf:
    def test_identity(self):
        mat = matrix_of(identity_op(), 6)
        assert np.allclose(mat.matrix, np.eye(6))

    def test_number_operator(self):
        mat = matrix_of(ladder_term(1, 1), 4)
        assert np.allclose(mat.matrix, np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_xp_commutator_truncation_corner(self):
        dim = 40
        x = matrix_of(X, dim).matrix
        p = matrix_of(P, dim).matrix
        comm = x @ p - p @ x
        sub = dim - 2
        assert np.abs(comm[:sub, :sub] - 1j * np.eye(sub)).max() < 1e-12
        # the corner carries the -i(dim-1) truncation artifact
        assert comm[dim - 1, dim - 1] == pytest.approx(-1j * (dim - 1), rel=1e-12)

    def test_matches_power_chain_reference(self):
        rng = np.random.default_rng(20261018)
        for dim in (*range(2, 9), 17, 64, 200):
            # a term with max(m, n) >= dim has an empty diagonal
            beyond = ladder_term(dim, 1) + ladder_term(1, dim)
            for _ in range(4):
                poly = random_hermitian_polynomial(rng, max_degree=6)
                got = matrix_of(poly, dim).matrix
                ref = power_chain_matrix(poly, dim)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
                assert np.array_equal(matrix_of(poly + beyond, dim).matrix, got)
            assert not matrix_of(beyond, dim).matrix.any()

    def test_unitarity_of_evolutions(self):
        for poly in (X, P):
            for dim in (40, 200):
                u = HermitianEvolver(matrix_of(poly, dim).matrix).unitary(0.37)
                assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-9


class TestEvolveUnitary:
    def test_displacement_gives_coherent_state(self):
        dim, x = 60, 0.3
        vac = prepare_probe(ProbeDescriptor.vacuum(), dim)
        out = HermitianEvolver(matrix_of(P, dim).matrix).apply(x, vac)
        target = prepare_probe(ProbeDescriptor.coherent(x / math.sqrt(2.0)), dim)
        overlap = abs(np.vdot(target, out))
        assert overlap > 1.0 - 1e-8

    def test_zero_time_is_identity(self):
        probe = prepare_probe(ProbeDescriptor.coherent(0.4), 40)
        out = HermitianEvolver(matrix_of(X, 40).matrix).apply(0.0, probe)
        assert np.allclose(out, probe)

    def test_squeeze_variances_on_diagonal_axes(self):
        dim, xi = 60, 0.1
        vac = prepare_probe(ProbeDescriptor.vacuum(), dim)
        h = matrix_of(ladder_term(2, 0) + ladder_term(0, 2), dim)
        out = HermitianEvolver(h.matrix).apply(xi / 2.0, vac)
        x = matrix_of(X, dim).matrix
        p = matrix_of(P, dim).matrix
        for sign in (+1.0, -1.0):
            q = (x + sign * p) / math.sqrt(2.0)
            vec = q @ out
            var = float(np.vdot(vec, vec).real) - float(
                np.vdot(out, vec).real
            ) ** 2
            assert var == pytest.approx(math.exp(-2 * sign * xi) / 2.0, abs=1e-6)

    def test_non_hermitian_rejected(self):
        probe = prepare_probe(ProbeDescriptor.vacuum(), 16)
        bad = MatrixOperator(dim=16, matrix=np.triu(np.ones((16, 16), complex)))
        with pytest.raises(ValidationError):
            HermitianEvolver(bad.matrix).apply(0.1, probe)


class TestPrepareProbe:
    def test_coherent_norm_and_leakage(self):
        probe = prepare_probe(ProbeDescriptor.coherent(0.3), 80)
        assert np.linalg.norm(probe) == pytest.approx(1.0, abs=1e-12)
        assert abs(probe[-1]) ** 2 < 1e-8

    def test_squeezed_amplitude_ratio(self):
        r, phi = 0.4, 0.3
        probe = prepare_probe(ProbeDescriptor.squeezed_vacuum(r, phi), 80)
        ratio = probe[2] / probe[0]
        expected = -np.exp(2j * phi) * math.tanh(r) / math.sqrt(2.0)
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert abs(probe[1]) == 0.0

    def test_fock_vector_embedding(self):
        probe = prepare_probe(ProbeDescriptor.fock_vector([0.0, 1.0]), 16)
        assert probe[1] == pytest.approx(1.0)

    def test_truncation_overflow_rejected(self):
        with pytest.raises(LeakageError):
            prepare_probe(ProbeDescriptor.coherent(6.0), 16)

    def test_matches_level_by_level_recurrence(self):
        probes = (ProbeDescriptor.coherent(0.3), ProbeDescriptor.coherent(-0.7 + 1.1j),
                  ProbeDescriptor.coherent(3j), ProbeDescriptor.squeezed_vacuum(0.3, 0.0),
                  ProbeDescriptor.squeezed_vacuum(0.5, -1.1),
                  ProbeDescriptor.squeezed_vacuum(1.2, 0.7))
        for probe in probes:
            for dim in range(2, 201):
                ref = recurrence_probe(probe, dim)
                norm = np.linalg.norm(ref)
                if abs(norm - 1.0) > 1e-6 or abs(ref[-1] / norm) ** 2 > 1e-8:
                    with pytest.raises(LeakageError):
                        prepare_probe(probe, dim)
                else:
                    got = prepare_probe(probe, dim)
                    np.testing.assert_allclose(got, ref / norm, rtol=1e-13, atol=1e-300)


class TestQfiNumeric:
    def test_single_displacement_on_vacuum(self):
        protocol = build_preset("xp-constant", 1, 0.2, 0.0)
        estimate = qfi_numeric(protocol, dim=40)
        assert estimate.value == pytest.approx(2.0, rel=1e-9)
        assert estimate.trusted

    def test_squeeze_protocol_vs_closed_form(self):
        protocol = squeeze_protocol(3, 0.1, 0.1, ProbeDescriptor.coherent(0.3))
        estimate = qfi_numeric(protocol, dim=80)
        assert estimate.value == pytest.approx(2 * 9 * math.cosh(0.6), rel=1e-2)
        assert estimate.trusted

    def test_shear_protocol_generator_variance(self):
        protocol = shear_protocol(3, 0.2, 0.1)
        estimate = qfi_numeric(protocol, dim=80)
        assert estimate.value == pytest.approx(2 * 9 + 8 * 81 * 0.01, rel=1e-2)

    def test_truncation_doubling_convergence(self):
        protocol = squeeze_protocol(3, 0.1, 0.1, ProbeDescriptor.coherent(0.3))
        small = qfi_numeric(protocol, dim=80)
        large = qfi_numeric(protocol, dim=160)
        assert abs(large.value - small.value) / large.value < 0.005

    def test_untrusted_where_parity_blinds_leakage_check(self):
        # X^2 and P^2 keep the vacuum's even parity, so at even dim the top
        # level stays empty and the leakage check sees nothing
        x, p = position_op(), momentum_op()
        protocol = EncodingProtocol(h_lambda=p * p, h_g=x * x, n_applications=2,
                                    lambda_bar=0.0, g_bar=0.1)
        for dim, trusted in ((80, False), (81, True)):
            estimate = qfi_numeric(protocol, dim=dim)
            assert estimate.value == pytest.approx(2 * 4 * (1 + 4 * 0.2**2) ** 2, rel=1e-6)
            assert estimate.trusted == trusted

    def test_untrusted_flag_at_coarse_step(self):
        protocol = squeeze_protocol(3, 0.1, 0.1, ProbeDescriptor.coherent(0.3))
        estimate = qfi_numeric(protocol, dim=80, step=0.05)
        assert not estimate.trusted
        assert estimate.rel_disagreement > 0.005

    def test_convergence_error_at_absurd_step(self):
        protocol = squeeze_protocol(3, 0.1, 0.1, ProbeDescriptor.coherent(0.3))
        with pytest.raises(ConvergenceError):
            qfi_numeric(protocol, dim=80, step=0.5, retries=0)

    def test_leakage_retry_reaches_bigger_dim(self):
        # N=12 squeezing leaks at dim 80; one doubling fixes it
        protocol = squeeze_protocol(12, 0.1, 0.1, ProbeDescriptor.coherent(0.3))
        estimate = qfi_numeric(protocol, dim=80, retries=1)
        assert estimate.dim == 160
        assert estimate.value == pytest.approx(2 * 144 * math.cosh(2.4), rel=1e-2)
        with pytest.raises(LeakageError):
            qfi_numeric(protocol, dim=80, retries=0)

    def test_negative_retries_rejected(self):
        # retries=-1 once ran no attempt and ended in ``raise None``
        protocol = squeeze_protocol(3, 0.1, 0.1, ProbeDescriptor.coherent(0.3))
        with pytest.raises(ValidationError, match="retries"):
            qfi_numeric(protocol, dim=80, retries=-1)


class TestSwitch:
    def test_commuting_case_control_untouched(self):
        probe = prepare_probe(ProbeDescriptor.vacuum(), 40)
        plus = np.full((2, 2), 0.5)
        assert np.allclose(reduced_control(*switch_protocol(3, 0.0, 0.2, probe)), plus)
        assert np.allclose(reduced_control(*switch_protocol(3, 0.2, 0.0, probe)), plus)

    def test_branch_phase_weyl_relation(self):
        probe = prepare_probe(ProbeDescriptor.vacuum(), 80)
        for n in range(1, 7):
            z = branch_phase_overlap(n, 0.1, 0.2, probe)
            expected = np.exp(-1j * n**2 * 0.1 * 0.2)
            assert abs(z - expected) < 1e-6

    def test_reduced_control_is_pure_phase(self):
        probe = prepare_probe(ProbeDescriptor.vacuum(), 60)
        rho = reduced_control(*switch_protocol(2, 0.1, 0.2, probe))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert abs(rho[0, 1]) == pytest.approx(0.5, abs=1e-10)
        phase = np.angle(rho[0, 1])
        assert phase == pytest.approx(4 * 0.1 * 0.2, abs=1e-9)

    def test_control_qfi_is_phase_information(self):
        for n in (1, 3, 6):
            estimate = switch_qfi(n, 0.1, 0.2, dim=80, mode="control")
            assert estimate.value == pytest.approx(n**4 * 0.04, rel=1e-6)
            assert estimate.trusted

    def test_joint_qfi_carries_both_channels(self):
        for n in (2, 5):
            estimate = switch_qfi(n, 0.1, 0.2, dim=80, mode="joint")
            assert estimate.value == pytest.approx(2 * n**2 + n**4 * 0.04, rel=1e-7)

    def test_definite_order_qfi(self):
        for n in (2, 5):
            estimate = switch_qfi(n, 0.1, 0.2, dim=80, mode="definite")
            assert estimate.value == pytest.approx(2 * n**2, rel=1e-8)

    def test_definite_order_reads_only_its_branch(self):
        # at dim 20 and N = 12 the opposite order leaks and the measured one
        # does not: only the modes that read both branches are refused
        assert switch_qfi(12, 0.1, 0.2, dim=20, mode="definite").value == pytest.approx(
            288.0, rel=1e-7)
        for mode in ("control", "joint"):
            with pytest.raises(LeakageError, match="^switch_protocol: "):
                switch_qfi(12, 0.1, 0.2, dim=20, mode=mode)
        # the measured branch's own leakage still refuses the definite order
        vacuum = prepare_probe(ProbeDescriptor.vacuum(), 10)
        branch = (eigh_evolution(matrix_of(P, 10).matrix)(0.6)
                  @ eigh_evolution(matrix_of(X, 10).matrix)(1.2) @ vacuum)
        assert abs(branch[-1]) ** 2 > fock.LEAKAGE_THRESHOLD
        with pytest.raises(LeakageError, match="^switch_protocol: "):
            switch_qfi(6, 0.1, 0.2, dim=10, mode="definite")

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            switch_qfi(2, 0.1, 0.2, mode="sideways")


def _gauge_rotated(poly: LadderPolynomial) -> LadderPolynomial:
    """G H G^dag for G = diag(i^k): term ad^m a^n picks up i^(m-n)."""
    return LadderPolynomial({(m, n): c * 1j ** ((m - n) % 4) for (m, n), c in poly.terms.items()})


def _real_part(poly: LadderPolynomial) -> LadderPolynomial:
    return LadderPolynomial({key: c.real for key, c in poly.terms.items() if c.real})


def _outcome(compute):
    """The computed value, or the type of the trust error raised."""
    try:
        return compute()
    except NumericalTrustError as exc:
        return type(exc)


class TestEigenCoordinatePaths:
    def test_evolution_matches_complex_eigh(self):
        rng = np.random.default_rng(20261018)
        xp = normal_order_product(X, P) + normal_order_product(P, X)
        for dim in (2, 3, 8, 17, 40):
            # expected path: real (or gauge-real) decomposition, complex, or
            # None where truncation or chance may make the matrix real
            families = [(X * X, True), (P, True), (P * P * P, True),
                        (xp, False if dim > 2 else None),
                        (xp + X * X, False if dim > 2 else None)]
            for _ in range(3):
                poly = random_hermitian_polynomial(rng, max_degree=3)
                real = _real_part(poly) if _real_part(poly).terms else X
                families += [(real, True), (_gauge_rotated(real), True), (poly, None)]
            assert not HermitianEvolver(matrix_of(P, dim).matrix)._real
            assert fock._evolver(P, dim)._real
            for poly, real_path in families:
                matrix = matrix_of(poly, dim).matrix
                reference = eigh_evolution(matrix)
                scale = max(float(np.abs(np.linalg.eigvalsh(matrix)).max()), 1.0)
                # a matrix is decomposed as it is given; only _evolver, from
                # the terms, takes P's or P^3's gauge-real twin of X's or X^3's
                for evolver, real in ((HermitianEvolver(matrix), not matrix.imag.any()),
                                      (fock._evolver(poly, dim), real_path)):
                    if real is not None:
                        assert evolver._real is real, (poly, dim)
                    for tau in (0.7, -3.1):
                        t = tau / scale
                        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                        vec /= np.linalg.norm(vec)
                        assert np.abs(evolver.apply(t, vec) - reference(t) @ vec).max() <= 1e-12
                        assert np.abs(evolver.unitary(t) - reference(t)).max() <= 1e-12

    @pytest.mark.parametrize("dim", [8, 9, 17, 80, 81, 160])
    def test_parity_blocks_match_one_complex_eigh(self, dim):
        # at even dim, even generators take two eigh blocks and odd ones one
        # SVD; mixed and random complex ones, and every generator at odd dim
        # (its parity halves are unequal), one block; P and its cube are the
        # gauge twins of X and X^3
        rng = np.random.default_rng(dim)
        squeeze = ladder_term(2, 0) + ladder_term(0, 2)
        odd = LadderPolynomial({key: c for key, c in random_hermitian_polynomial(
            rng, max_degree=3).terms.items() if sum(key) % 2} or {(1, 0): 1j, (0, 1): -1j})
        even = LadderPolynomial({key: c for key, c in random_hermitian_polynomial(
            rng, max_degree=4).terms.items() if sum(key) % 2 == 0})
        families = [(squeeze, "even"), (X * X, "even"), (P * P, "even"), (even, "even"),
                    (X, "odd"), (P, "odd"), (X * X * X, "odd"), (P * P * P, "odd"), (odd, "odd"),
                    (X * X * X + P * P, "mixed"),
                    (random_hermitian_polynomial(rng, 3) + X + X * X, "mixed")]
        for poly, parity in families:
            matrix = matrix_of(poly, dim).matrix
            reference = eigh_evolution(matrix)
            spectrum = np.abs(np.linalg.eigvalsh(matrix)).max()
            for evolver in (HermitianEvolver(matrix), fock._evolver(poly, dim)):
                assert (len(evolver._blocks), evolver._pairs) == {
                    "even": (2, False), "odd": (2, True), "mixed": (1, False)}[
                    parity if dim % 2 == 0 else "mixed"], poly
                assert evolver._w_max == np.abs(evolver._minus_iw).max()  # max|w|, any order
                assert evolver._w_max == pytest.approx(spectrum, rel=1e-12)
                for tau in (0.7, -3.1):
                    t = tau / max(spectrum, 1.0)
                    vecs = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
                    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
                    want = vecs @ reference(t).T
                    got = evolver.apply(t, vecs)
                    assert np.abs(got - want).max() <= 1e-12, (poly, dim)
                    assert all(np.array_equal(evolver.apply(t, vec), row)
                               for vec, row in zip(vecs, got))  # a lone row's floats
                    coeffs = evolver.phases(t) * evolver.project(fock._to_parity(vecs))
                    assert np.array_equal(fock._to_fock(evolver.lift(coeffs)), got)
                    assert np.abs(evolver.top_amplitudes(coeffs) - want[:, -1]).max() <= 1e-12
                    assert np.abs(evolver.unitary(t) - reference(t)).max() <= 1e-12

    def test_qfi_numeric_matches_full_vector_reference(self):
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(48):
            n = int(rng.integers(1, 13))
            lam = float(rng.choice([0.0, 0.1]))
            aux = float(rng.uniform(0.0, 0.3))
            probe = (ProbeDescriptor.vacuum(), ProbeDescriptor.coherent(complex(rng.uniform(-0.5, 0.5), 0.3)),
                     ProbeDescriptor.squeezed_vacuum(float(rng.uniform(0.0, 0.5)), 0.4))[rng.integers(3)]
            name = rng.choice(["squeeze-inf", "shear-k1", "xp-constant", "x2p2"])
            if name == "x2p2":
                protocol = EncodingProtocol(h_lambda=P * P, h_g=X * X, n_applications=n,
                                            lambda_bar=lam, g_bar=aux, probe=probe)
            else:
                protocol = build_preset(str(name), n, lam, aux, probe)
            dim = int(rng.choice([16, 24, 40, 60, 81]))
            step = float(rng.choice([1e-4, 1e-5, 0.05, 0.5]))
            retries = int(rng.integers(2))

            def package():
                est = qfi_numeric(protocol, dim=dim, step=step, retries=retries)
                return est.value, est.trusted, est.dim

            got = _outcome(package)
            want = _outcome(lambda: full_vector_qfi(protocol, dim, step, retries))
            if isinstance(want, type):
                assert got is want, (name, n, dim, step)
                outcomes.add(want.__name__)
            else:
                assert got[1:] == want[1:], (name, n, dim, step)
                assert got[0] == pytest.approx(want[0], rel=1e-10, abs=1e-12)
                outcomes.add("trusted" if want[1] else "untrusted")
        assert outcomes == {"LeakageError", "ConvergenceError", "trusted", "untrusted"}

    def test_switch_qfi_matches_full_vector_reference(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(36):
            n = int(rng.integers(1, 9))
            x, p = float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.0, 0.3))
            probe = (ProbeDescriptor.vacuum(), ProbeDescriptor.coherent(0.4 - 0.2j))[rng.integers(2)]
            dim = int(rng.choice([12, 20, 40, 80]))
            step = float(rng.choice([1e-4, 0.05, 0.3]))
            mode = str(rng.choice(SWITCH_MODES))

            def package():
                est = switch_qfi(n, x, p, probe=probe, dim=dim, step=step, mode=mode)
                return est.value, est.trusted

            got = _outcome(package)
            want = _outcome(lambda: full_vector_switch_qfi(n, x, p, probe, dim, step, mode))
            if isinstance(want, type):
                assert got is want, (n, dim, step, mode)
                outcomes.add(want.__name__)
            else:
                assert got[1] == want[1], (n, dim, step, mode)
                assert got[0] == pytest.approx(want[0], rel=1e-10, abs=1e-12)
                outcomes.add("trusted" if want[1] else "untrusted")
        assert {"LeakageError", "trusted", "untrusted"} <= outcomes


@pytest.fixture
def decomposition_sizes(monkeypatch):
    """Dimension of every decomposition (``HermitianEvolver`` construction)
    made during the test.  Each must make only the half-size ``eigh`` or
    SVD calls of its parity blocks, or one full-size ``eigh`` for a
    generator of mixed parity or at odd dimension."""
    sizes, calls = [], []
    for name in ("eigh", "svd"):
        def counting(matrix, *args, name=name, original=getattr(np.linalg, name), **kwargs):
            calls.append((name, matrix.shape))
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    init = HermitianEvolver.__init__

    def counting_init(self, matrix):
        calls.clear()
        init(self, matrix)
        dim, half = matrix.shape[0], matrix.shape[0] // 2
        assert calls in ([("eigh", (half, half))] * 2, [("svd", (half, half))],
                         [("eigh", (dim, dim))]), calls
        sizes.append(dim)

    monkeypatch.setattr(HermitianEvolver, "__init__", counting_init)
    return sizes


class TestEvolverReuse:
    def test_one_eigh_per_generator_and_dim(self, decomposition_sizes):
        # one decomposition per (generator, dim), by parity blocks
        sizes = decomposition_sizes
        for mode in SWITCH_MODES:
            fock._cached_evolver.cache_clear()
            sizes.clear()
            switch_scan(range(1, 7), 0.1, 0.2, dim=110, mode=mode)
            assert sizes == [110], mode  # P = G X G^dag shares X's decomposition
        fock._cached_evolver.cache_clear()
        sizes.clear()
        scan = fig3_scan(range(1, 13), dim=110)
        assert all(row["qfi_fock"] is not None for row in scan.rows)
        assert sizes == [110, 110]  # a retried row would add two at 220
        shared = fock._evolver(position_op(), 110)
        assert fock._evolver(position_op(), 110) is shared
        twin = fock._evolver(momentum_op(), 110)
        assert fock._evolver(momentum_op(), 110) is twin  # stored with its entry
        assert twin._blocks is shared._blocks
        assert len(sizes) == 2
        for array in (shared._blocks, shared._minus_iw, shared._top, twin._gauge):
            assert not array.flags.writeable


def _warm_cache_cases():
    """qfi_numeric over the presets and X^2 | P^2 at dims 80 and 110, and
    switch_qfi in every mode: trusted, retried, untrusted and leaking."""
    probe = ProbeDescriptor.coherent(0.3 + 0.1j)
    cases = []
    for dim in (80, 110):
        for n, aux in ((3, 0.1), (6, 0.2), (10, 0.25)):
            for name in ("squeeze-inf", "shear-k1", "xp-constant"):
                cases.append((qfi_numeric, build_preset(name, n, 0.1, aux, probe), dim))
            cases.append((qfi_numeric, EncodingProtocol(
                h_lambda=P * P, h_g=X * X, n_applications=n, lambda_bar=0.1, g_bar=aux), dim))
        for mode in SWITCH_MODES:
            cases.append((switch_qfi, mode, dim))
    return cases


def _run_case(case):
    fn, arg, dim = case
    if fn is switch_qfi:
        return _outcome(lambda: switch_qfi(5, 0.1, 0.2, probe=ProbeDescriptor.coherent(0.2),
                                           dim=dim, mode=arg))
    return _outcome(lambda: qfi_numeric(arg, dim=dim))


def _held(cache):
    """(dim, bytes of every array its evolver holds) of each entry, blocks
    included, which is what the entry's size must count."""
    held = []
    for key, (value, size) in cache._entries.items():
        arrays = []  # every array the evolver holds, a view of another once
        for field in vars(value[0]).values():
            if isinstance(field, np.ndarray) and not any(
                    np.shares_memory(field, array) for array in arrays):
                arrays.append(field)
        assert size == value[0].nbytes == sum(array.nbytes for array in arrays)
        held.append((key[1], size))
    return held


class TestDecompositionCache:
    def test_warm_cache_never_changes_a_number(self):
        cases = _warm_cache_cases()
        cold = []
        for case in cases:
            fock._cached_evolver.cache_clear()
            cold.append(_run_case(case))
        assert {out.dim for out in cold if isinstance(out, fock.QfiEstimate)} >= {160, 220}
        assert {False, True} <= {out.trusted for out in cold if isinstance(out, fock.QfiEstimate)}
        assert LeakageError in cold
        fock._cached_evolver.cache_clear()
        for poly, dim in ((X * X * X, 95), (X * X + P * P, 80), (X * X, 160), (X, 110)):
            fock._evolver(poly, dim)
        order = np.random.default_rng(20261018).permutation(2 * len(cases)) % len(cases)
        for i in order:
            assert _run_case(cases[i]) == cold[i], cases[i]

    def test_budget_bounds_held_bytes(self, monkeypatch):
        budget = 110_000
        cache = fock._cached_evolver
        monkeypatch.setattr(cache, "budget", budget)
        cache.cache_clear()
        dims = [40, 50, 60, 70, 80, 40, 90]  # two half-size blocks each: 7360 ... 34560 bytes
        for i, dim in enumerate(dims):
            fock._evolver(X * X, dim)
            held = _held(cache)
            assert cache.held == sum(size for _, size in held)
            assert cache.held <= budget or len(held) == cache.floor
            recent = list(dict.fromkeys(reversed(dims[: i + 1])))[: cache.floor]
            assert set(recent) <= {dim for dim, _ in held}
        # the hit on 40 made 50 the least recently used
        assert [dim for dim, _ in held] == [60, 70, 80, 40, 90]
        fock._evolver(X * X, 110)
        assert [dim for dim, _ in _held(cache)] == [80, 40, 90, 110]
        assert cache.held > budget  # the floor outranks the budget
        cache.cache_clear()
        assert cache.held == 0 and not cache._entries

    def test_held_counts_every_block_an_entry_holds(self):
        # half-size parity blocks at even dim, one block at odd dim or of
        # mixed parity, and a complex block's real form
        cache = fock._cached_evolver
        cache.cache_clear()
        xp = normal_order_product(X, P) + normal_order_product(P, X)
        for poly in (X * X, X, P, X * X * X + P * P, xp):
            for dim in (40, 41):
                fock._evolver(poly, dim)
        held = _held(cache)
        assert len(held) == 8 and cache.held == sum(size for _, size in held)
        sizes = {key: value[0]._blocks.nbytes for key, (value, _) in cache._entries.items()}
        assert sizes[fock._evolver_key(X * X)[0], 40] == 8 * 2 * 20**2
        assert sizes[fock._evolver_key(X)[0], 40] == 8 * 2 * 20**2
        assert sizes[fock._evolver_key(X)[0], 41] == 8 * 41**2  # one real block
        assert fock._evolver(P, 41)._blocks is fock._evolver(X, 41)._blocks  # the twin shares it
        assert sizes[fock._evolver_key(X * X * X + P * P)[0], 40] == 8 * 40**2
        assert sizes[fock._evolver_key(xp)[0], 40] == 8 * 2 * 40**2  # complex: real forms

    def test_threads_share_one_decomposition_per_key(self, monkeypatch):
        # a lost update would hand two threads different decompositions of
        # one key, or leave the bytes held off the entries' total
        cache = fock._cached_evolver
        keys = [(poly, dim) for poly in (X, P, X * X) for dim in (20, 24, 30)]

        def hammer():
            cache.cache_clear()
            calls = []  # (key index, eigenvectors); holding them keeps ids unique

            def worker(seed):
                rng = np.random.default_rng(seed)
                for i in rng.integers(len(keys), size=200):
                    calls.append((i, fock._evolver(*keys[i])._blocks))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(calls) == 6 * 200
            return calls

        decompositions = {}
        for i, vecs in hammer():
            decompositions.setdefault(i, set()).add(id(vecs))
        assert all(len(ids) == 1 for ids in decompositions.values())
        monkeypatch.setattr(cache, "budget", 4 * 30**2 * 3)  # evicts under contention
        hammer()
        assert cache.held == sum(size for _, size in _held(cache))
        assert cache.held <= cache.budget or len(cache._entries) == cache.floor

    def test_scans_keep_their_reuse_under_a_tiny_budget(self, monkeypatch, decomposition_sizes):
        sizes = decomposition_sizes
        monkeypatch.setattr(fock._cached_evolver, "budget", 1)
        for dim in (120, 80):
            fock._evolver(X * X * X, dim)  # unrelated entries fill the floor
        sizes.clear()
        assert all(row["qfi_fock"] is not None for row in fig3_scan(range(1, 13), dim=110).rows)
        assert sizes == [110, 110]
        sizes.clear()
        switch_scan(range(1, 7), 0.1, 0.2, dim=100, mode="joint")
        assert sizes == [100]
        assert len(fock._cached_evolver._entries) == fock._cached_evolver.floor


def _exact(compute):
    """(repr of the result, which keeps every float bit, or the type and text
    of the trust error raised; the result or the error)."""
    try:
        result = compute()
    except NumericalTrustError as exc:
        return (type(exc), str(exc)), exc
    return repr(result), result


_PROBES = (ProbeDescriptor.vacuum(), ProbeDescriptor.coherent(0.3 + 0.1j),
           ProbeDescriptor.squeezed_vacuum(0.3, 0.4))

#: The benchmark's dimensions, and the odd 41 and 81.
_SCAN_DIMS = (41, 80, 81, 110, 140, 170, 200)


def _per_row_switch_scan(ns, x, p, probe, dim, step, mode):
    """``switch_scan``'s rows over ``per_row_switch_qfi``, one N at a time."""
    rows = []
    for n in ns:
        estimate = per_row_switch_qfi(n, x, p, probe=probe, dim=dim, step=step, mode=mode)
        rows.append({"N": n, "qfi": estimate.value, "trusted": 1 if estimate.trusted else 0})
    return rows


class TestPerRowReferences:
    """Each scan prepares and projects its probe once and reuses the scan
    edges as coarse-pass states; the numbers stay those of the per-row
    routines in ``helpers``, bit for bit, errors with their text."""

    def test_qfi_numeric(self):
        outcomes = set()
        for probe in _PROBES:
            for dim in (41, 80):
                for name in ("squeeze-inf", "shear-k1", "xp-constant", "x2p2"):
                    for n in (1, 5, 12):
                        if name == "x2p2":
                            protocol = EncodingProtocol(h_lambda=P * P, h_g=X * X, n_applications=n,
                                                        lambda_bar=0.1, g_bar=0.1, probe=probe)
                        else:
                            protocol = build_preset(name, n, 0.1, 0.15, probe)
                        for step, retries in ((1e-4, 1), (0.05, 0)):
                            got, result = _exact(
                                lambda: qfi_numeric(protocol, dim=dim, step=step, retries=retries))
                            want, _ = _exact(lambda: per_row_qfi(protocol, dim, step, retries))
                            assert got == want, (probe.kind, dim, name, n, step)
                            if isinstance(result, fock.QfiEstimate):
                                outcomes.add("retried" if result.dim > dim else result.trusted)
                            else:
                                outcomes.add(type(result).__name__)
        assert outcomes == {True, False, "retried", "LeakageError", "ConvergenceError"}

    def test_switch_qfi(self):
        outcomes = set()
        for probe in _PROBES[:2]:
            for dim in (41, 80):
                for mode in SWITCH_MODES:
                    for n in (1, 4, 12):
                        for step in (1e-4, 0.3):
                            got, result = _exact(lambda: switch_qfi(
                                n, 0.1, 0.2, probe=probe, dim=dim, step=step, mode=mode))
                            want, _ = _exact(lambda: per_row_switch_qfi(
                                n, 0.1, 0.2, probe=probe, dim=dim, step=step, mode=mode))
                            assert got == want, (probe.kind, dim, mode, n, step)
                            outcomes.add(getattr(result, "trusted", type(result).__name__))
        assert outcomes == {True, False, "LeakageError", "ConvergenceError"}

    def test_switch_qfi_definite_benchmark_cells(self):
        # the definite cells of the oracle-scans benchmark (N 1..6 at dims 80,
        # 170 and 200, p = 0.2, x = 0.1 and jittered by 1e-9 r) equal the
        # per-row branch and the first branch of ``switch_protocol``, whose
        # two orders the definite mode once evolved
        for dim in (80, 170, 200):
            probe = prepare_probe(ProbeDescriptor.vacuum(), dim)
            for n in range(1, 7):
                for x in (0.1, 0.1 * (1.0 + 1e-9), 0.1 * (1.0 + 7e-9)):
                    got, result = _exact(lambda: switch_qfi(n, x, 0.2, dim=dim, mode="definite"))
                    want, _ = _exact(lambda: per_row_switch_qfi(
                        n, x, 0.2, dim=dim, mode="definite"))
                    both, _ = _exact(lambda: richardson_of_passes(overlap_passes(
                        lambda xv: fock._to_parity(switch_protocol(n, xv, 0.2, probe)[0])
                        * math.sqrt(2.0), x),
                        fock.DEFAULT_STEP, dim, "switch QFI"))
                    assert got == want == both, (dim, n, x)
                    assert result.trusted and result.value == pytest.approx(2 * n**2, rel=1e-7)

    def test_fig3_scan_fock_columns(self):
        probe = ProbeDescriptor.coherent(0.3)
        used = set()
        for dim in (81, 110):
            for row in fig3_scan(range(1, 13), dim=dim).rows:
                protocol = build_preset("squeeze-inf", row["N"], 0.1, 0.1, probe)
                _, want = _exact(lambda: per_row_qfi(protocol, dim, fock.DEFAULT_STEP))
                if isinstance(want, NumericalTrustError):
                    assert row["qfi_fock"] is None and row["fock_trusted"] is None
                else:
                    assert repr(row["qfi_fock"]) == repr(want.value), (dim, row["N"])
                    assert row["fock_trusted"] == int(want.trusted)
                    used.add(want.dim)
        assert used == {81, 162, 110}  # N = 12 leaks at dim 81 and is retried

    def test_fig3_scan_rows(self):
        # every row's Fock columns are the per-row reference's, bit for bit,
        # or None where it raises a trust error
        outcomes = set()
        for dim in _SCAN_DIMS:
            for alpha in (0.0, 0.3):  # the vacuum as a coherent probe, and a coherent one
                probe = ProbeDescriptor.coherent(alpha)
                for step in (1e-4, 0.3):
                    for xi in (0.1, 0.05478421334590127):  # the second a benchmark cell's jittered xi
                        for ns in (range(1, 13), [2, 30]):
                            for row in fig3_scan(ns, xi_bar=xi, alpha=alpha, dim=dim, step=step).rows:
                                protocol = build_preset("squeeze-inf", row["N"], 0.1, xi, probe)
                                _, want = _exact(lambda: per_row_qfi(protocol, dim, step))
                                where = (dim, alpha, step, xi, row["N"])
                                if isinstance(want, NumericalTrustError):
                                    assert row["qfi_fock"] is None and row["fock_trusted"] is None, where
                                    outcomes.add("refused")
                                else:
                                    assert repr(row["qfi_fock"]) == repr(want.value), where
                                    assert row["fock_trusted"] == int(want.trusted), where
                                    outcomes.add("retried" if want.dim > dim else want.trusted)
        assert outcomes == {True, False, "retried", "refused"}

    def test_switch_scan_rows(self):
        # every row is the per-row reference's, bit for bit; a scan with a
        # row that fails raises the first such row's error
        outcomes = set()
        for dim in _SCAN_DIMS:
            for probe in (None, ProbeDescriptor.coherent(0.3 + 0.1j)):
                for step in (1e-4, 0.3):
                    for mode in SWITCH_MODES:
                        for x in (0.1, 0.1 * (1.0 + 1e-9)):  # the benchmark's x and its jitter
                            for ns in (range(1, 7), [1, 2], [1, 50, 10**33]):
                                got, result = _exact(lambda: switch_scan(
                                    ns, x, 0.2, dim=dim, step=step, mode=mode, probe=probe).rows)
                                want, _ = _exact(lambda: _per_row_switch_scan(
                                    ns, x, 0.2, probe, dim, step, mode))
                                assert got == want, (dim, probe, step, mode, x, ns)
                                if isinstance(result, list):
                                    outcomes.update(row["trusted"] for row in result)
                                else:
                                    outcomes.add(type(result).__name__)
        assert outcomes == {0, 1, "LeakageError", "ConvergenceError"}

    def test_scans_prepare_the_probe_once(self, monkeypatch):
        # a scan prepares its probe once, and changes basis and takes phases
        # once per step of the evolution, each call over all its rows
        prepared, calls = [], []
        prepare = fock._prepare
        monkeypatch.setattr(fock, "_prepare", lambda probe, dim: prepared.append(dim)
                            or prepare(probe, dim))
        for name in ("project", "lift", "phases"):
            method = getattr(HermitianEvolver, name)
            monkeypatch.setattr(HermitianEvolver, name, lambda self, arg, name=name, method=method:
                                calls.append((name, np.shape(arg))) or method(self, arg))
        fig3_scan(range(1, 13), dim=110)
        assert prepared == [110]
        # the probe onto H_g's eigenbasis, every row's auxiliary block, then
        # every row's states onto H_lambda's, and the five points of each
        assert calls == [("phases", (12,)), ("project", (110,)), ("lift", (12, 110)),
                         ("project", (12, 110)), ("phases", (12, 5))]
        prepared.clear()
        calls.clear()
        switch_scan(range(1, 7), 0.1, 0.2, dim=100, mode="joint")
        assert prepared == [100]
        # exp(-iNpX)|psi> for every N, onto P's eigenbasis; then both orders
        # at the five points of every N
        setup = [("phases", (6,)), ("project", (100,)), ("lift", (6, 100)), ("project", (6, 100)),
                 ("phases", (6, 5)), ("lift", (6, 5, 100))]
        assert calls == setup + [("project", (100,)), ("lift", (6, 5, 100)),
                                 ("project", (6, 5, 100)), ("lift", (6, 5, 100))]
        calls.clear()
        switch_scan(range(1, 7), 0.1, 0.2, dim=100, mode="definite")
        # the definite order's measured branch alone
        assert calls == setup

    def test_prepare_probe_returns_a_fresh_array(self):
        probe = ProbeDescriptor.coherent(0.4)
        vec = prepare_probe(probe, 30)
        vec[:] = 0.0
        again = prepare_probe(probe, 30)
        assert again is not vec and again.flags.writeable
        assert np.array_equal(fock._to_parity(again), fock._prepare(probe, 30))
        assert not fock._probe(probe, 30).flags.writeable

    @pytest.mark.parametrize("plus, minus", [
        (ProbeDescriptor.coherent(0.3), ProbeDescriptor(kind="coherent", alpha=0.3)),
        (ProbeDescriptor.fock_vector([0.6, 0.0, 0.8]), ProbeDescriptor.fock_vector([0.6, -0.0, 0.8])),
        (ProbeDescriptor.squeezed_vacuum(0.0, 0.0), ProbeDescriptor.squeezed_vacuum(-0.0, -0.0)),
    ], ids=["real-alpha", "fock-vector", "squeezed"])
    def test_equal_descriptors_keep_their_own_vectors(self, plus, minus):
        # a real alpha prepares other bits than the same complex one, so the
        # probe cache keys on the repr, which tells every such twin apart
        assert plus == minus
        for probe in (plus, minus, plus, minus):
            assert fock._probe(probe, 12).tobytes() == fock._prepare(probe, 12).tobytes()


class _CountingEntries(OrderedDict):
    """A cache's entries, counting its evictions (``popitem`` calls)."""

    def __init__(self):
        super().__init__()
        self.evictions = 0

    def popitem(self, last=True):
        self.evictions += 1
        return super().popitem(last)


def _clear_caches():
    fock._cached_evolver.cache_clear()
    fock._cached_probe.cache_clear()
    ladder._reports.cache_clear()


def _history_items():
    """The oracle-scans pool's commands and the warm-cache cases."""
    return [("cli", argv) for argv, *_ in ORACLE_POOL] + [("case", case) for case in _warm_cache_cases()]


def _run_item(item):
    kind, what = item
    if kind == "case":
        fn, arg, dim = what
        if fn is switch_qfi:
            return _exact(lambda: switch_qfi(5, 0.1, 0.2, probe=ProbeDescriptor.coherent(0.2),
                                             dim=dim, mode=arg))[0]
        return _exact(lambda: qfi_numeric(arg, dim=dim))[0]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(what))
    return code, out.getvalue(), err.getvalue()


class TestHistoryIndependence:
    def test_cold_warm_and_shuffled_runs_agree_byte_for_byte(self):
        items = _history_items()
        cold = []
        for item in items:
            _clear_caches()
            cold.append(_run_item(item))
        _clear_caches()
        assert [_run_item(item) for item in items] == cold
        order = np.random.default_rng(20261019).permutation(2 * len(items)) % len(items)
        for i in order:
            assert _run_item(items[i]) == cold[i], items[i]

    def test_x_evolver_used_before_p_twin_is_made(self):
        # in_gauge copies X's evolver: P's twin shares its eigenvectors, and
        # nothing X's evolver did with the kept probe may reach P's
        probe = ProbeDescriptor.coherent(0.2 + 0.1j)
        cold = [_exact(lambda: switch_qfi(5, 0.1, 0.2, probe=probe, dim=60, mode=mode))[0]
                for mode in SWITCH_MODES]
        _clear_caches()
        vec = fock._probe(probe, 60)
        shared = fock._evolver(X, 60)
        in_x = shared.project(vec)  # before P's twin exists
        twin = fock._evolver(P, 60)
        assert twin._blocks is shared._blocks
        assert not np.allclose(twin.project(vec), in_x)
        assert [_exact(lambda: switch_qfi(5, 0.1, 0.2, probe=probe, dim=60, mode=mode))[0]
                for mode in SWITCH_MODES] == cold

    def test_threads_never_get_another_probes_vector(self, monkeypatch):
        # budgets that keep only a few probe vectors and one of the two
        # decompositions (about 3 KB each) above a floor of one, so both
        # caches fill and evict under contention
        probes = [ProbeDescriptor.coherent(complex(0.05 * k, 0.1)) for k in range(10)]
        probes += [ProbeDescriptor.vacuum(), ProbeDescriptor.squeezed_vacuum(0.2, 0.3)]
        dims = (20, 24)
        protocols = [build_preset("squeeze-inf", 2, 0.1, 0.1, probe) for probe in probes]
        cold = [_exact(lambda: qfi_numeric(protocol, dim=24))[0] for protocol in protocols]
        prepared = {(i, dim): fock._prepare(probe, dim).tobytes()
                    for i, probe in enumerate(probes) for dim in dims}
        caches = (fock._cached_evolver, fock._cached_probe)
        for cache in caches:
            monkeypatch.setattr(cache, "_entries", _CountingEntries())
        monkeypatch.setattr(fock._cached_evolver, "budget", 4096)
        monkeypatch.setattr(fock._cached_evolver, "floor", 1)
        monkeypatch.setattr(fock._cached_probe, "budget", 16 * 24 * 5)
        _clear_caches()
        mismatches, results = [], []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(150):
                i = int(rng.integers(len(probes)))
                if rng.random() < 0.2:
                    results.append((i, _exact(lambda: qfi_numeric(protocols[i], dim=24))[0]))
                    continue
                dim = dims[rng.integers(2)]
                if fock._probe(probes[i], dim).tobytes() != prepared[i, dim]:
                    mismatches.append((i, dim))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(results) > 50
        assert all(outcome == cold[i] for i, outcome in results)
        assert all(cache._entries.evictions >= 1 for cache in caches)


class TestDvBound:
    def test_qubit_bound_holds(self):
        probe = dv_saturating_probe(SIGMA_Z)
        for g_bar in (0.1, 1.0):
            report = dv_bound_check(SIGMA_X, SIGMA_Z, range(1, 51), g_bar, probe)
            assert report.spectral_spread == pytest.approx(1.0)
            assert report.max_ratio <= 1.0 + 1e-12

    def test_saturation_at_zero_auxiliary(self):
        probe = dv_saturating_probe(SIGMA_Z)
        report = dv_bound_check(SIGMA_X, SIGMA_Z, [7], 0.0, probe)
        row = report.rows[0]
        assert row.qfi == pytest.approx(row.bound, abs=1e-9)

    def test_qutrit_bound(self):
        probe = dv_saturating_probe(SPIN1_Z)
        report = dv_bound_check(SPIN1_X, SPIN1_Z, range(1, 31), 0.5, probe)
        assert report.spectral_spread == pytest.approx(2.0)
        for row in report.rows:
            assert row.qfi <= 4.0 * row.n**2 * (1 + 1e-12)

    def test_oscillatory_not_growing(self):
        # QFI/N^2 stays bounded: no super-Heisenberg growth in finite dims
        probe = dv_saturating_probe(SIGMA_Z)
        report = dv_bound_check(SIGMA_X, SIGMA_Z, range(1, 51), 1.0, probe)
        ratios = [row.ratio for row in report.rows]
        assert max(ratios) <= 1.0 + 1e-12
        assert min(ratios) < max(ratios)  # genuinely oscillatory

    def test_validation(self):
        probe = np.array([1.0, 0.0])
        with pytest.raises(ValidationError):
            dv_bound_check(np.array([[0, 1], [0, 0]]), SIGMA_Z, [1], 0.1, probe)
        with pytest.raises(ValidationError):
            dv_bound_check(SIGMA_X, SIGMA_Z, [0], 0.1, probe)

    @pytest.mark.parametrize("probe", [
        np.zeros(2), np.array([math.nan, 1.0]), np.array([math.inf, 0.0]),
        np.array([1.0, 0.0, 0.0]), np.ones((2, 1)),
    ], ids=["zero", "nan", "inf", "length-3", "column"])
    def test_bad_probe_rejected(self, probe):
        # these once ended in the "QFI overflows" error (after a RuntimeWarning
        # for the zero probe) or a raw numpy ValueError
        with pytest.raises(ValidationError, match="^probe must be a length-2 vector"):
            dv_bound_check(SIGMA_X, SIGMA_Z, [1, 2], 0.3, probe)

    def test_empty_n_list_rejected(self):
        # an empty list once gave a report whose max_ratio raised ValueError
        probe = dv_saturating_probe(SIGMA_Z)
        with pytest.raises(ValidationError, match="n_list"):
            dv_bound_check(SIGMA_X, SIGMA_Z, [], 0.1, probe)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, np.float64(3.0)])
    def test_non_integer_n_rejected(self, n):
        # [1.5, True] once gave two rows labelled N = 1, the first computed
        # at N = 1.5
        probe = dv_saturating_probe(SIGMA_Z)
        with pytest.raises(ValidationError, match="must be integers"):
            dv_bound_check(SIGMA_X, SIGMA_Z, [1, n], 0.3, probe)

    def test_numpy_integer_n_accepted(self):
        probe = dv_saturating_probe(SIGMA_Z)
        report = dv_bound_check(SIGMA_X, SIGMA_Z, np.arange(1, 4), 0.3, probe)
        assert report == dv_bound_check(SIGMA_X, SIGMA_Z, [1, 2, 3], 0.3, probe)
        assert [type(row.n) for row in report.rows] == [int] * 3

    @pytest.mark.parametrize("g_bar", [math.nan, math.inf])
    def test_non_finite_auxiliary_rejected(self, g_bar):
        # a nan g_bar once gave DvBoundRow(qfi=nan, bound=1.0)
        probe = dv_saturating_probe(SIGMA_Z)
        with pytest.raises(ValidationError, match="g_bar must be finite"):
            dv_bound_check(SIGMA_X, SIGMA_Z, [1, 2], g_bar, probe)

    @pytest.mark.parametrize("pair", ["qubit", "qutrit"])
    @pytest.mark.parametrize("n_list", [range(1, 40), [9, 2, 31, 5, 1], [3, 10**20, 7],
                                        np.arange(12, 0, -1)],
                             ids=["1..39", "unsorted", "beyond-int64", "numpy"])
    def test_matches_per_row_reference(self, pair, n_list):
        # every N's unitary, conjugated generator and vector are computed at
        # once, as stacked arrays; each row keeps the floats of its own loop
        h_g, h_l = (SIGMA_X, SIGMA_Z) if pair == "qubit" else (SPIN1_X, SPIN1_Z)
        probes = (dv_saturating_probe(h_l), np.linspace(0.2, 1.1, len(h_l)) * (1 - 0.7j))
        for probe in probes:
            for g_bar in (0.05, 0.3, 0.77, -1.3, 0.0, 1e-9, 417.5):
                got = dv_bound_check(h_g, h_l, n_list, g_bar, probe)
                assert repr(got) == repr(per_row_dv_bound_check(h_g, h_l, n_list, g_bar, probe))

    @pytest.mark.parametrize("bad", [0, -2, True, 2.0, np.float64(3.0)])
    def test_entry_errors_match_per_row_reference(self, bad):
        probe = dv_saturating_probe(SIGMA_Z)
        for n_list in ([1, bad], [bad, 5, 3], [4, 2, bad, 7]):
            with pytest.raises(ValidationError) as ours:
                dv_bound_check(SIGMA_X, SIGMA_Z, n_list, 0.3, probe)
            with pytest.raises(ValidationError) as ref:
                per_row_dv_bound_check(SIGMA_X, SIGMA_Z, n_list, 0.3, probe)
            assert str(ours.value) == str(ref.value)

    def test_entries_validated_before_any_row(self):
        # N = 2 at g_bar = 1e308 overflows, but the entry 0 after it is
        # reported first: every entry is checked before anything is computed
        probe = dv_saturating_probe(SIGMA_Z)
        with pytest.raises(ValidationError, match="entries must be >= 1"):
            dv_bound_check(SIGMA_X, SIGMA_Z, [2, 0], 1e308, probe)

    @pytest.mark.parametrize("n_list, named", [
        ([1, 2, 3], "(N = 2, g_bar = 1e+308)"),
        ([3, 2, 1], "(N = 3, g_bar = 1e+308)"),
        ([1, 10**400], f"(N = {10**400}, g_bar = 1e+308)"),
    ], ids=["ascending", "descending", "beyond-float"])
    def test_overflowing_evolution_time_rejected(self, n_list, named):
        # N = 2 once gave a row of nan, and an N too large for a float an
        # OverflowError
        probe = dv_saturating_probe(SIGMA_Z)
        with pytest.raises(ValidationError, match=re.escape(
                f"evolution time overflows: N*g_bar*max|w| is not finite {named}")):
            dv_bound_check(SIGMA_X, SIGMA_Z, n_list, 1e308, probe)

    @pytest.mark.parametrize("n", [10**200, 2 * 10**154], ids=["mean-squared", "bound"])
    def test_overflowing_qfi_rejected(self, n):
        # N = 10^200 overflows mean^2, N = 2 10^154 the int-times-float bound;
        # both once raised a bare OverflowError
        probe = dv_saturating_probe(SIGMA_Z)
        with pytest.raises(ValidationError, match=re.escape(
                f"QFI overflows: 4 Var[h] or its bound N^2 spread^2 is not finite (N = {n})")):
            dv_bound_check(SIGMA_X, SIGMA_Z, [1, n], 0.0, probe)

    def test_largest_finite_qfi_keeps_its_row(self):
        probe = dv_saturating_probe(SIGMA_Z)
        n_list = [3, 10**150]
        got = dv_bound_check(SIGMA_X, SIGMA_Z, n_list, 0.0, probe)
        assert repr(got) == repr(per_row_dv_bound_check(SIGMA_X, SIGMA_Z, n_list, 0.0, probe))


class TestStackedRows:
    """A scan's rows take their overlaps, top amplitudes and Bloch vectors as
    stacked dot products; every row keeps the per-row reference's value,
    trust flag and error text."""

    def _rows(self, protocol, ns, dim, step, retries):
        got = [_exact(lambda: fock._results([outcome])[0])[0]
               for outcome in fock._qfi_rows(protocol, ns, dim, step, retries)]
        want = []
        for n in ns:
            row = EncodingProtocol(protocol.h_lambda, protocol.h_g, n, protocol.lambda_bar,
                                   protocol.g_bar, protocol.probe)
            want.append(_exact(lambda: per_row_qfi(row, dim, step, retries))[0])
        return got, want

    def test_parity_blind_rows(self):
        # X^2 | P^2 on the vacuum at an even dim: every row is untrusted
        x2, p2 = X * X, P * P
        for dim in (40, 80):
            protocol = EncodingProtocol(h_lambda=p2, h_g=x2, n_applications=1, lambda_bar=0.1,
                                        g_bar=0.1)
            got, want = self._rows(protocol, list(range(1, 13)), dim, 1e-4, 1)
            assert got == want
            assert all("trusted=False" in row for row in got if isinstance(row, str))
            assert any(isinstance(row, str) for row in got)

    def test_mixed_outcomes_keep_their_texts(self):
        # one stack of trusted, untrusted, diverging, edge-leaking and
        # auxiliary-leaking rows, without a retry
        protocol = build_preset("squeeze-inf", 1, 0.1, 0.05, ProbeDescriptor.coherent(0.3))
        got, want = self._rows(protocol, list(range(1, 13)), 24, 0.05, 0)
        assert got == want
        kinds = {outcome.trusted if isinstance(outcome, fock.QfiEstimate) else str(outcome)[:23]
                 for outcome in fock._qfi_rows(protocol, list(range(1, 13)), 24, 0.05, 0)}
        assert kinds == {True, False, "finite-difference passe", "qfi_numeric (scan edge)",
                         "qfi_numeric (auxiliary "}


class TestOverflowOutcomes:
    def test_nan_population_is_leakage(self):
        # a nan amplitude once passed the leakage check
        with pytest.raises(LeakageError, match="population nan exceeds"):
            fock._check_leakage(complex(math.nan, 0.0), "test")

    def test_nan_disagreement_is_a_convergence_error(self):
        # a nan pass disagreement once passed the 5% check, untrusted
        with pytest.raises(ConvergenceError, match="disagree by nan%"):
            fock._richardson_qfi(math.nan, math.nan, 1e-4, 80, "test")

    @pytest.mark.parametrize("alpha", [1e200, 1e154, complex(1e308, 1e308), 40.0])
    def test_overflowing_amplitude_is_all_zero(self, alpha):
        # |alpha|^2 overflowing once raised a bare OverflowError; at 40 the
        # amplitudes underflow to zero
        with pytest.raises(ValidationError, match="probe amplitudes are all zero"):
            prepare_probe(ProbeDescriptor.coherent(alpha), 80)

    @pytest.mark.parametrize("r", [800.0, -800.0, 1e300])
    def test_overflowing_squeezing_is_all_zero(self, r):
        # cosh(r) overflowing once raised a bare OverflowError
        with pytest.raises(ValidationError, match="probe amplitudes are all zero"):
            prepare_probe(ProbeDescriptor.squeezed_vacuum(r), 40)

    @pytest.mark.parametrize("aux", [1e308, 1e307])
    def test_overflowing_auxiliary_time_rejected(self, aux):
        # N*g_bar*max|w| with max|w| ~ 13.5 for X^2 at dim 80: once nan, at exit 0
        protocol = build_preset("shear-k1", 2, 0.1, aux)
        with pytest.raises(ValidationError, match=re.escape(
                f"N*g_bar*max|w| is not finite (N = 2, g_bar = {aux!r})")):
            qfi_numeric(protocol)

    @pytest.mark.parametrize("mode", SWITCH_MODES)
    def test_overflowing_switch_time_rejected(self, mode):
        with pytest.raises(ValidationError, match=re.escape(
                "N*p*max|w| is not finite (N = 3, p = 1e+308)")):
            switch_qfi(3, 0.1, 1e308, dim=40, mode=mode)

    def test_overflowing_lambda_time_rejected(self):
        # N times the scan edge lambda_bar + step once gave a nan population
        protocol = build_preset("xp-constant", 3, 1e308, 0.1)
        with pytest.raises(ValidationError, match=re.escape(
                "N*lambda*max|w| is not finite (N = 3, lambda = 1.000001e+308)")):
            qfi_numeric(protocol, dim=8, step=1e302)

    @pytest.mark.parametrize("mode", SWITCH_MODES)
    def test_overflowing_switch_x_time_rejected(self, mode):
        # the edge x - step is the largest |x|; once a nan population
        with pytest.raises(ValidationError, match=re.escape(
                "N*x*max|w| is not finite (N = 2, x = 1.00001e+308)")):
            switch_qfi(2, -1e308, 0.2, dim=8, step=1e303, mode=mode)
        with pytest.raises(ValidationError, match=re.escape(
                "N*x*max|w| is not finite (N = 2, x = 1e+308)")):
            switch_protocol(2, 1e308, 0.2, prepare_probe(ProbeDescriptor.vacuum(), 8))
