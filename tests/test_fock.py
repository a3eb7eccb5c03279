"""Truncated-Fock oracle: matrices, evolution, QFI, switch, DV bound."""

import math
import sys
import threading

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
    constant_commutator_protocol,
    dv_bound_check,
    dv_saturating_probe,
    evolve_unitary,
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
from ncmetro import fock
from ncmetro.errors import NumericalTrustError
from ncmetro.experiments import fig3_scan, switch_scan
from ncmetro.fock import SWITCH_MODES, HermitianEvolver
from ncmetro.protocols import build_preset

from helpers import (
    eigh_evolution,
    full_vector_qfi,
    full_vector_switch_qfi,
    power_chain_matrix,
    random_hermitian_polynomial,
    recurrence_probe,
)

X = position_op()
P = momentum_op()

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex) / 2.0
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex) / 2.0
SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2.0)
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)


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
        out = evolve_unitary(vac, matrix_of(P, dim), x)
        target = prepare_probe(ProbeDescriptor.coherent(x / math.sqrt(2.0)), dim)
        overlap = abs(np.vdot(target.amplitudes, out.amplitudes))
        assert overlap > 1.0 - 1e-8

    def test_zero_time_is_identity(self):
        probe = prepare_probe(ProbeDescriptor.coherent(0.4), 40)
        out = evolve_unitary(probe, matrix_of(X, 40), 0.0)
        assert np.allclose(out.amplitudes, probe.amplitudes)

    def test_squeeze_variances_on_diagonal_axes(self):
        dim, xi = 60, 0.1
        vac = prepare_probe(ProbeDescriptor.vacuum(), dim)
        h = matrix_of(ladder_term(2, 0) + ladder_term(0, 2), dim)
        out = evolve_unitary(vac, h, xi / 2.0)
        x = matrix_of(X, dim).matrix
        p = matrix_of(P, dim).matrix
        for sign in (+1.0, -1.0):
            q = (x + sign * p) / math.sqrt(2.0)
            vec = q @ out.amplitudes
            var = float(np.vdot(vec, vec).real) - float(
                np.vdot(out.amplitudes, vec).real
            ) ** 2
            assert var == pytest.approx(math.exp(-2 * sign * xi) / 2.0, abs=1e-6)

    def test_non_hermitian_rejected(self):
        probe = prepare_probe(ProbeDescriptor.vacuum(), 16)
        bad = MatrixOperator(dim=16, matrix=np.triu(np.ones((16, 16), complex)))
        with pytest.raises(ValidationError):
            evolve_unitary(probe, bad, 0.1)

    def test_leakage_detected(self):
        probe = prepare_probe(ProbeDescriptor.vacuum(), 12)
        with pytest.raises(LeakageError):
            evolve_unitary(probe, matrix_of(P, 12), 6.0)


class TestPrepareProbe:
    def test_coherent_norm_and_leakage(self):
        probe = prepare_probe(ProbeDescriptor.coherent(0.3), 80)
        assert np.linalg.norm(probe.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert probe.top_level_population < 1e-8

    def test_squeezed_amplitude_ratio(self):
        r, phi = 0.4, 0.3
        probe = prepare_probe(ProbeDescriptor.squeezed_vacuum(r, phi), 80)
        ratio = probe.amplitudes[2] / probe.amplitudes[0]
        expected = -np.exp(2j * phi) * math.tanh(r) / math.sqrt(2.0)
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert abs(probe.amplitudes[1]) == 0.0

    def test_fock_vector_embedding(self):
        probe = prepare_probe(ProbeDescriptor.fock_vector([0.0, 1.0]), 16)
        assert probe.amplitudes[1] == pytest.approx(1.0)

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
                    got = prepare_probe(probe, dim).amplitudes
                    np.testing.assert_allclose(got, ref / norm, rtol=1e-13, atol=1e-300)


class TestQfiNumeric:
    def test_single_displacement_on_vacuum(self):
        protocol = constant_commutator_protocol(1, 0.2, 0.0)
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
        assert np.allclose(switch_protocol(3, 0.0, 0.2, probe).reduced_control(), plus)
        assert np.allclose(switch_protocol(3, 0.2, 0.0, probe).reduced_control(), plus)

    def test_branch_phase_weyl_relation(self):
        probe = prepare_probe(ProbeDescriptor.vacuum(), 80)
        for n in range(1, 7):
            z = branch_phase_overlap(n, 0.1, 0.2, probe)
            expected = np.exp(-1j * n**2 * 0.1 * 0.2)
            assert abs(z - expected) < 1e-6

    def test_reduced_control_is_pure_phase(self):
        probe = prepare_probe(ProbeDescriptor.vacuum(), 60)
        state = switch_protocol(2, 0.1, 0.2, probe)
        rho = state.reduced_control()
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
            for poly, real_path in families:
                matrix = matrix_of(poly, dim).matrix
                reference = eigh_evolution(matrix)
                scale = max(float(np.abs(np.linalg.eigvalsh(matrix)).max()), 1.0)
                for evolver in (HermitianEvolver(matrix), fock._evolver(poly, dim)):
                    if real_path is not None:
                        assert evolver._real is real_path, (poly, dim)
                    for tau in (0.7, -3.1):
                        t = tau / scale
                        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                        vec /= np.linalg.norm(vec)
                        assert np.abs(evolver.apply(t, vec) - reference(t) @ vec).max() <= 1e-12
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
def eigh_sizes(monkeypatch):
    """Dimension of every ``np.linalg.eigh`` call made during the test."""
    sizes = []
    eigh = np.linalg.eigh

    def counting_eigh(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return sizes


class TestEvolverReuse:
    def test_one_eigh_per_generator_and_dim(self, eigh_sizes):
        sizes = eigh_sizes
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
        assert twin._eigvecs is shared._eigvecs
        assert len(sizes) == 2
        for array in (shared._eigvals, shared._eigvecs, twin._gauge):
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
    return [(key[1], value[0]._eigvecs.nbytes) for key, (value, _) in cache._entries.items()]


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
        budget = 200_000
        cache = fock._cached_evolver
        monkeypatch.setattr(cache, "budget", budget)
        cache.cache_clear()
        dims = [40, 50, 60, 70, 80, 40, 90]  # 8 dim^2 bytes each: 12800 ... 64800
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
                    calls.append((i, fock._evolver(*keys[i])._eigvecs))

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
        monkeypatch.setattr(cache, "budget", 8 * 30**2 * 6)  # evicts under contention
        hammer()
        assert cache.held == sum(size for _, size in _held(cache))
        assert cache.held <= cache.budget or len(cache._entries) == cache.floor

    def test_scans_keep_their_reuse_under_a_tiny_budget(self, monkeypatch, eigh_sizes):
        sizes = eigh_sizes
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

    def test_empty_n_list_rejected(self):
        # an empty list once gave a report whose max_ratio raised ValueError
        probe = dv_saturating_probe(SIGMA_Z)
        with pytest.raises(ValidationError, match="n_list"):
            dv_bound_check(SIGMA_X, SIGMA_Z, [], 0.1, probe)

    @pytest.mark.parametrize("g_bar", [math.nan, math.inf])
    def test_non_finite_auxiliary_rejected(self, g_bar):
        # a nan g_bar once gave DvBoundRow(qfi=nan, bound=1.0)
        probe = dv_saturating_probe(SIGMA_Z)
        with pytest.raises(ValidationError, match="g_bar must be finite"):
            dv_bound_check(SIGMA_X, SIGMA_Z, [1, 2], g_bar, probe)
