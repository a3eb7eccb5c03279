"""Scans and scaling fits."""

import math
from decimal import Decimal, localcontext

import pytest

from ncmetro import (
    ProbeDescriptor,
    ValidationError,
    gaussian_probe,
    generators,
    qfi_linear_generator,
)
from ncmetro.experiments import (
    example1_scan,
    example1_scaling,
    fig2a_scan,
    fig2b_scan,
    fig3_scan,
    fit_loglog_slope,
    squeeze_rate_fit,
    switch_scaling,
    switch_scan,
)
from ncmetro.ladder import classify_pair
from ncmetro.protocols import PRESETS, build_preset


class TestFitLogLog:
    def test_exact_square_law(self):
        points = [(x, x**2) for x in (1.0, 2.0, 3.0, 4.0)]
        fit = fit_loglog_slope(points)
        assert fit.slope == pytest.approx(2.0, abs=1e-14)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-14)

    def test_prefactor_lands_in_intercept(self):
        points = [(x, 5.0 * x**4) for x in (1.0, 2.0, 4.0, 8.0)]
        fit = fit_loglog_slope(points)
        assert fit.slope == pytest.approx(4.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([(1.0, 1.0), (2.0, 4.0)])
        with pytest.raises(ValidationError):
            fit_loglog_slope([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)])


class TestFig2a:
    def test_known_value(self):
        scan = fig2a_scan([1], [10])
        assert scan.rows[0]["logcoef_K1"] == pytest.approx(4.0, abs=1e-12)

    def test_heisenberg_line(self):
        scan = fig2a_scan([0], [3, 7, 19])
        for row in scan.rows:
            assert row["logcoef_K0"] == pytest.approx(
                2.0 * math.log10(row["N"]), abs=1e-12
            )

    def test_slopes_are_exact(self):
        scan = fig2a_scan([1, 4, 6], range(2, 21))
        for k in (1, 4, 6):
            points = [(math.log10(r["N"]), r[f"logcoef_K{k}"]) for r in scan.rows]
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            xm = sum(xs) / len(xs)
            ym = sum(ys) / len(ys)
            slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum(
                (x - xm) ** 2 for x in xs
            )
            assert slope == pytest.approx(2.0 * (1 + k), abs=1e-12)


class TestFig2b:
    def test_argmax_annotations(self):
        scan = fig2b_scan([6, 10, 16, 20], 24)
        assert scan.metadata["k_peak"] == {
            "N6": [5, 6],
            "N10": [9, 10],
            "N16": [15, 16],
            "N20": [19, 20],
        }

    def test_columns_are_unimodal(self):
        scan = fig2b_scan([6, 20], 24)
        for n in (6, 20):
            values = [row[f"logcoef_N{n}"] for row in scan.rows]
            diffs = [b - a for a, b in zip(values, values[1:])]
            sign_changes = sum(
                1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
            )
            assert sign_changes <= 1
            assert max(values) == values[n - 1] or max(values) == values[n]

    def test_kmax_validation(self):
        with pytest.raises(ValidationError):
            fig2b_scan([6], 6)


class TestFig3:
    def test_ratio_column_formula(self):
        scan = fig3_scan(range(1, 9), xi_bar=0.1, include_fock=False)
        for row in scan.rows:
            expected = 1.0 / (1.0 + math.exp(-4 * row["N"] * 0.1))
            assert row["ratio_cfi_qfi"] == pytest.approx(expected, rel=1e-12)

    def test_ratio_near_unity_past_threshold(self):
        scan = fig3_scan(range(10, 16), xi_bar=0.1, include_fock=False)
        for row in scan.rows:
            if row["N"] * 0.1 >= 1.0:
                assert row["ratio_cfi_qfi"] >= 0.98

    def test_gaussian_matches_closed_form(self):
        scan = fig3_scan(range(1, 13), xi_bar=0.1, include_fock=False)
        for row in scan.rows:
            assert row["qfi_gaussian"] == pytest.approx(
                row["qfi_closed_form"], rel=1e-12
            )

    def test_fock_column_trusted_at_small_n(self):
        scan = fig3_scan([1, 3, 5], xi_bar=0.1, dim=80)
        for row in scan.rows:
            assert row["fock_trusted"] == 1
            assert row["qfi_fock"] == pytest.approx(row["qfi_closed_form"], rel=0.01)

    def test_log_qfi_growth_model(self):
        # log10 F = 2 log10 N + 2 N xi log10(e) + const at large N xi
        xi = 0.4
        scan = fig3_scan(range(6, 13), xi_bar=xi, include_fock=False)
        residuals = [
            math.log10(row["qfi_gaussian"])
            - 2.0 * math.log10(row["N"])
            - 2.0 * row["N"] * xi * math.log10(math.e)
            for row in scan.rows
        ]
        assert max(residuals) - min(residuals) < 1e-3

    def test_validation(self):
        with pytest.raises(ValidationError):
            fig3_scan([1, 2], xi_bar=0.0)

    def test_closed_form_overflow_names_its_argument(self):
        # cosh(2 N xi_bar) = cosh(1000) overflows; the generator's own
        # sinh/cosh argument, N xi_bar = 500, does not
        with pytest.raises(ValidationError, match=r"cosh\(2\*N\*xi_bar\) with N = 5000"):
            fig3_scan([5000], xi_bar=0.1, include_fock=False)


class TestExample1:
    def test_super_heisenberg_slope(self):
        fit = example1_scaling(range(8, 65), s_bar=0.2)
        assert fit.slope == pytest.approx(4.0, abs=0.05)

    def test_heisenberg_control(self):
        fit = example1_scaling(range(8, 65), s_bar=0.0)
        assert fit.slope == pytest.approx(2.0, abs=0.01)

    def test_constant_commutator_definite_order(self):
        fit = example1_scaling(range(8, 65), s_bar=0.3, preset="xp-constant")
        assert fit.slope == pytest.approx(2.0, abs=0.01)

    def test_scan_rows_match_variance_formula(self):
        scan = example1_scan([2, 5], s_bar=0.1)
        for row in scan.rows:
            n = row["N"]
            assert row["qfi"] == pytest.approx(
                2 * n**2 + 8 * n**4 * 0.01, rel=1e-12
            )


class TestSwitchScaling:
    def test_control_channel_slope_four(self):
        fit = switch_scaling(range(1, 7), 0.1, 0.2, dim=40, mode="control")
        assert fit.slope == pytest.approx(4.0, abs=0.1)

    def test_definite_order_slope_two(self):
        fit = switch_scaling(range(1, 7), 0.1, 0.2, dim=40, mode="definite")
        assert fit.slope == pytest.approx(2.0, abs=0.1)

    def test_commuting_case_joint_slope_two(self):
        # p = 0 removes the order dependence entirely
        fit = switch_scaling(range(1, 7), 0.1, 0.0, dim=40, mode="joint")
        assert fit.slope == pytest.approx(2.0, abs=0.01)

    def test_scan_rows_trusted(self):
        scan = switch_scan(range(1, 4), 0.1, 0.2, dim=40, mode="control")
        assert all(row["trusted"] == 1 for row in scan.rows)


class TestSqueezeRate:
    def test_rate_matches_two_xi(self):
        for xi in (0.2, 0.3, 0.5):
            fit = squeeze_rate_fit(range(4, 13), xi)
            assert fit.slope == pytest.approx(2.0 * xi, rel=0.02)

    def test_small_xi_window_is_biased(self):
        # documents why the acceptance run uses N*xi >= ~1
        fit = squeeze_rate_fit(range(4, 13), 0.1)
        assert abs(fit.slope - 0.2) / 0.2 > 0.05


NAN, INF = math.nan, math.inf


class TestNonFiniteScalars:
    # scans once returned rows of nan for these; the CLI rejected them at
    # parse time, the library did not
    @pytest.mark.parametrize("kwargs, name", [
        ({"x": NAN}, "x"),
        ({"p_val": INF}, "p"),
        ({"step": NAN}, "step"),
    ])
    def test_switch_scan(self, kwargs, name):
        args = {"x": 0.1, "p_val": 0.2, "dim": 40, **kwargs}
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            switch_scan([1, 2], **args)

    @pytest.mark.parametrize("kwargs, message", [
        ({"xi_bar": NAN}, "xi_bar must be positive"),
        ({"xi_bar": INF}, "g_bar must be finite"),
        ({"alpha": complex(NAN, 0.0)}, "alpha must be finite"),
        ({"theta": INF}, "theta must be finite"),
        ({"x_bar": NAN}, "lambda_bar must be finite"),
        ({"step": NAN, "dim": 40}, "step must be finite"),
    ])
    def test_fig3_scan(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            fig3_scan([1, 2], **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"s_bar": NAN}, "g_bar must be finite"),
        ({"s_bar": 0.2, "x_bar": -INF}, "lambda_bar must be finite"),
    ])
    def test_example1_scan(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            example1_scan([1, 2, 3], **kwargs)


def test_only_fig2b_records_metadata():
    # nothing prints a scan's parameters back; fig2b's peak set is printed
    assert fig2a_scan([1], [1, 2]).metadata == {}
    assert fig3_scan([1, 2], xi_bar=0.1, dim=40).metadata == {}
    assert example1_scan([1, 2], s_bar=0.2).metadata == {}
    assert switch_scan([1, 2], 0.1, 0.2, dim=40).metadata == {}
    assert fig2b_scan([2], 3).metadata == {"k_peak": {"N2": [1, 2]}}


class TestDeterminism:
    def test_scans_are_reproducible(self):
        a = fig3_scan(range(1, 6), xi_bar=0.1, dim=80)
        b = fig3_scan(range(1, 6), xi_bar=0.1, dim=80)
        assert a.rows == b.rows
        assert a.metadata == b.metadata


@pytest.mark.parametrize("scan", [
    lambda: fig2a_scan([1], []),
    lambda: fig2b_scan([], 5),
    lambda: fig3_scan([], xi_bar=0.1),
    lambda: example1_scan([], s_bar=0.2),
    lambda: switch_scan([], 0.1, 0.2),
], ids=["fig2a", "fig2b", "fig3", "example1", "switch"])
def test_empty_n_list_is_rejected(scan):
    # fig2b once raised a bare ValueError from max(), the others returned
    # scans with no rows
    with pytest.raises(ValidationError, match="N values must not be empty"):
        scan()


def _exact_qfi(preset: str, n: int, aux: float) -> Decimal:
    """The QFI of a preset's generator on a Gaussian probe of unit-vacuum
    covariance, at 50 digits of the float inputs: 2 N^2 (1 + 4 N^2 s^2)
    for the shear, 2 N^2 for the displacement pair and 2 N^2 cosh(2 N xi)
    for the squeezer."""
    with localcontext() as ctx:
        ctx.prec = 50
        n, aux = Decimal(n), Decimal(aux)
        if preset == "shear-k1":
            return 2 * n * n * (1 + 4 * n * n * aux * aux)
        if preset == "xp-constant":
            return 2 * n * n
        grow = (2 * n * aux).exp()
        return n * n * (grow + 1 / grow)


def _rel_error(value: float, exact: Decimal) -> float:
    return float(abs(Decimal(value) - exact) / exact)


class TestScansClassifyOnce:
    """example1 and fig3 classify their pair once per scan and read its
    parts once, then build each N's generator terms with a single query's
    floats; each row is the exact QFI to 1e-13."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_example1_rows_match_per_row_generators(self, preset):
        # the worst error is 1.8e-15, as for the per-N generators this scan
        # once built (the finite towers' rows keep their floats): the
        # rounding of N s_bar
        probe = ProbeDescriptor.coherent(0.2 - 0.1j)
        for s_bar in (0.0, 0.13, 0.3):
            scan = example1_scan(range(8, 40), s_bar, probe=probe, preset=preset, x_bar=0.1)
            assert [row["N"] for row in scan.rows] == list(range(8, 40))
            for row in scan.rows:
                exact = _exact_qfi(preset, row["N"], s_bar)
                assert _rel_error(row["qfi"], exact) <= 1e-13, (preset, s_bar, row["N"])

    def test_fig3_gaussian_column_matches_per_row_generators(self):
        # the worst error is 8.4e-16, against 6.1e-16 for the per-N
        # generators this scan once built: both are the rounding of N xi_bar
        for xi_bar, alpha in ((0.1, 0.3), (0.27, -0.4 + 0.2j)):
            scan = fig3_scan(range(1, 13), xi_bar=xi_bar, alpha=alpha, include_fock=False)
            for row in scan.rows:
                exact = _exact_qfi("squeeze-inf", row["N"], xi_bar)
                assert _rel_error(row["qfi_gaussian"], exact) <= 1e-13, (xi_bar, row["N"])

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_scan_rows_equal_single_queries(self, preset):
        # a scan row is the float of a single qfi query on the protocol at its N
        probe = ProbeDescriptor.coherent(0.2 - 0.1j)
        scan = example1_scan(range(8, 30), 0.13, probe=probe, preset=preset)
        for row in scan.rows:
            protocol = build_preset(preset, row["N"], 0.1, 0.13, probe)
            gen = generators.local_generator(protocol).generator
            assert row["qfi"] == qfi_linear_generator(gaussian_probe(probe), gen), row["N"]

    def test_fig3_prints_every_cfi_below_its_qfi(self):
        # at xi = 0.5 the CFI of N = 10..12 once exceeded the QFI by up to
        # 1.4e-7, and at xi >= 1.5 most CFI cells were blank: the squeezed
        # axis's variance was a difference of terms of size e^(4 N xi).
        # Where e^(-4 N xi) is below the rounding, CFI and QFI agree to it.
        for tenths in range(2, 31):
            xi = tenths / 10
            for row in fig3_scan(range(1, 13), xi_bar=xi, include_fock=False).rows:
                n, cfi, qfi = row["N"], row["cfi"], row["qfi_gaussian"]
                with localcontext() as ctx:
                    ctx.prec = 50
                    exact = n * n * (2 * n * Decimal(xi)).exp()
                assert cfi is not None and _rel_error(cfi, exact) <= 1e-12, (xi, n)
                assert cfi <= qfi and row["ratio_cfi_qfi"] <= 1.0, (xi, n)
                if math.exp(-4.0 * n * xi) > 1e-14:
                    assert cfi < qfi and row["ratio_cfi_qfi"] < 1.0, (xi, n)

    @pytest.mark.parametrize("xi", [340.0, 350.0, 354.0])
    def test_fig3_prints_the_cfi_where_its_variance_is_tiny(self, xi):
        # the homodyne variance e^(-2 N xi) / 2 is below 1e-300 but positive,
        # and the QFI is finite, so the CFI is printed (held at the QFI)
        row, = fig3_scan([1], xi_bar=xi, include_fock=False).rows
        assert row["cfi"] == row["qfi_gaussian"] and row["ratio_cfi_qfi"] == 1.0

    @pytest.mark.parametrize("scan", [
        lambda: example1_scan(range(8, 20), s_bar=0.2),
        lambda: example1_scan(range(8, 20), s_bar=0.2, preset="squeeze-inf"),
        lambda: fig3_scan(range(1, 7), xi_bar=0.1, dim=40),
    ], ids=["example1", "example1-closed", "fig3"])
    def test_pair_classified_once_per_scan(self, scan, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return classify_pair(*args, **kwargs)

        monkeypatch.setattr(generators, "classify_pair", counting)
        scan()
        assert len(calls) == 1
