"""Envelope serialization, CLI parsing/validation, exit codes, determinism."""

import csv
import dataclasses
import importlib.util
import io
import json
import math
import random
import re
import shlex
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmetro import ValidationError, cli, fock, ladder
from ncmetro.cli import main, parse_angle, parse_config, parse_int_list, run_config
from ncmetro.io import ResultEnvelope, emit, from_json, to_csv, to_json
from helpers import ORACLE_POOL, POINT_POOL, TOWER_POOL


class TestParsers:
    def test_angles(self):
        assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
        assert parse_angle("-3*pi/2") == pytest.approx(-3 * math.pi / 2)
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("0.5") == 0.5
        with pytest.raises(ValidationError):
            parse_angle("tau/4")
        for text in ("pi/0", "pi/0.0"):
            with pytest.raises(ValidationError):
                parse_angle(text)

    @pytest.mark.parametrize("text", ["pi/0", "pi/0.0"])
    def test_angle_dividing_by_zero_exits_2(self, text, capsys):
        assert main(["fig3", "--theta", text]) == 2
        assert f"invalid angle value: '{text}'" in capsys.readouterr().err

    def test_int_lists(self):
        assert parse_int_list("5") == [5]
        assert parse_int_list("1..4") == [1, 2, 3, 4]
        assert parse_int_list("8,16,32") == [8, 16, 32]
        with pytest.raises(ValidationError):
            parse_int_list("4..1")
        with pytest.raises(ValidationError):
            parse_int_list("abc")
        for text, repeated in (("1,1", 1), ("6,6", 6), ("8,16,8", 8), ("3, 3", 3)):
            with pytest.raises(ValidationError, match=f"repeats {repeated}"):
                parse_int_list(text)


class TestParseConfig:
    def test_classify_inline_pair(self):
        cfg = parse_config(["classify", "--g", "X^2", "--h", "P"])
        assert cfg.command == "classify"
        assert cfg.g_expr == "X^2" and cfg.h_expr == "P"

    def test_fig3_spec_invocation(self):
        cfg = parse_config(
            ["fig3", "--alpha", "0.3", "--xi", "0.1", "--theta", "pi/4", "--N", "1..12"]
        )
        assert cfg.alpha == 0.3 + 0j
        assert cfg.xi_bar == 0.1
        assert cfg.theta == pytest.approx(math.pi / 4)
        assert cfg.n_list == list(range(1, 13))

    def test_switch_spec_invocation(self):
        cfg = parse_config(
            ["switch", "--x", "0.1", "--p", "0.2", "--N", "1..6", "--dim", "80"]
        )
        assert (cfg.x, cfg.p, cfg.dim) == (0.1, 0.2, 80)
        assert cfg.n_list == list(range(1, 7))

    def test_unknown_command_and_flags(self):
        with pytest.raises(ValidationError):
            parse_config(["transmogrify"])
        with pytest.raises(ValidationError):
            parse_config(["classify", "--preset", "shear-k1", "--frobnicate", "1"])
        with pytest.raises(ValidationError):
            parse_config(["classify", "--preset", "no-such-preset"])

    def test_pair_requirements(self, capsys):
        # checked when the command runs, not by the parser
        assert main(["classify"]) == 2
        assert main(["classify", "--g", "X^2"]) == 2
        assert main(["classify", "--preset", "shear-k1", "--g", "X"]) == 2
        assert "error" in capsys.readouterr().err

    def test_numeric_preconditions(self, capsys):
        # single-flag constraints fail at parse time
        with pytest.raises(ValidationError):
            parse_config(["qfi", "--preset", "shear-k1", "--N", "0"])
        with pytest.raises(ValidationError):
            parse_config(["qfi", "--preset", "shear-k1", "--dim", "4"])
        with pytest.raises(ValidationError):
            parse_config(["qfi", "--preset", "shear-k1", "--step", "-1"])
        # the library's own checks reject the rest when the command runs
        assert main(["classify", "--preset", "shear-k1", "--cap", "1"]) == 2
        assert main(["fig3", "--xi", "-0.1"]) == 2
        assert main(["qfi", "--preset", "shear-k1", "--nu", "0"]) == 2
        assert main(["fig2b", "--N", "6,10", "--kmax", "7"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("qfi --preset shear-k1 --N 3 --engine both", "--aux", "nan"),
        ("qfi --preset shear-k1 --N 3", "--aux", "1e400"),
        ("qfi --preset shear-k1", "--lam", "inf"),
        ("qfi --preset shear-k1", "--alpha", "nan+1j"),
        ("qfi --preset shear-k1 --engine fock", "--step", "inf"),
        ("generator --preset shear-k1", "--aux", "nan"),
        ("example1", "--s", "nan"),
        ("fig3", "--xi", "inf"),
        ("fig3", "--alpha", "nan"),
        ("fig3", "--theta", "inf"),
        ("switch", "--x", "nan"),
        ("switch", "--p", "inf"),
        ("dvbound", "--gbar", "nan"),
    ])
    def test_non_finite_numbers_rejected(self, command, flag, value, capsys):
        # these once printed rows missing a term or full of nan, or raised
        # ZeroDivisionError / OverflowError
        assert main(command.split() + [flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and "must be finite" in err

    def test_non_finite_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = nan\n")
        assert main(["fig3", "--config", str(cfg)]) == 2
        assert "--xi" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, attr, expected", [
        (["fig3", "--theta", "-pi/4"], "theta", -math.pi / 4),
        (["fig3", "--lam", "-1e-3"], "lambda_bar", -1e-3),
        (["fig3", "--alpha", "-0.3j"], "alpha", -0.3j),
        (["classify", "--g", "X^2", "--h", "-P"], "h_expr", "-P"),
    ])
    def test_negative_values_are_not_flags(self, argv, attr, expected):
        # argparse takes a '-'-prefixed token for a flag unless it looks like
        # a plain negative number; these once exited 2 with "expected one
        # argument"
        assert getattr(parse_config(argv), attr) == expected

    def test_flag_after_flag_is_still_missing_its_value(self, tmp_path):
        with pytest.raises(ValidationError, match="--g: expected one argument"):
            parse_config(["classify", "--g", "--h", "P"])
        config = tmp_path / "angle.cfg"
        config.write_text("theta = -3*pi/2\n")
        assert parse_config(["fig3", "--config", str(config)]).theta == -1.5 * math.pi

    def test_config_file_and_precedence(self, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text("# fig3 parameters\nxi = 0.25\nN = 1..4\nalpha = 0.3\n")
        cfg = parse_config(["fig3", "--config", str(config)])
        assert cfg.xi_bar == 0.25
        assert cfg.n_list == [1, 2, 3, 4]
        # explicit flag wins over the file
        cfg = parse_config(["fig3", "--config", str(config), "--xi", "0.5"])
        assert cfg.xi_bar == 0.5

    def test_config_file_unknown_key(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("frobnicate = 1\n")
        with pytest.raises(ValidationError):
            parse_config(["fig3", "--config", str(config)])

    def test_repeated_config_file_rejected(self, tmp_path, capsys):
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("xi = 0.25\n")
        second.write_text("xi = 0.5\n")
        argv = ["fig3", "--N", "1", "--config", str(first), "--config", str(second)]
        with pytest.raises(ValidationError, match="--config"):
            parse_config(argv)
        assert main(argv) == 2
        assert "--config" in capsys.readouterr().err

    def test_config_spellings(self, tmp_path, capsys):
        config = tmp_path / "scan.cfg"
        config.write_text("xi = 0.25\n")
        cfg = parse_config(["fig3", "--N", "1", f"--config={config}"])
        assert cfg.xi_bar == 0.25 and not hasattr(cfg, "config")
        for argv in (
            ["fig3", "--N", "1", "--conf", str(config)],
            ["fig3", "--N", "1", f"--conf={config}"],
            ["fig3", "--N", "1", f"--config={config}", "--config", str(config)],
            ["fig3", "--N", "1", "--config=/nonexistent/scan.cfg"],
        ):
            with pytest.raises(ValidationError):
                parse_config(argv)
            assert main(argv) == 2
        nested = tmp_path / "nested.cfg"
        nested.write_text(f"config = {config}\n")
        assert main(["fig3", "--N", "1", "--config", str(nested)]) == 2
        assert "error" in capsys.readouterr().err

    def test_expression_error_carries_position(self):
        from ncmetro import ExpressionError

        with pytest.raises(ExpressionError) as excinfo:
            run_config(parse_config(["classify", "--g", "X^2 +", "--h", "P"]))
        assert excinfo.value.position == 5

    def test_scalar_commands_take_single_n(self):
        with pytest.raises(ValidationError):
            parse_config(["generator", "--preset", "shear-k1", "--N", "1..4"])


class TestEnvelopes:
    def make_envelope(self):
        return ResultEnvelope(
            command="fig2b",
            config={"n_list": [6, 10, 16, 20], "k_max": 24},
            columns=["K", "logcoef_N6", "logcoef_N10", "logcoef_N16", "logcoef_N20"],
            rows=[[0, 1.5563025007672873, 2.0, 2.4082399653118496, 2.6020599913279625]],
            value={"k_peak": {"N6": [5, 6]}},
            trust={},
            duration_s=0.01,
            timestamp="2026-08-08T00:00:00+00:00",
        )

    def test_csv_header_matches_columns(self):
        text = to_csv(self.make_envelope())
        assert text.splitlines()[0] == "K,logcoef_N6,logcoef_N10,logcoef_N16,logcoef_N20"

    def test_csv_17_digit_floats(self):
        env = self.make_envelope()
        line = to_csv(env).splitlines()[1]
        assert line.split(",")[1] == format(1.5563025007672873, ".17g")
        assert float(line.split(",")[1]) == 1.5563025007672873

    def test_empty_rows_header_only(self):
        env = self.make_envelope()
        env.rows = []
        assert to_csv(env) == "K,logcoef_N6,logcoef_N10,logcoef_N16,logcoef_N20\n"

    def test_none_cells_serialize_empty(self):
        env = self.make_envelope()
        env.rows = [[1, None, 2.0, None, 3.0]]
        assert to_csv(env).splitlines()[1] == "1,,2,,3"

    def test_json_matches_deep_copied_envelope(self):
        # to_json serialises the fields as they are; asdict deep-copies them
        envelope = ResultEnvelope(
            command="classify",
            config={"g_expr": "X^2", "alpha": [0.3, -0.0], "nested": {"b": [1, {"c": None}]}},
            columns=["kind", "closure_p"],
            rows=[["finite", None], ["closed_infinite", 4.000000000000001]],
            value={"tower": ["P", "(1.4142135623730951*i)*ad"], "constant_value": [0.0, 1.0]},
            trust={"3": 1, "dim_used": 160},
            duration_s=0.25,
            timestamp="2026-01-01T00:00:00+00:00",
        )
        expected = json.dumps(dataclasses.asdict(envelope), indent=2, sort_keys=True) + "\n"
        assert to_json(envelope) == expected

    def test_json_round_trip(self):
        env = self.make_envelope()
        assert from_json(to_json(env)) == env

    def test_from_json_requires_every_field(self):
        data = json.loads(to_json(self.make_envelope()))
        for name in data:
            partial = {key: value for key, value in data.items() if key != name}
            with pytest.raises(KeyError, match=name):
                from_json(json.dumps(partial))

    def test_emit_writes_file(self, tmp_path):
        env = self.make_envelope()
        out = tmp_path / "result.csv"
        text = emit(env, "csv", out)
        assert out.read_text() == text
        with pytest.raises(ValidationError):
            emit(env, "yaml")

    def test_emit_path_error_has_context(self, tmp_path):
        env = self.make_envelope()
        with pytest.raises(ValidationError) as excinfo:
            emit(env, "csv", tmp_path / "missing" / "result.csv")
        assert "result.csv" in str(excinfo.value)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(-(10**9), 10**9),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
            ),
            min_size=3,
            max_size=3,
        ),
        max_size=6,
    )
)
def test_json_round_trip_property(rows):
    env = ResultEnvelope(
        command="fig2a",
        config={"seedless": True},
        columns=["a", "b", "c"],
        rows=rows,
        value=None,
        trust={},
        duration_s=0.0,
        timestamp="t",
    )
    assert from_json(to_json(env)) == env


class TestMain:
    def test_classify_stdout(self, capsys):
        code = main(["classify", "--g", "X^2", "--h", "P"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "kind,nilpotency_index,constant_re,constant_im,closure_p"
        assert out.splitlines()[1].startswith("finite,1")

    def test_classify_json_payload(self, capsys):
        code = main(["classify", "--preset", "squeeze-inf", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"]["kind"] == "closed_infinite"
        assert data["value"]["closure_p"] == pytest.approx(4.0, abs=1e-10)

    def test_generator_command(self, capsys):
        code = main(
            ["generator", "--preset", "shear-k1", "--N", "2", "--aux", "0.1",
             "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        # N P - 2 N^2 s X = 2P - 0.8X
        coeffs = {(m, n): complex(re, im) for m, n, re, im in data["rows"]}
        expected_ad = -0.8 / math.sqrt(2) + 1j * 2 / math.sqrt(2)
        assert coeffs[(1, 0)] == pytest.approx(expected_ad, abs=1e-12)

    def test_qfi_both_engines(self, capsys):
        code = main(
            ["qfi", "--preset", "squeeze-inf", "--N", "3", "--aux", "0.1",
             "--alpha", "0.3", "--engine", "both", "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"]["gaussian"] == pytest.approx(
            2 * 9 * math.cosh(0.6), rel=1e-10
        )
        assert data["value"]["fock"] == pytest.approx(data["value"]["gaussian"], rel=0.01)

    def test_qfi_both_engines_quadratic_generator(self, capsys):
        # the Gaussian engine does not apply; the Fock row is still printed
        code = main(
            ["qfi", "--g", "X^2", "--h", "P^2", "--N", "2", "--aux", "0.1",
             "--engine", "both", "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [row[0] for row in data["rows"]] == ["fock"]
        assert set(data["value"]) == {"fock"}
        # parity keeps level 79 empty, so the leakage check cannot vouch for it
        assert data["rows"][0][3] == 0
        assert main(["qfi", "--g", "X^2", "--h", "P^2", "--N", "2", "--aux", "0.1",
                     "--engine", "gaussian"]) == 2

    def test_fig2b_csv_columns(self, capsys):
        code = main(["fig2b", "--N", "6,10,16,20", "--kmax", "24"])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "K,logcoef_N6,logcoef_N10,logcoef_N16,logcoef_N20"

    def test_validation_exit_code(self, capsys):
        assert main(["fig3", "--xi", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, overflowed",
        [
            (["qfi", "--preset", "shear-k1", "--N", "3", "--aux", "1e300"],
             "Gaussian QFI is inf"),
            (["qfi", "--preset", "shear-k1", "--N", "3", "--aux", "1e300", "--format", "json"],
             "Gaussian QFI is inf"),
            (["example1", "--preset", "shear-k1", "--N", "8..10", "--s", "1e300"],
             "Gaussian QFI is inf"),
            (["qfi", "--preset", "squeeze-inf", "--N", "100000", "--aux", "0.1"],
             "N*g_bar*sqrt(p) = 10000.0"),
            (["generator", "--preset", "squeeze-inf", "--N", "100000", "--aux", "0.1"],
             "N*g_bar*sqrt(p) = 10000.0"),
            (["example1", "--preset", "squeeze-inf", "--N", "8..10", "--s", "400"],
             "N*g_bar*sqrt(p) = 3200.0"),
            (["fig3", "--N", "5000", "--xi", "0.1", "--dim", "8"], "cosh(2*N*xi_bar)"),
        ],
    )
    def test_overflow_exit_code(self, argv, overflowed, capsys):
        # these once printed inf (trusted, RMSE 0) or ended in an OverflowError
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and overflowed in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["generator", "--preset", "shear-k1", "--N", "10", "--aux", "1e308"],
             "(N = 10, g_bar = 1e+308)"),
            (["qfi", "--preset", "shear-k1", "--N", "10", "--aux", "1e308"],
             "(N = 10, g_bar = 1e+308)"),
            (["generator", "--g", "X^3", "--h", "P", "--N", "1000", "--aux", "1e306"],
             "(N = 1000, g_bar = 1e+306)"),
            (["example1", "--preset", "shear-k1", "--N", "8..10", "--s", "1e307"],
             "(N = 8, g_bar = 1e+307)"),
            (["generator", "--preset", "squeeze-inf", "--N", "1000000", "--aux", "0.0007"],
             "(N = 1000000, g_bar = 0.00035, p = 4.0)"),
            (["qfi", "--preset", "squeeze-inf", "--N", "1000000", "--aux", "0.0007"],
             "(N = 1000000, g_bar = 0.00035, p = 4.0)"),
            # N (i N g_bar) is finite, its product with the 1.5 of 3i X^2 is not
            (["generator", "--g", "X^3", "--h", "P", "--N", "1", "--aux", "1.7e308"],
             "(N = 1, g_bar = 1.7e+308)"),
        ],
    )
    def test_generator_overflow_names_n_and_g_bar(self, argv, named, capsys):
        # the first three once ended in an OverflowError traceback, the others
        # named only a polynomial term
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert "generator overflows" in err and named in err

    @pytest.mark.parametrize("argv, cause", [
        (["generator", "--g", "X^3", "--h", "P", "--N", "1000", "--aux", "1e306"],
         "series generator overflows: N (i N g_bar)^k / k! is not finite for k <= 1"),
        # N (i N g_bar) = 1.7e308 i is finite; its product with the 1.5 of
        # 3i X^2 is not
        (["generator", "--g", "X^3", "--h", "P", "--N", "1", "--aux", "1.7e308"],
         "series generator overflows: N (i N g_bar)^k / k! times a tower coefficient "
         "is not finite for k <= 1"),
        # N sinh(709.76) / sqrt(p) is finite; its product with [g, h] is not
        (["generator", "--g", "2*ad^2 + 2*a^2", "--h", "3*X", "--N", "1", "--aux", "177.44"],
         "closed-form generator overflows: sinh/cosh of N*g_bar*sqrt(p) = 709.76 times "
         "a tower coefficient (N = 1"),
    ], ids=["series-scalar", "series-product", "closed-product"])
    def test_generator_overflow_names_its_cause(self, argv, cause, capsys):
        # the last two once blamed the scalar, which is finite
        assert main(argv) == 2
        assert cause in capsys.readouterr().err

    def test_fig2b_kmax_zero_is_not_the_default(self, capsys):
        # --kmax 0 once read as "not given" and printed K = 0..10
        assert main(["fig2b", "--N", "6", "--kmax", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "k_max must be at least max(N) + 1" in err
        assert main(["fig2b", "--N", "6", "--kmax", "12", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["k_max"] == 12
        assert main(["fig2b", "--N", "6", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["k_max"] == 10

    @pytest.mark.parametrize(
        "argv",
        [["fig2a", "--K", "1,1"], ["fig2b", "--N", "6,6"], ["dvbound", "--N", "1,1"]],
    )
    def test_repeated_list_value_exits_2(self, argv, capsys):
        # once a repeated CSV column, a merged k_peak and a repeated row
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, reason",
        [(["fig2a", "--K", "1,1"], "repeats 1"),
         (["fig3", "--N", "1..x"], "cannot parse integer list"),
         (["fig3", "--theta", "pi/0"], "divides by zero")],
    )
    def test_parse_error_keeps_library_message(self, argv, reason, capsys):
        # argparse once replaced the library's text by its own
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid " in err and reason in err

    @pytest.mark.parametrize(
        "preset, g_expr, h_expr",
        [("shear-k1", "X^2", "P"), ("xp-constant", "X", "P"),
         ("squeeze-inf", "ad^2 + a^2", "P")],
    )
    def test_classify_preset_matches_inline_pair(self, preset, g_expr, h_expr, capsys):
        for fmt in ("csv", "json"):
            assert main(["classify", "--preset", preset, "--format", fmt]) == 0
            by_preset = capsys.readouterr().out
            assert main(["classify", "--g", g_expr, "--h", h_expr, "--format", fmt]) == 0
            inline = capsys.readouterr().out
            if fmt == "csv":
                assert by_preset == inline
            else:
                assert json.loads(by_preset)["value"] == json.loads(inline)["value"]

    @pytest.mark.parametrize("argv", [
        ["fig3", "--N", "1..2", "--step", "1e-300"],
        ["switch", "--N", "1..3", "--x", "0.1", "--p", "0.2", "--step", "1e-15",
         "--mode", "definite"],
        ["qfi", "--preset", "squeeze-inf", "--N", "3", "--aux", "0.1", "--lam", "0.1",
         "--engine", "fock", "--step", "1e-14"],
    ], ids=["fig3", "switch", "qfi"])
    def test_step_too_small_to_move_the_parameter_exits_2(self, argv, capsys):
        # once printed trusted finite-difference QFIs at exit 0: 0 (exact
        # 2.04 and 8.65) for fig3, 18.377 (exact 18) at N = 3 for switch,
        # 21.2703 (exact 21.3384) for qfi; the derivative is now exact, and
        # such a step would leave the leakage window's edges at x0
        assert main(argv) == 2
        out, err = capsys.readouterr()
        step = argv[argv.index("--step") + 1]
        assert out == "" and err.startswith(f"error: step {step} is too small")

    def test_fig3_resolves_every_cfi(self, capsys):
        # --xi 1 was once refused as a whole, as "covariance violates the
        # uncertainty relation", which it does not; --xi 0.9 printed a CFI of
        # 5.8e25 at N = 11, where N^2 e^{2 N xi} is 4.8e10; --xi 0.6 printed
        # N = 12's CFI 3% off; later all of these rows left their CFI and
        # ratio cells empty, and --xi 0.5 printed N = 12's CFI 1.4e-7 above
        # its QFI.  The squeezed axis's variance is now e^(-2 N xi) / 2
        # itself, never a difference of terms of size e^(2 N xi).
        for xi in ("1", "0.9", "0.6", "0.5"):
            assert main(["fig3", "--N", "10..12", "--xi", xi, "--dim", "40"]) == 0
            out, err = capsys.readouterr()
            rows = list(csv.DictReader(io.StringIO(out)))
            assert [int(row["N"]) for row in rows] == [10, 11, 12] and err == ""
            for row in rows:
                n, x = int(row["N"]), float(xi)
                assert float(row["qfi_closed_form"]) == pytest.approx(
                    2 * n * n * math.cosh(2 * n * x), rel=1e-12)
                assert float(row["cfi"]) == pytest.approx(n * n * math.exp(2 * n * x), rel=1e-12)
                assert float(row["ratio_cfi_qfi"]) == pytest.approx(
                    1.0 / (1.0 + math.exp(-4 * n * x)), rel=1e-12)
                assert float(row["cfi"]) <= float(row["qfi_gaussian"])

    def test_numerical_trust_exit_code(self, capsys):
        # N=14 squeezing cannot fit in dim 8 even after one doubling
        code = main(
            ["qfi", "--preset", "squeeze-inf", "--N", "14", "--aux", "0.4",
             "--engine", "fock", "--dim", "8"]
        )
        assert code == 3
        assert "numerical-trust" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = ["fig3", "--N", "1..6", "--xi", "0.1", "--dim", "80"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_dvbound_command(self, capsys):
        code = main(["dvbound", "--pair", "qutrit", "--N", "1..10", "--gbar", "0.5",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"]["spectral_spread"] == pytest.approx(2.0)
        assert data["value"]["max_ratio"] <= 1.0 + 1e-12

    def test_switch_command_fit(self, capsys):
        code = main(["switch", "--x", "0.1", "--p", "0.2", "--N", "1..4",
                     "--dim", "40", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"]["fit"]["slope"] == pytest.approx(4.0, abs=0.1)

    def test_switch_control_mode_needs_only_p(self, capsys):
        # x = 0 is a valid point of the control channel: QFI = N^4 p^2
        code = main(["switch", "--x", "0", "--p", "0.2", "--N", "1..4",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        qfi = [row[1] for row in data["rows"]]
        assert qfi == pytest.approx([n**4 * 0.04 for n in range(1, 5)], rel=1e-6)
        # with p = 0 the control qubit carries no information
        assert main(["switch", "--x", "0.1", "--p", "0", "--N", "1..4"]) == 2

    @pytest.mark.parametrize("argv", [
        ["switch", "--N", "1,2", "--x", "0.1", "--p", "0.2"],
        ["example1", "--N", "8,16"],
    ], ids=["switch", "example1"])
    def test_short_scan_prints_its_rows(self, argv, capsys):
        # two N values are too few for the log-log fit, which only JSON prints
        ns = argv[2].split(",")
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and [row[0] for row in csv.reader(io.StringIO(out))][1:] == ns
        assert main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == {"fit": None}
        assert [row[0] for row in data["rows"]] == [int(n) for n in ns]

    @pytest.mark.parametrize("argv, named", [
        (["qfi", "--preset", "shear-k1", "--N", "2", "--aux", "1e308", "--engine", "fock"],
         "N*g_bar*max|w| is not finite (N = 2, g_bar = 1e+308)"),
        *((["switch", "--N", "1..3", "--x", "0.1", "--p", "1e308", "--mode", mode],
           "N*p*max|w| is not finite (N = 1, p = 1e+308)") for mode in fock.SWITCH_MODES),
        *((["dvbound", "--N", "1..3", "--gbar", "1e308", "--pair", pair],
           "N*g_bar*max|w| is not finite (N = 2, g_bar = 1e+308)") for pair in ("qubit", "qutrit")),
    ], ids=["qfi", *(f"switch-{mode}" for mode in fock.SWITCH_MODES), "dvbound-qubit",
            "dvbound-qutrit"])
    def test_overflowing_evolution_time_exits_2(self, argv, named, capsys):
        # these once printed nan at exit 0, with a numpy RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: evolution time overflows: {named}\n")

    @pytest.mark.parametrize("argv, named", [
        (["switch", "--N", "1000000000000", "--x", "1e300", "--step", "1e300", "--p", "0.2",
          "--dim", "8"], "N*x*max|w| is not finite (N = 1000000000000, x = 2e+300)"),
        (["switch", "--N", "2", "--x", "1e308", "--step", "1e303", "--p", "0.2", "--mode",
          "definite", "--dim", "8"], "N*x*max|w| is not finite (N = 2, x = 1.00001e+308)"),
        (["qfi", "--preset", "xp-constant", "--N", "3", "--lam", "1e308", "--step", "1e302",
          "--engine", "fock"], "N*lambda*max|w| is not finite (N = 3, lambda = 1.000001e+308)"),
    ], ids=["switch-control", "switch-definite", "qfi"])
    def test_overflowing_scan_edge_time_exits_2(self, argv, named, capsys):
        # the largest time is N times the scan edge x +- step (or lambda +-
        # step); these once printed a numpy RuntimeWarning, then a nan
        # population at exit 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: evolution time overflows: {named}\n")

    @pytest.mark.parametrize("n", [10**200, 2 * 10**154], ids=["mean-squared", "bound"])
    def test_dvbound_overflowing_qfi_exits_2(self, n, capsys):
        # mean^2 (N = 10^200) or N^2 spread^2 (N = 2 10^154) once ended in an
        # OverflowError traceback (exit 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["dvbound", "--N", f"3,{n}", "--gbar", "0"]) == 2
        assert capsys.readouterr() == ("", "error: QFI overflows: 4 Var[h] or its bound "
                                           f"N^2 spread^2 is not finite (N = {n})\n")

    @pytest.mark.parametrize("argv", [
        ["fig3", "--N", "1..2", "--alpha", "1e200"],
        ["qfi", "--preset", "shear-k1", "--N", "2", "--alpha", "1e200", "--engine", "fock"],
        ["qfi", "--preset", "shear-k1", "--N", "2", "--alpha", "40", "--engine", "fock"],
    ], ids=["fig3", "qfi", "qfi-underflow"])
    def test_overflowing_amplitude_exits_2(self, argv, capsys):
        # |alpha|^2 = 1e400 once ended in an OverflowError traceback (exit 1);
        # alpha = 40 underflows to the same all-zero probe
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: probe amplitudes are all zero\n")

    @pytest.mark.parametrize("argv, message", [
        (["switch", "--N", f"1,50,{10**33}", "--x", "0.1", "--p", "0.2", "--mode", mode],
         "numerical-trust failure: switch_protocol: top-level population 3.760e-03 exceeds "
         "1e-08; increase the truncation dimension") for mode in fock.SWITCH_MODES
    ] + [
        (["fig3", "--N", "1,30,10000000000", "--xi", "0.1", "--dim", "80"],
         "error: closed-form QFI overflows: cosh(2*N*xi_bar) with N = 10000000000, xi_bar = 0.1"),
        (["fig3", "--N", "1,30", "--xi", "0.1", "--dim", "80", "--step", "1e-12"],
         "error: step 1e-12 is too small: its half must be at least 1.49e-08 "
         "(sqrt(eps) * max(1, |x0|) at x0 = 0.1)"),
    ], ids=[f"switch-{mode}" for mode in fock.SWITCH_MODES] + ["fig3-closed-form", "fig3-step"])
    def test_first_failing_row_decides_the_scan_error(self, argv, message, capsys):
        # the N = 50 switch row leaks before N = 10^33 is reached; fig3's
        # leaking N = 30 row keeps empty Fock cells and the overflowing
        # closed form of N = 10^10 ends the scan; a refused step ends it at
        # its first row; and no row past the failing one warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == (3 if argv[0] == "switch" else 2)
        assert capsys.readouterr() == ("", message + "\n")

    def test_dvbound_n_beyond_int64(self, capsys):
        # an N above 2^63 keeps its row, in the parser's ascending order
        assert main(["dvbound", "--N", "3,100000000000000000000,7"]) == 0
        assert capsys.readouterr() == (
            "N,qfi,bound,ratio\n"
            "3,8.9999999999999911,9,0.999999999999999\n"
            "7,48.999999999999957,49,0.99999999999999911\n"
            "100000000000000000000,9.9999999999999882e+39,1e+40,0.99999999999999878\n", "")

    def test_dimension_too_large_to_allocate_exits_2(self, capsys):
        # 10^13 levels: the first probe vector (146 TiB) exceeds a 128 TiB
        # address space, so it is refused at once whatever the overcommit policy
        argv = ["qfi", "--preset", "shear-k1", "--engine", "fock", "--dim", str(10**13)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Unable to allocate 146. TiB")


def _cache_commands():
    """Seeded classify, qfi, generator and example1 commands over the presets,
    X^2 | P^2 and a signed-zero twin of X^2 | P, in CSV and JSON."""
    rng = random.Random(23)
    pairs = [["--preset", name] for name in ("squeeze-inf", "shear-k1", "xp-constant")]
    pairs += [["--g", "X^2", "--h", "P^2"], ["--g", "X^2", "--h", "P"],
              ["--g", "X^2", "--h", "-(-1*P)"]]
    commands = []
    for pair in pairs:
        for fmt in ("csv", "json"):
            commands.append(["classify", *pair, "--cap", str(rng.choice((8, 32))),
                             "--format", fmt])
            for command in ("generator", "qfi", "qfi"):
                commands.append([command, *pair, "--N", str(rng.randint(1, 12)),
                                 "--aux", str(round(rng.uniform(0.01, 0.3), 3)),
                                 "--format", fmt])
        commands.append(["qfi", *pair, "--N", str(rng.randint(1, 4)), "--aux", "0.05",
                         "--alpha", "0.3", "--engine", "both", "--format", "json"])
    for preset in ("shear-k1", "squeeze-inf", "xp-constant"):
        commands.append(["example1", "--preset", preset, "--N", "2..6",
                         "--s", str(round(rng.uniform(0.01, 0.2), 3))])
    return commands


class TestCacheIdentity:
    def test_cold_and_warm_output_identical(self, capsys):
        # every process-wide cache cleared before each command, then one warm
        # process in shuffled order (twice): same exit codes, stderr and stdout
        # but for the timing fields of the JSON envelope
        def run(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            return code, re.sub(r'"(duration_s|timestamp)": .*', "", out), err

        commands = _cache_commands()
        cold = []
        for argv in commands:
            fock._cached_evolver.cache_clear()
            fock._cached_probe.cache_clear()
            ladder._reports.cache_clear()
            cold.append(run(argv))
        assert {code for code, _, _ in cold} == {0, 2}
        order = list(range(len(commands))) * 2
        random.Random(29).shuffle(order)
        for i in order:
            assert run(commands[i]) == cold[i], commands[i]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the README heading."""
    text = README.read_text()
    section = text[text.index(f"## {heading}\n"):]
    start = section.index(f"```{language}\n") + len(language) + 4
    return section[start:section.index("```", start)]


class TestReadme:
    def test_command_line_examples_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # fig2a --out writes here
        lines = [line for line in _readme_block("Command line", "bash").splitlines()
                 if line.startswith("ncmetro ")]
        assert len(lines) >= 10
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line
            capsys.readouterr()
        assert (tmp_path / "coef_vs_n.csv").exists()

    def test_library_quick_tour_runs(self):
        tour = {}
        exec(compile(_readme_block("Library quick tour", "python"), "README", "exec"), tour)
        # the claims in the tour's comments
        assert (tour["pair"].kind, tour["pair"].closure_p) == ("closed_infinite", 4.0)
        numeric = tour["nc"].qfi_numeric(tour["proto"], dim=80).value
        assert numeric == pytest.approx(tour["qfi"], rel=1e-9)


#: Help, no-command, unknown-command and parse-error command lines.
_HELP_AND_ERRORS = [
    [], ["--help"], ["-h"], ["nosuch"], ["qfi", "--help"], ["classify", "-h"],
    ["switch", "--help"], ["qfi", "--preset", "shear-k1", "--bogus", "1"],
    ["qfi", "--preset"], ["fig2a", "--K", "1,1"], ["qfi", "--preset", "nosuch"],
    ["--format", "json", "qfi", "--preset", "shear-k1"],
    ["qfi", "--preset", "shear-k1", "--conf", "x"], ["qfi", "--preset", "shear-k1", "extra"],
    ["classify", "--g", "X", "--h", "P", "--cap", "x"], ["generator", "--config"],
]


def _pool_and_readme_commands():
    lines = [line for line in _readme_block("Command line", "bash").splitlines()
             if line.startswith("ncmetro ")]
    return ([list(argv) for argv, *_ in TOWER_POOL + ORACLE_POOL + POINT_POOL]
            + [shlex.split(line)[1:] for line in lines])


def test_top_level_help_is_for_users(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for command in cli._COMMANDS:
        assert command in text
    for note in ("--preset", "1..12", "pi/4", "--config", "Exit codes: 0 success, 2 validation "
                 "error, 3 numerical-trust failure"):
        assert note in text
    for internal in ("_COMMANDS", "_pair", "subparser"):
        assert internal not in text


class TestCommandDispatch:
    """A command line that starts with a command's name is parsed by that
    command's subparser alone; it must read exactly as the full parser
    reads it."""

    @pytest.mark.parametrize("argv", _pool_and_readme_commands(), ids=" ".join)
    def test_namespace_is_the_full_parsers(self, argv):
        assert parse_config(argv) == cli._PARSER.parse_args(cli._join_negative_values(argv))

    def test_a_command_line_skips_the_outer_parser(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("outer parser used")

        monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
        ns = parse_config(["qfi", "--preset", "shear-k1", "--lam", "-0.5"])
        assert (ns.command, ns.preset, ns.lambda_bar) == ("qfi", "shear-k1", -0.5)

    @pytest.mark.parametrize("argv", _HELP_AND_ERRORS, ids=" ".join)
    def test_help_and_errors_read_as_through_the_full_parser(self, argv, monkeypatch, capsys):
        def run():
            try:
                code = main(list(argv))
            except SystemExit as exc:  # --help exits from argparse
                code = ("exit", exc.code)
            out, err = capsys.readouterr()
            return code, out, err

        dispatched = run()
        monkeypatch.setattr(cli, "_SUBPARSERS", {})
        assert dispatched == run()
        assert dispatched[0] in (2, ("exit", 0))


class TestBenchmarkSpans:
    def test_every_traced_name_exists(self, monkeypatch):
        # the benchmark's tracer wraps these names; one that is renamed away
        # would only show as a missing span in a benchmark record
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        monkeypatch.setattr("sys.dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.Tracer().missing == []
