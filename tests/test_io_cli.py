"""Envelope serialization, CLI parsing/validation, exit codes, determinism."""

import dataclasses
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmetro import ValidationError, fock, ladder
from ncmetro.cli import main, parse_angle, parse_config, parse_int_list, run_config
from ncmetro.io import ResultEnvelope, emit, from_json, to_csv, to_json


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
            trust={"3": 1, "rel_disagreement": 3.4457e-9},
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
            ladder._reports.cache_clear()
            cold.append(run(argv))
        assert {code for code, _, _ in cold} == {0, 2}
        order = list(range(len(commands))) * 2
        random.Random(29).shuffle(order)
        for i in order:
            assert run(commands[i]) == cold[i], commands[i]
