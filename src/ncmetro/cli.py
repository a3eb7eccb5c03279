"""Command-line entry point.

Subcommands: classify, generator, qfi, fig2a, fig2b, fig3, example1,
switch, dvbound.  Operator pairs come either from a named preset
(``--preset shear-k1|xp-constant|squeeze-inf``) or from inline expressions
(``--g "X^2" --h "P"``).  Angles accept rational multiples of pi
(``pi/4``, ``-3*pi/2``) as well as plain floats; N accepts a single value,
a range ``1..12``, or a comma list ``8,16,32``.  A value may start with
``-`` (``--theta -pi/4``); only a token that is itself a flag reads as one.

A ``--config FILE`` (or ``--config=FILE``), given at most once, may hold
``key = value`` lines mirroring the long flags; explicit command-line flags
win.  Flags are never abbreviated.  Exit codes:
0 success, 2 validation error, 3 numerical-trust failure.

Each command is one entry of ``_COMMANDS`` (help text, flags, runner); the
parser is built once from that table.  Parsing rejects unknown flags and
malformed single values: N lists (N >= 1; one N for ``generator``/``qfi``),
``--dim`` >= 8, ``--step`` > 0, angles and complex numbers, and every float,
complex or angle that is not finite.  When the command runs, ``_pair``
checks the preset-or-expressions rule and the library checks the rest
(``--cap``, ``--xi``, ``--nu``, ``--K``, ``--kmax``, expression syntax).
``--engine both`` prints every engine that applies.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import experiments, io
from .errors import NcmetroError, NotGaussianError, NumericalTrustError, ValidationError
from .expressions import format_polynomial, parse_operator
from .fock import (
    DEFAULT_DIM, DEFAULT_STEP, SWITCH_MODES, dv_bound_check, dv_saturating_probe,
    qfi_numeric,
)
from .gaussian import gaussian_probe, qfi_linear_generator
from .generators import local_generator, qcrb_rmse
from .ladder import DEFAULT_ADJOINT_CAP, classify_pair
from .protocols import PRESETS, EncodingProtocol, ProbeDescriptor, build_preset

_PI_RE = re.compile(r"^(-?)(?:(\d+(?:\.\d*)?)\*?)?pi(?:/(\d+(?:\.\d*)?))?$")


def parse_angle(text: str) -> float:
    """Parse 'pi/4', '-3*pi/2', or a plain float literal."""
    text = text.strip()
    match = _PI_RE.match(text)
    if match:
        sign = -1.0 if match.group(1) else 1.0
        num = float(match.group(2)) if match.group(2) else 1.0
        den = float(match.group(3)) if match.group(3) else 1.0
        if den == 0.0:
            raise ValidationError(f"angle {text!r} divides by zero")
        return sign * num * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"cannot parse angle {text!r}") from None


def parse_int_list(text: str) -> list[int]:
    """Parse '5', '1..12', or '8,16,32' into a sorted list of ints."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        if "," in text:
            return sorted(int(part) for part in text.split(","))
        return [int(text)]
    except ValueError:
        raise ValidationError(f"cannot parse integer list {text!r}") from None


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ValidationError(f"cannot parse complex number {text!r}") from None


def _flag_type(name: str, parse, check=None, constraint: str = ""):
    """argparse ``type=``: a ValueError from ``parse`` reads "invalid <name>
    value", a float or complex value that is not finite reads "must be
    finite", a value failing ``check`` reads ``constraint``; all name the flag."""

    def convert(text: str):
        value = parse(text)
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if check is not None and not check(value):
            raise argparse.ArgumentTypeError(f"{constraint}, got {text!r}")
        return value

    convert.__name__ = name
    return convert


_N_LIST = _flag_type("N list", parse_int_list, lambda v: min(v) >= 1,
                     "N values must be at least 1")
_ONE_N = _flag_type("N list", parse_int_list, lambda v: len(v) == 1 and v[0] >= 1,
                    "takes a single N value of at least 1")
_K_LIST = _flag_type("K list", parse_int_list)
_DIM = _flag_type("int", int, lambda d: d >= 8, "must be at least 8")
_FLOAT = _flag_type("float", float)
_STEP = _flag_type("float", float, lambda s: s > 0, "must be positive")
_ANGLE = _flag_type("angle", parse_angle)
_COMPLEX = _flag_type("complex", parse_complex)


# -- the command table: name -> (help text, flag specs, runner) -------------

#: Runners return (columns, rows, value, trust) or (scan, value, trust), any
#: tail omitted; :func:`run_config` wraps that in the envelope.
_COMMANDS: dict = {}


def _command(name: str, help_text: str, *flags):
    def register(run):
        _COMMANDS[name] = (help_text, flags, run)
        return run

    return register


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return names, kwargs


def _n_flag(default: str):
    return _flag("--N", dest="n_list", type=_N_LIST, default=default,
                 help="N value/range/list")


_PAIR = (
    _flag("--preset", choices=sorted(PRESETS)),
    _flag("--g", dest="g_expr", help="inline H_g expression"),
    _flag("--h", dest="h_expr", help="inline H_lambda expression"),
)
_PROTOCOL = _PAIR + (
    _flag("--N", dest="n_list", type=_ONE_N, default="1", help="N value"),
    _flag("--lam", dest="lambda_bar", type=_FLOAT, default=0.1, help="target parameter"),
    _flag("--aux", "--s", "--xi", "--gbar", dest="aux", type=_FLOAT, default=0.1,
          help="auxiliary strength (s_bar / xi_bar / g_bar per preset)"),
    _flag("--alpha", type=_COMPLEX, default="0", help="coherent probe amplitude"),
)
_DIM_STEP = (
    _flag("--dim", type=_DIM, default=DEFAULT_DIM),
    _flag("--step", type=_STEP, default=DEFAULT_STEP),
)
_COMMON = (
    # consumed by parse_config before parsing; listed here for --help
    _flag("--config", default=argparse.SUPPRESS,
          help="key = value file mirroring the flags"),
    _flag("--out", help="output file path"),
    _flag("--format", choices=io.FORMATS, default="csv"),
)


def _pair(ns: argparse.Namespace):
    """Require exactly one of --preset and the --g/--h pair; return the parsed
    inline pair (H_g, H_lambda), or None for a preset."""
    if ns.preset is not None and (ns.g_expr or ns.h_expr):
        raise ValidationError("give either --preset or inline expressions, not both")
    if ns.preset is not None:
        return None
    if not (ns.g_expr and ns.h_expr):
        raise ValidationError(
            f"{ns.command} needs --preset or both --g and --h expressions")
    return parse_operator(ns.g_expr), parse_operator(ns.h_expr)


def _protocol(ns: argparse.Namespace) -> EncodingProtocol:
    pair = _pair(ns)
    n = ns.n_list[0]
    probe = ProbeDescriptor.coherent(ns.alpha) if ns.alpha else ProbeDescriptor.vacuum()
    if pair is None:
        return build_preset(ns.preset, n, ns.lambda_bar, ns.aux, probe)
    h_g, h_lambda = pair
    return EncodingProtocol(h_lambda=h_lambda, h_g=h_g, n_applications=n,
                            lambda_bar=ns.lambda_bar, g_bar=ns.aux, probe=probe)


@_command("classify", "classify an operator pair", *_PAIR,
          _flag("--cap", type=int, default=DEFAULT_ADJOINT_CAP))
def _run_classify(ns):
    pair = _pair(ns)
    if pair is None:
        preset = build_preset(ns.preset, 1, 0.0, 0.0)
        pair = preset.h_g, preset.h_lambda
    report = classify_pair(*pair, cap=ns.cap)
    constant = report.constant_value
    parts = None if constant is None else [constant.real, constant.imag]
    value = {
        "kind": report.kind,
        "nilpotency_index": report.nilpotency_index,
        "constant_value": parts,
        "closure_p": report.closure_p,
        "cap": report.cap,
        # only JSON prints the tower; CSV would format every level for nothing
        "tower": ([format_polynomial(entry) for entry in report.tower]
                  if ns.format == "json" else None),
    }
    columns = ["kind", "nilpotency_index", "constant_re", "constant_im", "closure_p"]
    rows = [[report.kind, report.nilpotency_index, *(parts or [None, None]),
             report.closure_p]]
    return columns, rows, value


@_command("generator", "local generator of a protocol", *_PROTOCOL)
def _run_generator(ns):
    result = local_generator(_protocol(ns))
    terms = sorted(result.generator.terms.items())
    columns = ["m", "n", "coeff_re", "coeff_im"]
    rows = [[m, n, c.real, c.imag] for (m, n), c in terms]
    value = {"generator": format_polynomial(result.generator),
             "truncation_used": result.truncation_used, "closed_form": result.closed_form}
    return columns, rows, value


@_command("qfi", "QFI of a protocol", *_PROTOCOL, *_DIM_STEP,
          _flag("--engine", choices=("gaussian", "fock", "both"), default="gaussian"),
          _flag("--nu", type=int, default=1, help="QCRB repetition count"))
def _run_qfi(ns):
    protocol = _protocol(ns)
    rows, trust = [], {}
    if ns.engine in ("gaussian", "both"):
        gen = local_generator(protocol).generator
        try:
            qfi = qfi_linear_generator(gaussian_probe(protocol.probe), gen)
        except NotGaussianError:
            if ns.engine == "gaussian":
                raise
        else:
            rows.append(["gaussian", qfi, qcrb_rmse(qfi, ns.nu), 1])
    if ns.engine in ("fock", "both"):
        estimate = qfi_numeric(protocol, dim=ns.dim, step=ns.step)
        rows.append(["fock", estimate.value, qcrb_rmse(estimate.value, ns.nu),
                     1 if estimate.trusted else 0])
        trust = {"rel_disagreement": estimate.rel_disagreement, "dim_used": estimate.dim}
    columns = ["engine", "qfi", "rmse_qcrb", "trusted"]
    return columns, rows, {row[0]: row[1] for row in rows}, trust


@_command("fig2a", "leading-coefficient scan over N",
          _flag("--K", dest="k_list", type=_K_LIST, default="1,4,6"), _n_flag("1..20"))
def _run_fig2a(ns):
    return (experiments.fig2a_scan(ns.k_list, ns.n_list),)


@_command("fig2b", "leading-coefficient scan over K", _n_flag("6,10,16,20"),
          _flag("--kmax", dest="k_max", type=int, default=0, help="default: max(N) + 4"))
def _run_fig2b(ns):
    ns.k_max = ns.k_max or max(ns.n_list) + 4
    scan = experiments.fig2b_scan(ns.n_list, ns.k_max)
    return scan, {"k_peak": scan.metadata["k_peak"]}


@_command("fig3", "squeeze-protocol QFI/CFI scan", _n_flag("1..12"),
          _flag("--xi", dest="xi_bar", type=_FLOAT, default=0.1),
          _flag("--alpha", type=_COMPLEX, default="0.3"),
          _flag("--theta", type=_ANGLE, default="pi/4"),
          _flag("--lam", dest="lambda_bar", type=_FLOAT, default=0.1), *_DIM_STEP)
def _run_fig3(ns):
    scan = experiments.fig3_scan(
        ns.n_list, xi_bar=ns.xi_bar, alpha=ns.alpha, theta=ns.theta, x_bar=ns.lambda_bar,
        dim=ns.dim, step=ns.step)
    return scan, None, {str(row["N"]): row["fock_trusted"] for row in scan.rows}


def _with_fit(scan: experiments.ScanResult):
    fit = experiments.fit_loglog_slope([(r["N"], r["qfi"]) for r in scan.rows])
    return scan, {"fit": {"slope": fit.slope, "intercept": fit.intercept,
                          "r_squared": fit.r_squared, "window": list(fit.window)}}


@_command("example1", "finite-index scaling fit", _n_flag("8..64"),
          _flag("--s", dest="aux", type=_FLOAT, default=0.2),
          _flag("--preset", choices=sorted(PRESETS), default="shear-k1"),
          _flag("--lam", dest="lambda_bar", type=_FLOAT, default=0.1))
def _run_example1(ns):
    return _with_fit(experiments.example1_scan(
        ns.n_list, ns.aux, preset=ns.preset, x_bar=ns.lambda_bar))


@_command("switch", "two-order superposition scaling fit", _n_flag("1..6"),
          _flag("--x", type=_FLOAT, default=0.1), _flag("--p", type=_FLOAT, default=0.2),
          *_DIM_STEP,
          _flag("--mode", choices=SWITCH_MODES, default="control"))
def _run_switch(ns):
    # the control qubit carries the phase N^2 x p: with p = 0 its QFI is 0
    if ns.mode == "control" and ns.p == 0:
        raise ValidationError("control-mode switch scan needs --p nonzero")
    return _with_fit(experiments.switch_scan(ns.n_list, ns.x, ns.p, dim=ns.dim,
                                             step=ns.step, mode=ns.mode))


@_command("dvbound", "finite-dimension QFI bound scan", _n_flag("1..50"),
          _flag("--gbar", dest="aux", type=_FLOAT, default=0.1),
          _flag("--pair", choices=("qubit", "qutrit"), default="qubit"))
def _run_dvbound(ns):
    if ns.pair == "qubit":
        h_g = np.array([[0, 1], [1, 0]], dtype=complex) / 2.0
        h_l = np.array([[1, 0], [0, -1]], dtype=complex) / 2.0
    else:
        h_g = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2.0)
        h_l = np.diag([1.0, 0.0, -1.0]).astype(complex)
    probe = dv_saturating_probe(h_l)
    report = dv_bound_check(h_g, h_l, ns.n_list, ns.aux, probe)
    columns = ["N", "qfi", "bound", "ratio"]
    rows = [[row.n, row.qfi, row.bound, row.ratio] for row in report.rows]
    value = {"spectral_spread": report.spectral_spread, "max_ratio": report.max_ratio}
    return columns, rows, value


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit so callers can map codes
        raise ValidationError(message)


def _build_parser() -> _ArgumentParser:
    # no abbreviated flags: a prefix of --config would otherwise be stored
    # and its file never read
    parser = _ArgumentParser(prog="ncmetro", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for names, kwargs in flags + _COMMON:
            p.add_argument(*names, **kwargs)
    return parser


_PARSER = _build_parser()

#: Every flag of every command; each takes one value.
_VALUE_FLAGS = frozenset(name for _, flags, _ in _COMMANDS.values()
                         for names, _ in flags + _COMMON for name in names)
_FLAGS = _VALUE_FLAGS | {"-h", "--help"}


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write ``--theta -pi/4`` as ``--theta=-pi/4``.

    argparse reads a token that starts with '-' as a flag unless it looks
    like a plain negative number, so values such as -pi/4, -1e-3 or -0.3j
    would leave their flag without a value.  A token that is itself a flag
    is left alone.
    """
    joined, i = [], 0
    while i < len(argv):
        token, value = argv[i], argv[i + 1] if i + 1 < len(argv) else ""
        if (token in _VALUE_FLAGS and value.startswith("-")
                and value.partition("=")[0] not in _FLAGS):
            joined.append(f"{token}={value}")
            i += 2
        else:
            joined.append(token)
            i += 1
    return joined


def _load_config_file(path: str) -> list[str]:
    """Turn 'key = value' lines into flag tokens inserted before user flags."""
    tokens: list[str] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValidationError(f"{path}:{lineno}: empty key")
        if key == "config":
            raise ValidationError(f"{path}:{lineno}: a config file cannot name another")
        tokens.extend([f"--{key}", value])
    return tokens


def parse_config(argv: list[str]) -> argparse.Namespace:
    """Parse an argv vector into the command's namespace; the checks that
    need the library run in :func:`run_config`."""
    spots = [i for i, token in enumerate(argv)
             if token == "--config" or token.startswith("--config=")]
    if spots:
        idx = spots[0]
        if argv[idx] == "--config":
            path = argv[idx + 1] if idx + 1 < len(argv) else None
            rest = argv[idx + 2 :]
        else:
            path, rest = argv[idx].partition("=")[2], argv[idx + 1 :]
        if path is None or len(spots) > 1:
            raise ValidationError("--config takes one file path and may be given once")
        argv = [argv[0], *_load_config_file(path), *argv[1:idx], *rest]
    return _PARSER.parse_args(_join_negative_values(argv))


def run_config(ns: argparse.Namespace) -> io.ResultEnvelope:
    """Run the parsed command and assemble the result envelope."""
    start = time.perf_counter()
    result = _COMMANDS[ns.command][2](ns)
    config = {key: [value.real, value.imag] if isinstance(value, complex) else value
              for key, value in vars(ns).items()}
    if isinstance(result[0], experiments.ScanResult):
        scan, *rest = result
        rows = [[row.get(col) for col in scan.columns] for row in scan.rows]
        result = scan.columns, rows, *rest
    envelope = io.ResultEnvelope(ns.command, config, *result)
    envelope.duration_s = time.perf_counter() - start
    envelope.timestamp = datetime.now(timezone.utc).isoformat()
    return envelope


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = parse_config(argv)
        text = io.emit(run_config(ns), ns.format, ns.out)
    except NumericalTrustError as exc:
        print(f"numerical-trust failure: {exc}", file=sys.stderr)
        return 3
    except NcmetroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
