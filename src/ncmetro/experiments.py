"""Scripted scaling experiments: coefficient scans, QFI/CFI scans, and
log-log exponent fits.

Every scan is a pure function of its parameters (no randomness anywhere)
and returns rows sorted by the scan variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import NcmetroError, NumericalTrustError, ValidationError
from .fock import DEFAULT_DIM, DEFAULT_STEP, QfiEstimate, _qfi_rows, _results, _switch_qfis
from .gaussian import (GaussianState, HomodyneSpec, _homodyne_cfis, gaussian_probe,
                       qfi_linear_generator)
from .generators import _generator_terms, _parts, classified_pair, k_peak
from .ladder import LadderPolynomial
from .protocols import EncodingProtocol, ProbeDescriptor, build_preset

_LOG10 = math.log(10.0)


@dataclass
class ScanResult:
    """Tabular scan output: named columns, rows keyed by the scan variable,
    and any result besides the rows (fig2b's peak set)."""

    columns: list[str]
    rows: list[dict]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def _ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    n = len(xs)
    x_mean = sum(xs) / n
    y_mean = sum(ys) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    if sxx == 0.0:
        raise ValidationError("degenerate fit window: no spread in x")
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_tot = sum((y - y_mean) ** 2 for y in ys)
    ss_res = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return slope, intercept, r_squared


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> FitResult:
    """Ordinary least squares on (ln x, ln y); all points must be positive.
    The result's ``window`` is the fitted range of x."""
    if len(points) < 3:
        raise ValidationError("log-log fit needs at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in points):
        raise ValidationError("log-log fit requires strictly positive values")
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    slope, intercept, r2 = _ols(xs, ys)
    used = [x for x, _ in points]
    return FitResult(
        slope=slope, intercept=intercept, r_squared=r2, window=(min(used), max(used))
    )


def log10_coefficient(k: int, n: int) -> float:
    """log10 of the leading-order coefficient N^{2(1+K)} / (K!)^2."""
    return (2.0 * (1 + k) * math.log(n) - 2.0 * math.lgamma(k + 1)) / _LOG10


def _checked_ns(n_values: Sequence[int]) -> list[int]:
    """The N values, at least one and each at least 1, in ascending order."""
    if not n_values:
        raise ValidationError("N values must not be empty")
    if any(n < 1 for n in n_values):
        raise ValidationError("N values must be positive")
    return sorted(n_values)


def _gaussian_columns(report, protocol: EncodingProtocol, ns: Sequence[int],
                      probe: GaussianState, theta: float | None = None):
    """Yields (QFI, CFI) of each N of a scan of one classified pair, from
    quantities read once per scan; the CFI is None without ``theta``.

    QFI: the local generator of each N is the sum of the report's parts,
    read once, times its scalars (``generators._generator_terms``, with
    the floats of a single query's :func:`generators.generator_at`), and
    its QFI on the probe is :func:`gaussian.qfi_linear_generator`.  A row
    raises the generator's overflow errors, then the Gaussian engine's.
    CFI: :func:`gaussian.cfi_quadrature`'s evaluator, with h_g's eigen-split
    read once per scan; a CFI rounded above its QFI is held at the QFI."""
    parts = _parts(report)
    cfis = None if theta is None else _homodyne_cfis(protocol, theta, ns)
    for n in ns:
        qfi = qfi_linear_generator(probe, LadderPolynomial._canonical(
            _generator_terms(report, parts, n, protocol.g_bar)))
        yield qfi, None if cfis is None else min(next(cfis), qfi)


def fig2a_scan(k_list: Sequence[int], n_range: Sequence[int]) -> ScanResult:
    """Coefficient growth with N for fixed nilpotency indices."""
    if any(k < 0 for k in k_list):
        raise ValidationError("nilpotency indices must be non-negative")
    n_range = _checked_ns(n_range)
    columns = ["N"] + [f"logcoef_K{k}" for k in k_list]
    rows = [
        {"N": n, **{f"logcoef_K{k}": log10_coefficient(k, n) for k in k_list}}
        for n in n_range
    ]
    return ScanResult(columns=columns, rows=rows)


def fig2b_scan(n_list: Sequence[int], k_max: int) -> ScanResult:
    """Coefficient against K for fixed N (columns in the given order), with the peak set."""
    _checked_ns(n_list)
    if k_max < max(n_list) + 1:
        raise ValidationError("k_max must be at least max(N) + 1")
    columns = ["K"] + [f"logcoef_N{n}" for n in n_list]
    rows = [
        {"K": k, **{f"logcoef_N{n}": log10_coefficient(k, n) for n in n_list}}
        for k in range(k_max + 1)
    ]
    peaks = {f"N{n}": list(k_peak(n, k_max)) for n in n_list}
    return ScanResult(columns=columns, rows=rows, metadata={"k_peak": peaks})


def fig3_scan(
    n_range: Sequence[int],
    xi_bar: float = 0.1,
    alpha: complex = 0.3,
    theta: float = math.pi / 4.0,
    x_bar: float = 0.1,
    dim: int = DEFAULT_DIM,
    step: float = DEFAULT_STEP,
    include_fock: bool = True,
) -> ScanResult:
    """QFI and homodyne CFI of the squeeze protocol against N.

    Columns: closed-form QFI 2 N^2 cosh(2 N xi), the Gaussian QFI of the
    local generator, the Fock-oracle QFI where it does not leak (with a
    per-row trust marker), the homodyne CFI at theta of
    :func:`gaussian.cfi_quadrature`, and the CFI/QFI ratio, the Gaussian
    columns read once per scan (:func:`_gaussian_columns`).  A leaking
    oracle row keeps None in its Fock columns.  The oracle runs every row as
    one stack after the Gaussian columns; the first row that fails either
    decides the error.
    """
    if not xi_bar > 0:
        raise ValidationError("xi_bar must be positive")
    n_range = _checked_ns(n_range)
    probe = ProbeDescriptor.coherent(alpha)
    spec = HomodyneSpec(theta)
    columns = [
        "N",
        "qfi_closed_form",
        "qfi_gaussian",
        "qfi_fock",
        "fock_trusted",
        "cfi",
        "ratio_cfi_qfi",
    ]
    protocol = build_preset("squeeze-inf", n_range[0], x_bar, xi_bar, probe)
    report = classified_pair(protocol.h_g, protocol.h_lambda)
    gaussian = _gaussian_columns(report, protocol, n_range, gaussian_probe(probe), spec.theta)
    rows, failure = [], None
    for n in n_range:
        try:
            try:
                closed = 2.0 * n**2 * math.cosh(2.0 * n * xi_bar)
            except OverflowError:
                raise ValidationError(
                    f"closed-form QFI overflows: cosh(2*N*xi_bar) with N = {n}, "
                    f"xi_bar = {xi_bar!r}"
                ) from None
            qfi_gauss, cfi = next(gaussian)
        except NcmetroError as exc:  # raised once the rows before it have their oracle outcome
            failure = exc
            break
        rows.append({
            "N": n,
            "qfi_closed_form": closed,
            "qfi_gaussian": qfi_gauss,
            "qfi_fock": None,
            "fock_trusted": None,
            "cfi": cfi,
            "ratio_cfi_qfi": None if cfi is None else cfi / qfi_gauss,
        })
    if include_fock and rows:  # the rows' protocols differ only in N
        for row, outcome in zip(rows, _qfi_rows(protocol, [row["N"] for row in rows], dim, step)):
            if isinstance(outcome, QfiEstimate):
                row.update(qfi_fock=outcome.value, fock_trusted=int(outcome.trusted))
            elif not isinstance(outcome, NumericalTrustError):  # else the row leaks
                raise outcome
    if failure is not None:
        raise failure
    return ScanResult(columns=columns, rows=rows)


def example1_scan(
    n_range: Sequence[int],
    s_bar: float,
    probe: ProbeDescriptor | None = None,
    preset: str = "shear-k1",
    x_bar: float = 0.1,
) -> ScanResult:
    """Generator-variance QFI of a finite-index protocol against N; the
    protocol is built, validated and classified once, and every N's QFI is
    that of its generator summed from the tower read once
    (:func:`_gaussian_columns`)."""
    n_range = _checked_ns(n_range)
    probe = probe or ProbeDescriptor.vacuum()
    probe_state = gaussian_probe(probe)
    protocol = build_preset(preset, n_range[0], x_bar, s_bar, probe)
    report = classified_pair(protocol.h_g, protocol.h_lambda)
    columns = _gaussian_columns(report, protocol, n_range, probe_state)
    rows = [{"N": n, "qfi": qfi} for n, (qfi, _) in zip(n_range, columns)]
    return ScanResult(columns=["N", "qfi"], rows=rows)


def example1_scaling(
    n_range: Sequence[int],
    s_bar: float,
    probe: ProbeDescriptor | None = None,
    preset: str = "shear-k1",
) -> FitResult:
    """Fitted log-log slope of the QFI; tends to 4 for s_bar != 0, 2 at 0."""
    scan = example1_scan(n_range, s_bar, probe, preset)
    return fit_loglog_slope([(row["N"], row["qfi"]) for row in scan.rows])


def switch_scan(
    n_range: Sequence[int],
    x: float,
    p_val: float,
    dim: int = DEFAULT_DIM,
    step: float = DEFAULT_STEP,
    mode: str = "control",
    probe: ProbeDescriptor | None = None,
) -> ScanResult:
    """Switch-construction QFI against N (see fock.switch_qfi for modes)."""
    n_range = _checked_ns(n_range)
    estimates = _results(_switch_qfis(n_range, x, p_val, probe, dim, step, mode))
    rows = [{"N": n, "qfi": e.value, "trusted": int(e.trusted)} for n, e in zip(n_range, estimates)]
    return ScanResult(columns=["N", "qfi", "trusted"], rows=rows)


def switch_scaling(
    n_range: Sequence[int],
    x: float,
    p_val: float,
    dim: int = DEFAULT_DIM,
    step: float = DEFAULT_STEP,
    mode: str = "control",
) -> FitResult:
    """Fitted exponent of the switch QFI: 4 for the control channel, 2 for a
    definite order."""
    scan = switch_scan(n_range, x, p_val, dim=dim, step=step, mode=mode)
    return fit_loglog_slope([(row["N"], row["qfi"]) for row in scan.rows])


def squeeze_rate_fit(
    n_range: Sequence[int], xi_bar: float, alpha: complex = 0.3
) -> FitResult:
    """Linear coefficient of ln(QFI / N^2) against N; approaches 2 xi_bar.

    The subleading ln(1 + exp(-4 N xi)) term biases the fit at small N*xi,
    so the window should satisfy N*xi >= ~1 for percent-level agreement.
    """
    scan = fig3_scan(n_range, xi_bar=xi_bar, alpha=alpha, include_fock=False)
    xs = [float(row["N"]) for row in scan.rows]
    ys = [math.log(row["qfi_gaussian"]) - 2.0 * math.log(row["N"]) for row in scan.rows]
    slope, intercept, r2 = _ols(xs, ys)
    return FitResult(
        slope=slope, intercept=intercept, r_squared=r2, window=(min(xs), max(xs))
    )
