"""Scripted scaling experiments: coefficient scans, QFI/CFI scans, and
log-log exponent fits.

Every scan is a pure function of its parameters (no randomness anywhere),
returns rows sorted by the scan variable, and stamps enough metadata to
re-run bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import NumericalTrustError, ValidationError
from .fock import DEFAULT_DIM, DEFAULT_STEP, qfi_numeric, switch_qfi
from .gaussian import HomodyneSpec, cfi_quadrature, gaussian_probe, qfi_linear_generator
from .generators import k_peak, local_generator
from .protocols import ProbeDescriptor, build_preset

_LOG10 = math.log(10.0)


@dataclass
class ScanResult:
    """Tabular scan output: named columns, rows keyed by the scan variable."""

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


def fit_loglog_slope(
    points: Sequence[tuple[float, float]],
    window: tuple[float, float] | None = None,
) -> FitResult:
    """Ordinary least squares on (ln x, ln y); all points must be positive."""
    if window is not None:
        lo, hi = window
        points = [(x, y) for x, y in points if lo <= x <= hi]
    if len(points) < 3:
        raise ValidationError("log-log fit needs at least 3 points in the window")
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


def fig2a_scan(k_list: Sequence[int], n_range: Sequence[int]) -> ScanResult:
    """Coefficient growth with N for fixed nilpotency indices."""
    if any(k < 0 for k in k_list):
        raise ValidationError("nilpotency indices must be non-negative")
    if any(n < 1 for n in n_range):
        raise ValidationError("N values must be positive")
    columns = ["N"] + [f"logcoef_K{k}" for k in k_list]
    rows = [
        {"N": n, **{f"logcoef_K{k}": log10_coefficient(k, n) for k in k_list}}
        for n in sorted(n_range)
    ]
    return ScanResult(
        columns=columns,
        rows=rows,
        metadata={"k_list": list(k_list), "n_range": sorted(n_range)},
    )


def fig2b_scan(n_list: Sequence[int], k_max: int) -> ScanResult:
    """Coefficient against K for fixed N, annotated with the peak set."""
    if any(n < 1 for n in n_list):
        raise ValidationError("N values must be positive")
    if k_max < max(n_list) + 1:
        raise ValidationError("k_max must be at least max(N) + 1")
    columns = ["K"] + [f"logcoef_N{n}" for n in n_list]
    rows = [
        {"K": k, **{f"logcoef_N{n}": log10_coefficient(k, n) for n in n_list}}
        for k in range(k_max + 1)
    ]
    peaks = {f"N{n}": list(k_peak(n, k_max)) for n in n_list}
    return ScanResult(
        columns=columns,
        rows=rows,
        metadata={"n_list": list(n_list), "k_max": k_max, "k_peak": peaks},
    )


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

    Columns: closed-form QFI 2 N^2 cosh(2 N xi), the Gaussian-engine QFI
    from the local generator, the Fock-oracle QFI where it converged (with a
    per-row trust marker), the CFI at theta, and the CFI/QFI ratio.
    """
    if not xi_bar > 0:
        raise ValidationError("xi_bar must be positive")
    if any(n < 1 for n in n_range):
        raise ValidationError("N values must be positive")
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
    rows = []
    for n in sorted(n_range):
        protocol = build_preset("squeeze-inf", n, x_bar, xi_bar, probe)
        try:
            closed = 2.0 * n**2 * math.cosh(2.0 * n * xi_bar)
        except OverflowError:
            raise ValidationError(
                f"closed-form QFI overflows: cosh(2*N*xi_bar) with N = {n}, "
                f"xi_bar = {xi_bar!r}"
            ) from None
        gen = local_generator(protocol).generator
        qfi_gauss = qfi_linear_generator(gaussian_probe(probe), gen)
        cfi = cfi_quadrature(protocol, spec)
        row = {
            "N": n,
            "qfi_closed_form": closed,
            "qfi_gaussian": qfi_gauss,
            "qfi_fock": None,
            "fock_trusted": None,
            "cfi": cfi,
            "ratio_cfi_qfi": cfi / qfi_gauss,
        }
        if include_fock:
            try:
                estimate = qfi_numeric(protocol, dim=dim, step=step)
                row["qfi_fock"] = estimate.value
                row["fock_trusted"] = 1 if estimate.trusted else 0
            except NumericalTrustError:
                pass  # row keeps None markers: oracle did not converge
        rows.append(row)
    return ScanResult(
        columns=columns,
        rows=rows,
        metadata={
            "xi_bar": xi_bar,
            "alpha": [alpha.real, alpha.imag] if isinstance(alpha, complex) else alpha,
            "theta": theta,
            "x_bar": x_bar,
            "dim": dim,
            "step": step,
            "n_range": sorted(n_range),
        },
    )


def example1_scan(
    n_range: Sequence[int],
    s_bar: float,
    probe: ProbeDescriptor | None = None,
    preset: str = "shear-k1",
    x_bar: float = 0.1,
) -> ScanResult:
    """Generator-variance QFI of a finite-index protocol against N."""
    if any(n < 1 for n in n_range):
        raise ValidationError("N values must be positive")
    probe = probe or ProbeDescriptor.vacuum()
    probe_state = gaussian_probe(probe)
    rows = []
    for n in sorted(n_range):
        protocol = build_preset(preset, n, x_bar, s_bar, probe)
        gen = local_generator(protocol).generator
        rows.append({"N": n, "qfi": qfi_linear_generator(probe_state, gen)})
    return ScanResult(
        columns=["N", "qfi"],
        rows=rows,
        metadata={
            "preset": preset,
            "s_bar": s_bar,
            "x_bar": x_bar,
            "probe": probe.kind,
            "n_range": sorted(n_range),
        },
    )


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
    if any(n < 1 for n in n_range):
        raise ValidationError("N values must be positive")
    rows = []
    for n in sorted(n_range):
        estimate = switch_qfi(n, x, p_val, probe=probe, dim=dim, step=step, mode=mode)
        rows.append(
            {"N": n, "qfi": estimate.value, "trusted": 1 if estimate.trusted else 0}
        )
    return ScanResult(
        columns=["N", "qfi", "trusted"],
        rows=rows,
        metadata={
            "x": x,
            "p": p_val,
            "dim": dim,
            "step": step,
            "mode": mode,
            "n_range": sorted(n_range),
        },
    )


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
