"""Output parsing and closed-form reference checks for benchmark ops.

Every check runs outside the timed region and uses only the standard
library plus numpy; nothing here calls into ``ncmetro``, so the references
stay independent of the code under test.

Tolerances follow the acceptance suite: the Gaussian engine, closed forms,
the classical Fisher information and the coefficient scans to 1e-10
relative; the truncated-Fock oracle to 1%; classification kind and index
exactly and the closure rate p to 1e-10.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

EXACT_RTOL = 1e-10
FOCK_RTOL = 0.01

#: Population the program's own trust model allows near the top Fock level.
LEAKAGE_THRESHOLD = 1e-8

OK, REFUSED, WRONG = "ok", "refused", "wrong"


@dataclass
class Verdict:
    """Outcome of one op.

    ``refused``: non-zero exit, a blank value or a value the program marked
    untrusted.  ``wrong``: a trusted value off its reference.  ``explained``
    is set on a wrong verdict when every wrong value is a Fock result whose
    truncated state provably lost more than ``LEAKAGE_THRESHOLD`` of its
    population, i.e. the trust model should have refused it.
    """

    status: str
    reason: str = ""
    explained: bool = False
    fock_rel_err: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status != OK


@dataclass
class Table:
    rows: list  # list of dicts keyed by column
    value: dict | None = None  # the JSON envelope's "value"; None for CSV


def _cell(text: str):
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_output(text: str, fmt: str) -> Table:
    """Parse the CLI's CSV or JSON output into a Table."""
    if fmt == "json":
        data = json.loads(text)
        columns = data["columns"]
        rows = [dict(zip(columns, row)) for row in data["rows"]]
        return Table(rows=rows, value=data.get("value"))
    lines = list(csv.reader(io.StringIO(text)))
    columns = lines[0]
    rows = [dict(zip(columns, (_cell(c) for c in line))) for line in lines[1:]]
    return Table(rows=rows)


class Checker:
    """Collects the problems found in one op's output."""

    def __init__(self):
        self.refused: list[str] = []
        self.wrong: list[str] = []
        self.unexplained = 0
        self.fock_rel_err = 0.0

    def value(self, label, actual, ref, rtol=EXACT_RTOL, scale=None,
              fock=False, tail=None):
        """Compare a number with its reference.

        ``scale`` replaces |ref| as the denominator (for entries whose
        reference is zero); ``tail`` returns the exact population the
        truncated Fock state lost, used to explain a wrong Fock value.
        """
        if actual is None or actual == "":
            self.refused.append(f"{label}: blank")
            return
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            self.wrong.append(f"{label}: not a number {actual!r}")
            self.unexplained += 1
            return
        denom = scale if scale is not None else abs(ref)
        err = abs(actual - ref) / denom if denom > 0 else abs(actual - ref)
        if fock:
            self.fock_rel_err = max(self.fock_rel_err, err)
        if not err <= rtol:
            lost = tail() if tail is not None else 0.0
            explained = fock and lost > LEAKAGE_THRESHOLD
            note = f" (truncation lost {lost:.1e})" if explained else ""
            self.wrong.append(
                f"{label}: got {actual!r}, want {ref!r} (rel {err:.2e}){note}"
            )
            self.unexplained += 0 if explained else 1

    def trusted(self, label, flag):
        if flag != 1:
            self.refused.append(f"{label}: marked untrusted ({flag!r})")

    def exact(self, label, actual, expected):
        if actual != expected:
            self.wrong.append(f"{label}: got {actual!r}, want {expected!r}")
            self.unexplained += 1

    def require(self, label, condition):
        if not condition:
            self.wrong.append(label)
            self.unexplained += 1

    def verdict(self) -> Verdict:
        if self.wrong:
            return Verdict(WRONG, "; ".join(self.wrong[:3]),
                           self.unexplained == 0, self.fock_rel_err)
        if self.refused:
            return Verdict(REFUSED, "; ".join(self.refused[:3]),
                           fock_rel_err=self.fock_rel_err)
        return Verdict(OK, fock_rel_err=self.fock_rel_err)


def judge(code: int, stdout: str, stderr: str, fmt: str, check) -> Verdict:
    """Verdict for one op: exit status first, then the reference check."""
    if code != 0:
        return Verdict(REFUSED, f"exit {code}: {stderr.strip()[:200]}")
    try:
        table = parse_output(stdout, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return Verdict(WRONG, f"unparseable output: {exc}")
    c = Checker()
    try:
        check(table, c)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        c.require(f"malformed output: {type(exc).__name__}: {exc}", False)
    return c.verdict()


# -- closed forms ---------------------------------------------------------------

SQRT2 = math.sqrt(2.0)


def qfi_reference(pair: str, n: int, aux: float) -> float:
    """Exact QFI of the vacuum-probe protocol for each pair in the pools.

    The local generator is N e^{iNgH_g} H_lam e^{-iNgH_g}: N(P - Ng) for
    X|P, N(P - 2NsX) for X^2|P, N(cosh(Nxi) P - sinh(Nxi) X) for the
    squeezer, and N(P - 2NgX)^2 for X^2|P^2, whose vacuum variance is
    2 sigma^4 with sigma^2 = (1 + 4 N^2 g^2) / 2.
    """
    if pair == "xp-constant":
        return 2.0 * n * n
    if pair == "shear-k1":
        return 2.0 * n * n * (1.0 + 4.0 * n * n * aux * aux)
    if pair == "squeeze-inf":
        return 2.0 * n * n * math.cosh(2.0 * n * aux)
    if pair == "X^2|P^2":
        theta = n * aux
        return 2.0 * n * n * (1.0 + 4.0 * theta * theta) ** 2
    raise ValueError(pair)


def generator_reference(preset: str, n: int, aux: float) -> dict:
    """Normal-ordered coefficients {(m, n): c} of the preset's local generator."""
    if preset == "xp-constant":
        return {(1, 0): 1j * n / SQRT2, (0, 1): -1j * n / SQRT2, (0, 0): -n * n * aux}
    if preset == "shear-k1":
        x = -2.0 * n * n * aux / SQRT2
        return {(1, 0): x + 1j * n / SQRT2, (0, 1): x - 1j * n / SQRT2}
    if preset == "squeeze-inf":
        x = -n * math.sinh(n * aux) / SQRT2
        p = n * math.cosh(n * aux) / SQRT2
        return {(1, 0): x + 1j * p, (0, 1): x - 1j * p}
    raise ValueError(preset)


def _log_squeezed_pop(k: int, r: float) -> float:
    """log P(2k) of a squeezed vacuum with squeezing r > 0."""
    return (
        math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) - k * math.log(4.0)
        + 2 * k * math.log(math.tanh(r)) - math.log(math.cosh(r))
    )


def truncation_tail(pair: str, n: int, aux: float, dim: int) -> float:
    """Exact population of the auxiliary-block state at the top dim//8 levels
    (at least two) and beyond.

    The auxiliary block maps the vacuum to a squeezed vacuum with r = N xi
    (squeezer) or r = asinh(N g) (X^2 shear), or to a coherent state with
    |beta|^2 = (N g)^2 / 2 (X displacement).  When this exceeds the
    program's leakage threshold, no result at ``dim`` deserves trust.  The
    tail is one minus the head sum, accurate to ~1e-16 absolute, which is
    ample against a 1e-8 threshold.
    """
    cut = dim - max(2, dim // 8)
    if pair == "xp-constant":
        mean = (n * aux) ** 2 / 2.0
        if mean == 0.0:
            return 0.0
        head = sum(math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
                   for k in range(cut))
    else:
        r = n * aux if pair == "squeeze-inf" else math.asinh(n * aux)
        if r <= 0.0:
            return 0.0
        head = sum(math.exp(_log_squeezed_pop(k, r)) for k in range((cut + 1) // 2))
    return max(0.0, 1.0 - head)


def log10_coefficient(k: int, n: int) -> float:
    """log10(N^{2(1+K)} / (K!)^2), from exact integers."""
    return 2 * (1 + k) * math.log10(n) - 2 * math.log10(math.factorial(k))


def ols_slope(xs, ys) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# -- per-command checks -------------------------------------------------------


def check_fig3(n_list, xi):
    def check(t: Table, c: Checker):
        c.exact("rows", [r["N"] for r in t.rows], list(n_list))
        for r in t.rows:
            n = r["N"]
            qfi = 2.0 * n * n * math.cosh(2.0 * n * xi)
            cfi = n * n * math.exp(2.0 * n * xi)
            c.value(f"N={n} qfi_closed_form", r["qfi_closed_form"], qfi)
            c.value(f"N={n} qfi_gaussian", r["qfi_gaussian"], qfi)
            c.value(f"N={n} qfi_fock", r["qfi_fock"], qfi, FOCK_RTOL, fock=True)
            c.trusted(f"N={n} fock", r["fock_trusted"])
            c.value(f"N={n} cfi", r["cfi"], cfi)
            c.value(f"N={n} ratio", r["ratio_cfi_qfi"], cfi / qfi)
    return check


def check_switch(n_list, p, mode):
    def check(t: Table, c: Checker):
        c.exact("rows", [r["N"] for r in t.rows], list(n_list))
        for r in t.rows:
            n = r["N"]
            ref = {
                "control": n**4 * p * p,
                "joint": 2.0 * n * n + n**4 * p * p,
                "definite": 2.0 * n * n,
            }[mode]
            c.value(f"N={n} {mode} qfi", r["qfi"], ref, FOCK_RTOL, fock=True)
            c.trusted(f"N={n} {mode}", r["trusted"])
    return check


def check_qfi(pair, n, aux, nu, dim):
    """``qfi --engine both``: the Fock row is required, and a Gaussian row
    where the Gaussian engine applies (not for the quadratic X^2|P^2)."""
    ref = qfi_reference(pair, n, aux)

    def tail():
        return truncation_tail(pair, n, aux, dim)

    def check(t: Table, c: Checker):
        rows = {r["engine"]: r for r in t.rows}
        engines = ["fock"] if pair == "X^2|P^2" else ["gaussian", "fock"]
        engines += [e for e in rows if e not in engines]
        for engine in engines:
            row = rows.get(engine)
            if row is None:
                c.value(f"{engine} qfi", None, ref)
                continue
            fock = engine == "fock"
            rtol = FOCK_RTOL if fock else EXACT_RTOL
            c.value(f"{engine} qfi", row["qfi"], ref, rtol, fock=fock, tail=tail)
            c.trusted(engine, row["trusted"])
            if isinstance(row["qfi"], float) and row["qfi"] > 0:
                c.value(f"{engine} rmse", row["rmse_qcrb"], 1.0 / math.sqrt(nu * row["qfi"]))
    return check


def check_generator(preset, n, aux):
    ref = generator_reference(preset, n, aux)
    scale = max(abs(v) for v in ref.values())

    def check(t: Table, c: Checker):
        got = {(r["m"], r["n"]): complex(r["coeff_re"], r["coeff_im"]) for r in t.rows}
        for key in sorted(set(ref) | set(got)):
            want = ref.get(key, 0j)
            have = got.get(key, 0j)
            c.value(f"coeff{key}.re", have.real, want.real, scale=scale)
            c.value(f"coeff{key}.im", have.imag, want.imag, scale=scale)
    return check


def check_example1(preset, n_list, s):
    def check(t: Table, c: Checker):
        c.exact("rows", [r["N"] for r in t.rows], list(n_list))
        for r in t.rows:
            c.value(f"N={r['N']} qfi", r["qfi"], qfi_reference(preset, r["N"], s))
        if t.value is not None:
            refs = [qfi_reference(preset, n, s) for n in n_list]
            slope = ols_slope([math.log(n) for n in n_list], [math.log(q) for q in refs])
            c.value("fit slope", t.value["fit"]["slope"], slope)
    return check


def check_fig2b(n_list, k_max):
    def check(t: Table, c: Checker):
        c.exact("rows", [r["K"] for r in t.rows], list(range(k_max + 1)))
        for r in t.rows:
            for n in n_list:
                ref = log10_coefficient(r["K"], n)
                c.value(f"K={r['K']} N={n}", r[f"logcoef_N{n}"], ref, scale=max(1.0, abs(ref)))
        if t.value is not None:
            peaks = t.value["k_peak"]
            for n in n_list:
                c.exact(f"k_peak N={n}", peaks[f"N{n}"], [n - 1, n])
    return check


def check_dvbound(pair, n_list, g):
    """Qubit: QFI = N^2 = bound.  Qutrit (spin-1 Jz rotated about Jx by Ng):
    QFI = 4 N^2 cos^2(N g) against the bound 4 N^2."""
    def check(t: Table, c: Checker):
        c.exact("rows", [r["N"] for r in t.rows], list(n_list))
        for r in t.rows:
            n = r["N"]
            if pair == "qubit":
                qfi, bound = float(n * n), float(n * n)
            else:
                qfi, bound = 4.0 * n * n * math.cos(n * g) ** 2, 4.0 * n * n
            c.value(f"N={n} qfi", r["qfi"], qfi, scale=bound)
            c.value(f"N={n} bound", r["bound"], bound)
            c.value(f"N={n} ratio", r["ratio"], qfi / bound, scale=1.0)
    return check


def check_classify(kind, index=None, constant=None, p=None, matrices=None):
    """Kind and index exactly, constant and p to 1e-10.

    With JSON output and ``matrices`` (a function returning the truncated
    G and H), tower levels 1 and 2 are also compared with the truncated
    matrix commutators [G, H] and [G, [G, H]].
    """
    def check(t: Table, c: Checker):
        row = t.rows[0]
        c.exact("kind", row["kind"], kind)
        c.exact("nilpotency_index", row["nilpotency_index"], index)
        if constant is not None:
            c.value("constant_re", row["constant_re"], constant.real, scale=abs(constant))
            c.value("constant_im", row["constant_im"], constant.imag, scale=abs(constant))
        if p is not None:
            c.value("closure_p", row["closure_p"], p)
        if matrices is not None and t.value is not None:
            _spot_check_tower(t.value["tower"], matrices, c)
    return check


# -- tower spot check against truncated matrices ---------------------------------

SPOT_DIM = 40
SPOT_BLOCK = 24  # rows/cols unaffected by truncation for the pool's degrees


def _split_terms(text: str) -> list[str]:
    """Split 'c1*ad^2 + (a + b*i)*a' at top-level ' + ' separators."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            start = i + 3
    parts.append(text[start:])
    return parts


def _parse_coefficient(text: str) -> complex:
    """'0.5', '(-0.5)', '(0.5*i)', '(0.1 - 2e-05*i)' -> complex."""
    body = text[1:-1] if text.startswith("(") else text
    return complex(body.replace(" ", "").replace("*i", "j"))


def parse_formatted(text: str) -> dict:
    """Terms {(m, n): c} of a polynomial printed by ``format_polynomial``."""
    if text == "0":
        return {}
    terms = {}
    for part in _split_terms(text):
        coeff_text, *factors = _split_factors(part)
        m = n = 0
        for f in factors:
            name, _, power = f.partition("^")
            k = int(power) if power else 1
            if name == "ad":
                m += k
            elif name == "a":
                n += k
            else:
                raise ValueError(f"unknown factor {f!r}")
        terms[(m, n)] = terms.get((m, n), 0j) + _parse_coefficient(coeff_text)
    return terms


def _split_factors(term: str) -> list[str]:
    depth = 0
    for i, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            return [term[:i]] + term[i + 1:].split("*")
    return [term]


def ladder_matrices(dim: int):
    """Truncated a, ad, X, P as dense numpy arrays."""
    import numpy as np

    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    ad = a.conj().T
    return a, ad, (a + ad) / SQRT2, 1j * (ad - a) / SQRT2


def embed_terms(terms: dict, dim: int):
    """Matrix of sum c ad^m a^n from closed-form elements
    <j-n+m| ad^m a^n |j> = sqrt(j!/(j-n)!) sqrt((j-n+m)!/(j-n)!)."""
    import numpy as np

    out = np.zeros((dim, dim), dtype=complex)
    for (m, n), c in terms.items():
        for j in range(n, dim):
            row = j - n + m
            if row >= dim:
                break
            log_el = 0.5 * (
                math.lgamma(j + 1) + math.lgamma(row + 1) - 2 * math.lgamma(j - n + 1)
            )
            out[row, j] += c * math.exp(log_el)
    return out


def _spot_check_tower(tower, matrices, c: Checker):
    import numpy as np

    g, h = matrices(*ladder_matrices(SPOT_DIM))
    level = h
    for k in (1, 2):
        if k >= len(tower):
            break
        level = g @ level - level @ g
        got = embed_terms(parse_formatted(tower[k]), SPOT_DIM)
        b = SPOT_BLOCK
        ref = level[:b, :b]
        scale = max(1.0, float(np.abs(ref).max()))
        err = float(np.abs(got[:b, :b] - ref).max()) / scale
        c.require(f"tower[{k}] differs from the matrix commutator (rel {err:.2e})",
                  err <= 1e-9)
