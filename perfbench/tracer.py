"""Outside-in tracing of the ncmetro layers.

Wrappers are installed by rebinding public functions in every ``ncmetro``
module namespace that holds them (``ncmetro.fock.matrix_of`` and
``ncmetro.generators.matrix_of`` alike) and by replacing two methods of
``HermitianEvolver``.  Nothing under ``src/`` is edited.  Each wrapper is a
span: it counts calls and accumulates self time, i.e. its duration minus
the time covered by nested traced calls.  A few spans also record counts of
the work they were handed; counts computed from inputs rather than observed
are named as such in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: The package modules, in the names used by the metrics (``__init__`` is
#: ``init`` because metric names start with a letter).
MODULES = (
    "init", "cli", "errors", "experiments", "expressions", "fock",
    "gaussian", "generators", "io", "ladder", "protocols",
)

FUNCTIONS = (
    ("ladder", "normal_order_product"),
    ("ladder", "classify_pair"),
    ("expressions", "parse_operator"),
    ("expressions", "format_polynomial"),
    ("generators", "local_generator"),
    ("gaussian", "evolve"),
    ("gaussian", "qfi_linear_generator"),
    ("gaussian", "cfi_quadrature"),
    ("fock", "matrix_of"),
    ("fock", "prepare_probe"),
    ("fock", "qfi_numeric"),
    ("fock", "switch_qfi"),
    ("fock", "switch_protocol"),
    ("experiments", "fig3_scan"),
    ("experiments", "switch_scan"),
    ("experiments", "example1_scan"),
    ("experiments", "fig2b_scan"),
    ("experiments", "fit_loglog_slope"),
    ("io", "emit"),
    ("cli", "parse_config"),
    ("cli", "run_config"),
)

#: (span name, method of fock.HermitianEvolver): construction is the
#: eigendecomposition.
METHODS = (
    ("fock.HermitianEvolver", "__init__"),
    ("fock.HermitianEvolver.apply", "apply"),
)

_COUNT = ("count", "lower")
_SECONDS = ("s", "lower")


def _per_layer():
    out = []
    for mod, name in FUNCTIONS:
        if (mod, name) == ("cli", "run_config"):
            continue
        out += [(f"{mod}.{name}.calls", *_COUNT), (f"{mod}.{name}.self_s", *_SECONDS)]
    out += [
        ("cli.run_config.self_s", *_SECONDS),
        ("fock.HermitianEvolver.calls", *_COUNT),
        ("fock.HermitianEvolver.self_s", *_SECONDS),
        ("fock.HermitianEvolver.apply.calls", *_COUNT),
        ("fock.HermitianEvolver.apply.self_s", *_SECONDS),
        # computed from inputs: len(a.terms) * len(b.terms) per product
        ("ladder.normal_order_product.term_pairs", *_COUNT),
        ("ladder.classify_pair.levels", *_COUNT),
        ("ladder.classify_pair.overflows", *_COUNT),
        # computed from inputs: 8 D^3 real flops per complex D x D matmul of
        # a dense power-chain embedding, (max_m + max_n + terms) matmuls
        ("fock.matrix_of.matmul_flops", "flop", "lower"),
        ("fock.matrix_of.distinct_frac", "frac", "higher"),
        # computed from inputs: sum of D^3 over eigendecompositions
        ("fock.HermitianEvolver.dim3_sum", *_COUNT),
        ("fock.HermitianEvolver.distinct_frac", "frac", "higher"),
        ("fock.qfi_numeric.retries", *_COUNT),
        ("fock.qfi_numeric.untrusted", *_COUNT),
        ("fock.trust_errors", *_COUNT),
        ("fock.refused_rows", *_COUNT),
        ("fock.max_rel_err", "frac", "lower"),
        ("io.emit.bytes", "B", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    out += [(f"{m}.src_lines", "lines", "lower") for m in MODULES]
    out.append(("src.total_lines", "lines", "lower"))
    return out


#: Every per-layer metric as (name, unit, better), in output order.
PER_LAYER = _per_layer()


class _Stat:
    __slots__ = ("calls", "self_s", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.keys = set()


class Tracer:
    """Spans around the public functions of an imported ``ncmetro``.

    Use as a context manager: wrappers are bound on entry and the original
    objects restored on exit, so untraced ops run the unmodified program.
    """

    def __init__(self):
        import ncmetro
        from ncmetro import errors

        self._trust_error = errors.NumericalTrustError
        self._overflow_error = errors.DegreeOverflowError
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._attempts: list[int] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ncmetro" or name.startswith("ncmetro.")]
        self._patches = []
        for mod, name in FUNCTIONS:
            owner = sys.modules.get(f"ncmetro.{mod}")
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(f"{mod}.{name}")
                continue
            wrapper = self._wrap(f"{mod}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))
        evolver = getattr(ncmetro.fock, "HermitianEvolver", None)
        for span, method in METHODS:
            original = evolver.__dict__.get(method) if evolver else None
            if original is None:
                self.missing.append(span)
                continue
            self._patches.append((evolver, method, original, self._wrap(span, original)))

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        return False

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span: str, fn):
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        stat = self.stats[span]
        fock = span.startswith("fock.")
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(stat, *args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._on_error(span, fock, exc)
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _on_error(self, span, fock, exc):
        if span == "fock.qfi_numeric":
            self._finish_qfi()
        if span == "ladder.classify_pair" and isinstance(exc, self._overflow_error):
            self.counts["ladder.classify_pair.overflows"] += 1
        if fock and isinstance(exc, self._trust_error) and not getattr(
            exc, "_perfbench_counted", False
        ):
            exc._perfbench_counted = True
            self.counts["fock.trust_errors"] += 1

    def _before_ladder_normal_order_product(self, stat, a, b, *rest, **kw):
        self.counts["ladder.normal_order_product.term_pairs"] += len(a.terms) * len(b.terms)

    def _after_ladder_classify_pair(self, report):
        self.counts["ladder.classify_pair.levels"] += len(report.tower) - 1

    def _before_fock_matrix_of(self, stat, poly, dim, *rest, **kw):
        terms = poly.terms
        chain = max((m for m, _ in terms), default=0) + max((n for _, n in terms), default=0)
        self.counts["fock.matrix_of.matmul_flops"] += (chain + len(terms)) * 8 * dim**3
        stat.keys.add((frozenset(terms.items()), dim))

    def _before_fock_HermitianEvolver(self, stat, evolver, matrix, *rest, **kw):
        self.counts["fock.HermitianEvolver.dim3_sum"] += matrix.shape[0] ** 3
        digest = hashlib.blake2b(matrix.tobytes(), digest_size=16).digest()
        stat.keys.add((matrix.shape, str(matrix.dtype), digest))

    def _before_fock_qfi_numeric(self, stat, *args, **kw):
        self._attempts.append(0)

    def _after_fock_qfi_numeric(self, estimate):
        self._finish_qfi()
        if not estimate.trusted:
            self.counts["fock.qfi_numeric.untrusted"] += 1

    def _finish_qfi(self):
        # one prepare_probe per attempt: attempts beyond the first are retries
        attempts = self._attempts.pop()
        self.counts["fock.qfi_numeric.retries"] += max(0, attempts - 1)

    def _before_fock_prepare_probe(self, stat, *args, **kw):
        if self._attempts:
            self._attempts[-1] += 1

    def _after_experiments_fig3_scan(self, scan):
        self.counts["fock.refused_rows"] += sum(1 for row in scan.rows if row["qfi_fock"] is None)

    def _after_io_emit(self, text):
        self.counts["io.emit.bytes"] += len(text.encode())

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values from the spans (excluding run-level entries)."""
        out = dict(self.counts)
        for span, stat in self.stats.items():
            out[f"{span}.calls"] = stat.calls
            out[f"{span}.self_s"] = stat.self_s
        for span in ("fock.matrix_of", "fock.HermitianEvolver"):
            stat = self.stats[span]
            out[f"{span}.distinct_frac"] = len(stat.keys) / stat.calls if stat.calls else 1.0
        return out


def source_lines(src: Path) -> dict:
    """Line counts of the package modules under ``src/ncmetro``."""
    pkg = src / "ncmetro"
    out = {}
    for mod in MODULES:
        path = pkg / ("__init__.py" if mod == "init" else f"{mod}.py")
        out[f"{mod}.src_lines"] = _count_lines(path) if path.is_file() else 0
    out["src.total_lines"] = sum(_count_lines(p) for p in pkg.rglob("*.py"))
    return out


def _count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)
