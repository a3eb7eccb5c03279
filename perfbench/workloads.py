"""Seeded op pools for the three workloads.

A workload is a fixed design of *cells*, drawn once per run from the seed.
A run replays the design in rounds: every round runs each cell once, in a
freshly shuffled order, with a per-round jitter of about 1e-9 relative on a
continuous parameter so that no two commands of a run are alike while the
numerics (and so pass or fail) stay those of the cell.  Failed ops are
therefore the same cells in every round, which makes the failed share
exactly reproducible for a seed however many rounds fit in the run.

Parameters the cost depends on are stratified across cells, so that the op
mix, and with it every timing metric, is nearly the same for every seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass
class Op:
    cell: str
    argv: list
    check: Callable
    note: str = ""

    @property
    def fmt(self) -> str:
        return "json" if "json" in self.argv else "csv"


@dataclass
class Cell:
    name: str
    build: Callable  # round index -> (argv, check)
    note: str = ""


def num(x: float) -> str:
    return repr(float(x))


def jitter(x: float, r: int) -> float:
    return x * (1.0 + 1e-9 * r)


def fmt_args(fmt: str) -> list:
    return ["--format", "json"] if fmt == "json" else []


class Workload:
    name = ""
    #: A fixed, cheap op of the workload's kind: runs once, untimed, after
    #: import and before measuring, and ends every set-up sample.
    warmup: list = []
    #: Rounds per traced run and per second of --seconds (traced runs do a
    #: fixed amount of work so their counts repeat exactly for a seed).
    traced_rounds_per_s = 0.0

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = self.design(random.Random(f"{self.name}:{seed}"))

    def design(self, rng: random.Random) -> list:
        raise NotImplementedError

    def round(self, r: int) -> list:
        cells = list(self.cells)
        random.Random(f"{self.name}:{self.seed}:{r}").shuffle(cells)
        ops = []
        for cell in cells:
            argv, check = cell.build(r)
            ops.append(Op(cell.name, argv, check, cell.note))
        return ops


# -- oracle-scans ---------------------------------------------------------------


class OracleScans(Workload):
    # Why: the truncated-Fock oracle dominates (eigh and the dense matrix_of
    # embedding); this is where embedding and eigendecomposition reuse must
    # show.  A switch op costs about 1.5 fig3 ops at the same dim, so dims
    # sit on five levels over 80..200 with the kinds placed such that the
    # four middle cells by cost are alike (fig3 at dim 140) and the top two
    # are too (switch at dim 200): the median falls in the middle of one
    # cost level, and the tail inside one, rather than on a boundary
    # between two, whatever the seed.
    name = "oracle-scans"
    warmup = ["fig3", "--N", "1..3", "--dim", "80"]
    traced_rounds_per_s = 0.12

    def design(self, rng):
        levels = ((80, ("fig3", "switch")), (110, ("fig3", "switch")),
                  (140, ("fig3", "fig3", "fig3", "fig3")), (170, ("switch", "switch")),
                  (200, ("switch", "switch")))
        modes = ["control", "joint", "definite"] * 2
        rng.shuffle(modes)
        cells = []
        for dim, kinds in levels:
            for kind in kinds:
                i = len(cells)
                if kind == "fig3":
                    cells.append(self._fig3(i, dim, rng.uniform(0.0, 0.5),
                                            rng.uniform(0.05, 0.1)))
                else:
                    cells.append(self._switch(i, dim, modes.pop()))
        return cells

    @staticmethod
    def _fig3(i, dim, alpha, xi):
        n_list = range(1, 13)

        def build(r):
            x = jitter(xi, r)
            argv = ["fig3", "--N", "1..12", "--xi", num(x), "--alpha", num(alpha),
                    "--dim", str(dim)]
            return argv, checks.check_fig3(n_list, x)

        return Cell(f"c{i:02d}:fig3 dim={dim}", build)

    @staticmethod
    def _switch(i, dim, mode):
        def build(r):
            argv = ["switch", "--N", "1..6", "--x", num(jitter(0.1, r)), "--p", "0.2",
                    "--dim", str(dim), "--mode", mode]
            return argv, checks.check_switch(range(1, 7), 0.2, mode)

        return Cell(f"c{i:02d}:switch {mode} dim={dim}", build)


# -- tower-classify -------------------------------------------------------------


def _mp(m, k):
    import numpy as np

    return np.linalg.matrix_power(m, k)


class TowerClassify(Workload):
    # Why: pure-Python ladder algebra (normal_order_product under
    # classify_pair) does nearly all the work, with format_polynomial next;
    # fock does none.  Four expensive cells in nineteen (three capped towers
    # and X^6 | P, which overflows) keep the median in the cheap group and
    # the tail in the expensive one.
    name = "tower-classify"
    warmup = ["classify", "--g", "X^2", "--h", "P"]
    traced_rounds_per_s = 0.43

    def design(self, rng):
        specs = []  # (g, h, check, note)
        for k in range(1, 7):
            check = checks.check_classify(
                "finite_constant" if k == 1 else "finite", 1,
                constant=1j if k == 1 else None,
                matrices=lambda a, ad, X, P, k=k: (_mp(X, k), P))
            note = ("[X^6, X^5] keeps a rounding residue above the chop, so the "
                    "tower runs on to the degree limit" if k == 6 else "")
            specs.append((f"X^{k}", "P", check, note))
        for k in range(1, 7):
            check = checks.check_classify(
                "finite_constant", k, constant=(-1j) ** k * math.factorial(k),
                matrices=lambda a, ad, X, P, k=k: (P, _mp(X, k)))
            specs.append(("P", f"X^{k}", check, ""))
        capped = [
            ("ad*a", "X", lambda a, ad, X, P: (ad @ a, X), ""),
            ("X^3 + P^2", "P", lambda a, ad, X, P: (_mp(X, 3) + P @ P, P), ""),
            ("X^3+P^3", "X", lambda a, ad, X, P: (_mp(X, 3) + _mp(P, 3), X), ""),
            ("X^4", "P^3", lambda a, ad, X, P: (_mp(X, 4), _mp(P, 3)),
             "ROADMAP item 2: DegreeOverflowError near level 31 exits 2 "
             "instead of an unclassified outcome"),
        ]
        for g, h, matrices, note in capped:
            specs.append((g, h, checks.check_classify("cap_reached", matrices=matrices), note))
        cells = []
        for i, (g, h, check, note) in enumerate(specs):
            # cheap pairs alternate CSV and JSON; capped towers print JSON so
            # that their tower can be spot-checked
            fmt = "json" if i % 2 or i >= len(specs) - len(capped) else "csv"
            argv = ["classify", "--g", g, "--h", h] + fmt_args(fmt)
            cells.append(Cell(f"c{i:02d}:{g} | {h}",
                              lambda r, argv=argv, check=check: (argv, check), note))
        for lo, hi in ((0.25, 0.75), (0.75, 1.25), (1.25, 2.0)):
            cells.append(self._scaled_squeezer(len(cells), rng.uniform(lo, hi)))
        return cells

    @staticmethod
    def _scaled_squeezer(i, c0):
        """c (ad^2 + a^2) against P: closed tower with p = 4 c^2."""
        def build(r):
            text = num(jitter(c0, r))
            c = float(text)
            check = checks.check_classify(
                "closed_infinite", None, p=4.0 * c * c,
                matrices=lambda a, ad, X, P: (c * (ad @ ad + a @ a), P))
            fmt = "json" if i % 2 else "csv"
            return ["classify", "--g", f"{text}*ad^2 + {text}*a^2", "--h", "P"] + \
                fmt_args(fmt), check

        return Cell(f"c{i:02d}:{c0:.3f}*(ad^2 + a^2) | P", build)


# -- point-queries ----------------------------------------------------------------

QFI_PAIRS = {
    "xp-constant": ["--preset", "xp-constant"],
    "shear-k1": ["--preset", "shear-k1"],
    "squeeze-inf": ["--preset", "squeeze-inf"],
    "X^2|P^2": ["--g", "X^2", "--h", "P^2"],
}

#: The largest N * aux the qfi pools reach (N up to 12, aux up to 0.3).
MAX_PRODUCT = 12 * 0.3


class PointQueries(Workload):
    # Why: the same layers used differently: fock at the default dim with
    # little to reuse, ladder doing many tiny products, and argparse rebuilt
    # on every command.  A cache or vectorisation that helps the scan
    # workloads but adds per-call cost shows here as a loss.
    name = "point-queries"
    warmup = ["qfi", "--preset", "shear-k1", "--N", "2", "--engine", "both"]
    traced_rounds_per_s = 0.7

    def design(self, rng):
        cells = []
        # Whether a Fock result retries, fails or passes depends on N * aux,
        # step and lam, so the shear and squeezer cells cover every (step,
        # lam) pair in each of four N * aux strata, drawn near the stratum's
        # middle; the quadratic X^2|P^2 and the displacement X|P take one
        # stratum.  The retrying and failing shares are then nearly the same
        # for every seed.
        for pair, strata in (("xp-constant", 1), ("shear-k1", 4), ("squeeze-inf", 4),
                             ("X^2|P^2", 1)):
            for i in range(strata):
                lo, hi = (0.05, 0.95) if strata == 1 else (0.45, 0.55)
                for step in ("1e-4", "1e-5"):
                    for lam in ("0", "0.1"):
                        product = MAX_PRODUCT * (i + rng.uniform(lo, hi)) / strata
                        n = rng.randint(max(1, math.ceil(product / 0.3)), 12)
                        cells.append((self._qfi, pair, n, product / n, lam, step))
        for preset in ("xp-constant", "shear-k1", "squeeze-inf") * 2:
            cells.append((self._generator, preset, rng.randint(1, 12), rng.uniform(0.01, 0.3)))
        for preset, (lo, hi) in zip(("shear-k1", "xp-constant", "squeeze-inf", "shear-k1"),
                                    ((16, 28), (28, 40), (40, 52), (52, 64))):
            cells.append((self._example1, preset, rng.randint(lo, hi), rng.uniform(0.05, 0.3)))
        for size in (2, 3, 3, 4):
            cells.append((self._fig2b, size, rng.randint(0, 8), rng))
        for pair, (lo, hi) in zip(("qubit", "qutrit", "qubit", "qutrit"),
                                  ((10, 30), (10, 30), (30, 50), (30, 50))):
            cells.append((self._dvbound, pair, rng.randint(lo, hi), rng.uniform(0.05, 1.0)))
        rng.shuffle(cells)
        built = [make(f"c{i:02d}", "json" if i % 2 else "csv", *args)
                 for i, (make, *args) in enumerate(cells)]
        built.append(self._known_trust_hole())
        return built

    @staticmethod
    def _qfi(tag, fmt, pair, n, aux, lam, step):
        def build(r):
            a = jitter(aux, r)
            argv = ["qfi", *QFI_PAIRS[pair], "--N", str(n), "--aux", num(a), "--lam", lam,
                    "--step", step, "--engine", "both"] + fmt_args(fmt)
            return argv, checks.check_qfi(pair, n, a, 1, 80)

        note = ("ROADMAP item 2: NotGaussianError from the Gaussian engine aborts "
                "the Fock engine" if pair == "X^2|P^2" else "")
        return Cell(f"{tag}:qfi {pair} N={n} aux={aux:.3f}", build, note)

    @staticmethod
    def _known_trust_hole():
        """The exact input ROADMAP item 2 reproduces: Fock QFI 9814 marked
        trusted where the exact value is 14842.  Later rounds vary only
        --nu, which changes the error bound column and nothing else."""
        base = ["qfi", "--preset", "squeeze-inf", "--N", "10", "--aux", "0.25", "--lam",
                "0", "--step", "1e-5", "--dim", "80", "--engine", "both"]

        def build(r):
            nu = r + 1
            argv = base + (["--nu", str(nu)] if r else [])
            return argv, checks.check_qfi("squeeze-inf", 10, 0.25, nu, 80)

        return Cell("known:qfi squeeze-inf N=10 aux=0.25 step=1e-5 dim=80", build,
                    "ROADMAP item 2: leakage check reads only the top Fock level")

    @staticmethod
    def _generator(tag, fmt, preset, n, aux):
        def build(r):
            a = jitter(aux, r)
            argv = ["generator", "--preset", preset, "--N", str(n), "--aux", num(a)]
            return argv + fmt_args(fmt), checks.check_generator(preset, n, a)

        return Cell(f"{tag}:generator {preset} N={n}", build)

    @staticmethod
    def _example1(tag, fmt, preset, k, s):
        def build(r):
            sv = jitter(s, r)
            argv = ["example1", "--preset", preset, "--N", f"8..{k}", "--s", num(sv)]
            return argv + fmt_args(fmt), checks.check_example1(preset, range(8, k + 1), sv)

        return Cell(f"{tag}:example1 {preset} N=8..{k}", build)

    @staticmethod
    def _fig2b(tag, fmt, size, extra, rng):
        # Round r takes the r-th of the size-subsets of 1..24 in a seeded
        # order; once they are all used, kmax grows by one per pass, so no
        # two rounds of a run are alike and round r depends on r alone.
        subsets = list(itertools.combinations(range(1, 25), size))
        random.Random(rng.random()).shuffle(subsets)

        def build(r):
            n_list = list(subsets[r % len(subsets)])
            k_max = max(n_list) + 1 + extra + r // len(subsets)
            argv = ["fig2b", "--N", ",".join(map(str, n_list)), "--kmax", str(k_max)]
            return argv + fmt_args(fmt), checks.check_fig2b(n_list, k_max)

        return Cell(f"{tag}:fig2b {size} values kmax=max+{1 + extra}", build)

    @staticmethod
    def _dvbound(tag, fmt, pair, m, g):
        def build(r):
            gv = jitter(g, r)
            argv = ["dvbound", "--pair", pair, "--N", f"1..{m}", "--gbar", num(gv)]
            return argv + fmt_args(fmt), checks.check_dvbound(pair, range(1, m + 1), gv)

        return Cell(f"{tag}:dvbound {pair} N=1..{m}", build)


WORKLOADS = {w.name: w for w in (OracleScans, TowerClassify, PointQueries)}
