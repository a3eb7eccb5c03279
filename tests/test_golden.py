"""Golden outputs: the tower-classify pool's commands print exactly the
bytes recorded in ``helpers.TOWER_POOL``, the point-queries pool's those in
``helpers.POINT_POOL``, and the oracle-scans pool's those in
``helpers.ORACLE_POOL`` and ``helpers.ORACLE_POOL_2`` (fig3's Gaussian CFI
columns blanked), so a kernel,
formatter, parser or oracle change shows which cells it moves.  Each pool
is checked against the benchmark's own workload, so a benchmark revision
cannot leave a pool out of date.  Digests of the exact tower levels (the
pool's pairs, CSV cells included, and random pairs) and of lone
commutators in both argument orders pin the kernel's bits where no output
prints them."""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from ncmetro import DegreeOverflowError, ValidationError, commutator, ladder, parse_operator
from ncmetro.cli import main
from helpers import (ORACLE_POOL, ORACLE_POOL_2, POINT_POOL, TOWER_POOL, blank_columns,
                     random_hermitian_polynomial, random_polynomial, tower_pool_pairs)

_TIMING = re.compile(r'"(duration_s|timestamp)": [^,\n]*')

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("argv, code, digest, stderr", TOWER_POOL,
                         ids=[f"{argv[2]} | {argv[4]}" for argv, *_ in TOWER_POOL])
def test_tower_pool_output_is_pinned(argv, code, digest, stderr, capsys):
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    text = _TIMING.sub(r'"\1": null', out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert err == stderr


@pytest.mark.parametrize("argv, code, digest, stderr", POINT_POOL,
                         ids=[" ".join(argv) for argv, *_ in POINT_POOL])
def test_point_pool_output_is_pinned(argv, code, digest, stderr, capsys):
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    text = _TIMING.sub(r'"\1": null', out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert err == stderr


@pytest.mark.parametrize("argv, code, digest", ORACLE_POOL,
                         ids=[" ".join(argv[:1] + argv[-4:]) for argv, *_ in ORACLE_POOL])
def test_oracle_pool_output_is_pinned(argv, code, digest, capsys):
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(blank_columns(out).encode()).hexdigest() == digest
    assert err == ""


@pytest.mark.parametrize("argv, code, digest", ORACLE_POOL_2,
                         ids=[" ".join(argv[:1] + argv[-6:]) for argv, *_ in ORACLE_POOL_2])
def test_second_oracle_pool_output_is_pinned(argv, code, digest, capsys):
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(blank_columns(out).encode()).hexdigest() == digest
    assert err == ""


def _unprinted(*args, **kwargs):
    raise AssertionError("computed for output that CSV does not print")


_CSV_CELLS = ([(argv, code, digest, "") for argv, code, digest in ORACLE_POOL]
              + [cell for cell in POINT_POOL if "json" not in cell[0]])


@pytest.mark.parametrize("argv, code, digest, stderr", _CSV_CELLS,
                         ids=[" ".join(argv) for argv, *_ in _CSV_CELLS])
def test_csv_pools_neither_fit_nor_format(argv, code, digest, stderr, capsys, monkeypatch):
    # only JSON prints the log-log fit and the generator's printable form
    monkeypatch.setattr("ncmetro.experiments.fit_loglog_slope", _unprinted)
    monkeypatch.setattr("ncmetro.cli.format_polynomial", _unprinted)
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(blank_columns(out).encode()).hexdigest() == digest
    assert err == stderr


def _load_perfbench(name: str, monkeypatch):
    """A benchmark module loaded from its file, registered under its own
    name (``workloads`` imports ``checks``) until the test ends."""
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, pool", [("tower-classify", TOWER_POOL),
                                            ("oracle-scans", ORACLE_POOL),
                                            ("point-queries", POINT_POOL)])
def test_pools_are_the_workloads_seed_1_round_0(workload, pool, monkeypatch):
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    _load_perfbench("checks", monkeypatch)
    workloads = _load_perfbench("workloads", monkeypatch)
    commands = [op.argv for op in workloads.WORKLOADS[workload](1).round(0)]
    # TOWER_POOL lists its cells in design order, the others in round order
    assert sorted(commands) == sorted(list(argv) for argv, *_ in pool)


def test_second_oracle_pool_is_seed_7919_round_0_and_seed_1_round_1(monkeypatch):
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    _load_perfbench("checks", monkeypatch)
    workloads = _load_perfbench("workloads", monkeypatch)
    scans = workloads.WORKLOADS["oracle-scans"]
    commands = [op.argv for op in scans(7919).round(0) + scans(1).round(1)]
    assert commands == [list(argv) for argv, *_ in ORACLE_POOL_2]


def test_outputs_do_not_depend_on_run_order(capsys, monkeypatch):
    # the failed share of a benchmark run is exact per seed only while no
    # command's output depends on what ran before it in the process: every
    # memo and cache (towers, decompositions, probes, quadratures) must
    # return what a cold process computes
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    _load_perfbench("checks", monkeypatch)
    workloads = _load_perfbench("workloads", monkeypatch)
    commands = [op.argv for name in ("oracle-scans", "point-queries")
                for r in (0, 1) for op in workloads.WORKLOADS[name](1).round(r)]

    def run(argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, _TIMING.sub(r'"\1": null', out), err

    forward = [run(argv) for argv in commands]
    backward = [run(argv) for argv in reversed(commands)][::-1]
    assert len(commands) > 100
    for argv, first, second in zip(commands, forward, backward):
        assert first == second, argv


def _digest_levels(digest, tower) -> None:
    for level in tower:
        keys, coefficients = ladder._exact_key(level)
        digest.update(repr(keys).encode())
        digest.update(coefficients)


def _tower_digest(pairs, cap: int) -> str:
    """sha256 over each pair's kind and every level's exact key, or over the
    error text of a pair whose tower overflows."""
    digest = hashlib.sha256()
    for g, h in pairs:
        try:
            report = ladder._classify(g, h, cap)
        except (DegreeOverflowError, ValidationError) as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        digest.update(report.kind.encode())
        _digest_levels(digest, report.tower)
    return digest.hexdigest()


def _unequal_pairs(seed: int, count: int):
    """``count`` random generic-coefficient pairs whose term counts differ, so
    the kernel runs over one operand in one order and the other in the other."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        a = random_polynomial(rng, int(rng.integers(1, 6)), 0.4)
        b = random_polynomial(rng, int(rng.integers(1, 6)), 0.4)
        if len(a.terms) != len(b.terms):
            pairs.append((a, b))
    return pairs


def test_pool_towers_keep_their_bits():
    # every level of every tower-classify pair, CSV cells included
    pairs = [(parse_operator(g), parse_operator(h)) for g, h in tower_pool_pairs()]
    assert _tower_digest(pairs, ladder.DEFAULT_ADJOINT_CAP) == (
        "6f754c4a3ca982638df9d3f619f253dcfcb1402410839894fcc50cf2e50c4154")


def test_random_towers_keep_their_bits():
    rng = np.random.default_rng(2401)
    pairs = [(random_hermitian_polynomial(rng, int(rng.integers(1, 5))),
              random_hermitian_polynomial(rng, int(rng.integers(1, 5)))) for _ in range(40)]
    assert _tower_digest(pairs, 12) == (
        "931c082bac5bd039877542d5c1342419efba9729aea96b36f3d7c42641735143")


def test_lone_commutators_keep_their_bits():
    # a lone commutator is the first step of a tower, in both argument orders
    digest = hashlib.sha256()
    for a, b in _unequal_pairs(2402, 40):
        _digest_levels(digest, (commutator(a, b), commutator(b, a)))
    assert digest.hexdigest() == (
        "f77bf98355c88d07620050023b97f8390b3ccb2e10553392dc1e703979950b46")
