"""Golden outputs: the tower-classify pool's commands print exactly the
bytes recorded in ``helpers.TOWER_POOL``, the point-queries pool's those in
``helpers.POINT_POOL``, and the oracle-scans pool's those in
``helpers.ORACLE_POOL`` (fig3's Gaussian CFI columns blanked), so a kernel,
formatter, parser or oracle change shows which cells it moves.  Each pool
is checked against the benchmark's own workload, so a benchmark revision
cannot leave a pool out of date."""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from ncmetro.cli import main
from helpers import ORACLE_POOL, POINT_POOL, TOWER_POOL, blank_columns

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
