"""Golden outputs: the tower-classify pool's commands print exactly the
bytes recorded in ``helpers.TOWER_POOL``, and the oracle-scans pool's those
in ``helpers.ORACLE_POOL`` (fig3's Gaussian CFI columns blanked), so a
kernel, formatter or oracle change shows which cells it moves."""

import hashlib
import re

import pytest

from ncmetro.cli import main
from helpers import ORACLE_POOL, TOWER_POOL, blank_columns

_TIMING = re.compile(r'"(duration_s|timestamp)": [^,\n]*')


@pytest.mark.parametrize("argv, code, digest, stderr", TOWER_POOL,
                         ids=[f"{argv[2]} | {argv[4]}" for argv, *_ in TOWER_POOL])
def test_tower_pool_output_is_pinned(argv, code, digest, stderr, capsys):
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
