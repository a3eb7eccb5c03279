"""One set-up sample: import ncmetro from ``src/`` and run one warm-up op.

Usage: python3 perfbench/setup_probe.py '<warm-up argv as JSON>'

Prints one JSON line with the CLOCK_MONOTONIC reading at the end of the
warm-up op, which the parent compares with its own reading taken just
before it started this interpreter, so interpreter start counts as set-up.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    argv = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    from ncmetro.cli import main as cli_main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    print(json.dumps({"end": time.clock_gettime(time.CLOCK_MONOTONIC)}))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
