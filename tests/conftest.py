import sys
from pathlib import Path

import pytest

# Make the sibling helpers module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

from ncmetro import fock, ladder  # noqa: E402


@pytest.fixture(autouse=True)
def _cold_caches():
    """Start every test with empty process-wide caches (decompositions and
    classified pairs), so no test passes on what an earlier one left."""
    fock._cached_evolver.cache_clear()
    ladder._reports.cache_clear()
