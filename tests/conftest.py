import sys
from pathlib import Path

import pytest

from trxsave import parts

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def part_counts(monkeypatch):
    """The part counts ``run_parts`` is called with, in call order."""
    counts = []
    real = parts.run_parts

    def counting(fn, split):
        counts.append(len(split))
        return real(fn, split)

    monkeypatch.setattr(parts, "run_parts", counting)
    return counts
