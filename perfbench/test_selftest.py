"""The tracing self-test as a pytest case (about 20 s).

    python3 -m pytest perfbench/test_selftest.py -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import selftest  # noqa: E402


def test_tracing_keeps_outputs_and_counts_repeat():
    assert selftest.main() == 0
