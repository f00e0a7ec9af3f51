"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
    python3 -m unittest discover -s perfbench/tests -t .

Importing this package puts the checkout's src/ and root on sys.path, so
the tests run without installing the package.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
