"""Put the checkout's ``src/`` first on ``sys.path``, or exit non-zero.

The benchmark measures the program of the checkout it sits in, never an
installed copy, so a directory without ``src/repro`` is an error.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no src/repro next to {Path(__file__).parent.name}/; "
             "run from the root of a repository checkout")
if sys.path[0] != str(SRC):
    sys.path.insert(0, str(SRC))
