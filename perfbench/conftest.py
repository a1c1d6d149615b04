"""Put the repository root and ``src/`` on ``sys.path`` for the benchmark's
own tests (``python3 -m pytest perfbench``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
