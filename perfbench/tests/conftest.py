"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``
from the repository root."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
os.environ.setdefault("REPRO_KERNEL_CACHE", str(ROOT / ".bench_build" / "kernels"))
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
