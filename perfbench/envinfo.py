"""Environment stamp carried by every benchmark record."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def git_sha(root: Path) -> str:
    """HEAD of ``root``'s repository, or ``"unknown"`` for an exported
    tree that is not one."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def stamp(root: Path, workload: str, seed: int, trace: bool) -> dict:
    import networkx
    import numpy
    import scipy

    from repro.core.kernels import backend_info
    from repro.obs import enabled

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "telemetry": enabled(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "kernel_backend": backend_info(),
    }
