"""Rewrite ``golden.json``: the paper-pipeline figures digest of the
benchmark's city at its scale.

Run from the repository root after a change that is meant to alter the
figures (and only then)::

    PYTHONPATH=src python3 -m perfbench.make_golden
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from perfbench.workloads import paper_pipeline


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        state = {"seed": 0, "workdir": Path(tmp)}
        out = paper_pipeline.run_pipeline(state, Path(tmp) / "logs")
    path = paper_pipeline.GOLDEN_PATH
    table = json.loads(path.read_text()) if path.exists() else {}
    table.setdefault(paper_pipeline.NAME, {})[paper_pipeline.scale_key()] = out["digest"]
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"{paper_pipeline.scale_key()}: {out['digest']}")


if __name__ == "__main__":
    main()
