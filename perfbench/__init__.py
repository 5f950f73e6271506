"""perfbench: the repository's benchmark.

One harness, four named workloads, an end-to-end ledger and an
outside-in per-layer trace for the DD-POLICE simulators. Nothing under
``src/`` knows this package exists; see ``perfbench/README.md``.
"""

import sys
from pathlib import Path

#: Repository (or checkout) root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
#: Where the program under test lives; absent in a benchmark-only tree.
SRC = ROOT / "src"


def add_src_to_path() -> None:
    """Make ``repro`` importable without ``PYTHONPATH=src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
