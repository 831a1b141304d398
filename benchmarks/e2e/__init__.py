"""GraphTides end-to-end benchmark: four fixed-duration workloads.

Run ``python -m benchmarks.e2e run --workload NAME --seed S`` from the
repository root; see ``benchmarks/e2e/README.md``.  The package puts the
repository's ``src`` on ``sys.path``, so no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The repository root: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = Path(__file__).resolve().parents[2]

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
