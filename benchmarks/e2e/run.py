"""Run one workload of the end-to-end benchmark (the BENCHMARK.json command).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric, or
with ``--trace 1`` every per-layer metric, each with its unit.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Replace this script's own directory on the path, so the benchmark's
# modules are only importable as the ``benchmarks.e2e`` package.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.cli import contract_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(contract_main())
