"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 10 --trace 0

Prints one metric per line, a ``detail:`` line (environment, artifact
hashes, every sample) and, last, the JSON result line.  The same report is
kept in ``.perfbench_work/<workload>/report.json``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread per process keeps hard's two pool workers within nproc.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main() -> int:
    if not (SRC / "imufresh" / "__init__.py").is_file():
        print(f"perfbench: imufresh sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy, so only after the thread limits are set

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
