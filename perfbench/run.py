"""Entry point of the fairprobe benchmark; see ``bench.py``.

    python3 perfbench/run.py --workload bulk-harvest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

It runs the program from the sources under ``src/`` of the checkout it
sits in, and stops with an error when they are missing.
"""

import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"

# Spawned landscape and client processes re-run this file under another
# name; they inherit sys.path and must not start a benchmark of their own.
if __name__ == "__main__":
    if not (SOURCE / "fairprobe" / "pipeline.py").is_file():
        sys.exit(f"fairprobe sources not found under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import bench

    sys.exit(bench.main())
