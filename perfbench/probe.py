"""Time one workload's set-up in a fresh interpreter; prints seconds.

    python3 perfbench/probe.py WORKLOAD SEED SCRATCH_DIR

The interpreter's own start is not counted; the ``repro`` imports,
offline prep, run-directory creation and, for ``campaign_fabric``,
the coordinator's start are (see ``workloads.setup_once``).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import setup_once  # noqa: E402

if __name__ == "__main__":
    workload, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(f"{setup_once(workload, seed, scratch):.9f}")
