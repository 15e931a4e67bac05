"""One cold set-up of a workload, timed from outside by ``run.py``.

Usage: python probe_setup.py WORKLOAD SEED WORKDIR

Imports qchansim from the checkout in a fresh interpreter and runs the
workload's set-up (input generation and warm-up), then exits.
"""

import importlib
import sys
from pathlib import Path

import common


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    common.use_checkout_src()
    importlib.import_module(f"wl_{workload}").setup(seed, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
