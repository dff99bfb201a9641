"""Process set-up shared by the benchmark's entry points.

Import this before numpy: it pins BLAS and OpenMP to one thread, which only
takes effect if done before the libraries load, and it puts the checkout's
``src`` first on ``sys.path`` so the benchmark measures the source tree it
sits in and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _var in THREAD_VARS:
    os.environ[_var] = "1"


def use_checkout_source() -> bool:
    """Put ``src`` first on the import path; False if the package is missing."""
    if not (SRC / "poleswap" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True
