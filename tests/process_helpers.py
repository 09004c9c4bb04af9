"""Running the package in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import cb2cf

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(*args: str, **env: str) -> str:
    """stdout of ``python *args`` with this package importable and no BLAS
    thread variable set but those in ``env``; fails on a nonzero exit."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cb2cf.__file__).parents[1]), base.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env={**base, **env},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
