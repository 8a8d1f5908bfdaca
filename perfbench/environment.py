"""Environment header attached to every benchmark result.

BLAS thread counts are read with ``ctypes`` straight from the OpenBLAS
builds that numpy and scipy bundle (``scipy_openblas``), because
``threadpoolctl`` is not available.  The libraries are found through
``/proc/self/maps`` after numpy and scipy have loaded them.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _loaded_openblas() -> list[str]:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    return sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps)))


def _blas_info(path: str) -> dict:
    """Config string, core name and effective thread count of one OpenBLAS."""
    lib = ctypes.CDLL(path)
    info = {"library": Path(path).name}
    # 64-bit-integer builds (numpy's) suffix every symbol with ``64_``.
    for suffix in ("64_", ""):
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        if get_threads is None:
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        get_core = getattr(lib, f"scipy_openblas_get_corename{suffix}")
        get_core.argtypes = []
        get_core.restype = ctypes.c_char_p
        config = get_config().decode(errors="replace")
        version = re.search(r"OpenBLAS\s+(\S+)", config)
        info.update(
            version=version.group(1) if version else config,
            config=config,
            core=get_core().decode(errors="replace"),
            threads=int(get_threads()),
        )
        break
    return info


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment(root: Path) -> dict:
    """Cores, BLAS, thread variables, start method, versions, commit."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "cores": cores,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": [_blas_info(p) for p in _loaded_openblas()],
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }
