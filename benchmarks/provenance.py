"""Host provenance for benchmark reports.

Timings in a committed BENCH report are meaningless without knowing what
produced them: which BLAS numpy was linked against, how many threads it
was allowed, and which revision of this repo ran.  ``host_provenance()``
collects that once per run; every benchmark JSON embeds it under
``"host"``.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

import numpy as np

#: Environment variables that cap BLAS threading, in precedence order.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas_info() -> dict:
    """The BLAS/LAPACK libraries numpy was built against, best effort."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:            # numpy < 1.25 has no dicts mode
        return {}
    except Exception:
        return {}
    info = {}
    for section in ("blas", "lapack"):
        entry = (config.get("Build Dependencies") or {}).get(section) or {}
        if entry:
            info[section] = {
                "name": entry.get("name"),
                "version": entry.get("version"),
            }
    return info


def _git(*args: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None


def _git_revision() -> str | None:
    """Short HEAD revision, with ``-dirty`` appended when tracked files
    differ from it: a record made from an uncommitted tree must not name
    the parent as what it measured."""
    out = _git("rev-parse", "--short", "HEAD")
    rev = out.stdout.strip() if out is not None else ""
    if out is None or out.returncode != 0 or not rev:
        return None
    diff = _git("diff", "--quiet", "HEAD", "--")
    return f"{rev}-dirty" if diff is not None and diff.returncode == 1 \
        else rev


def host_provenance() -> dict:
    """Machine/toolchain context for one benchmark run."""
    thread_caps = {var: os.environ[var] for var in _THREAD_ENV_VARS
                   if var in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_thread_caps": thread_caps,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
        "argv": sys.argv[1:],
    }
