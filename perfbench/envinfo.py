"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import platform
from pathlib import Path

import numpy as np

OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout at ``root`` read from ``.git``, or None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """SHA-256 of the package sources, which names the code outside git too."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "heatlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library itself."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_THREAD_QUERIES:
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def filesystem_of(path: Path) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    path = str(path.resolve())
    best = ("", "unknown")
    with open("/proc/self/mounts") as mounts:
        for line in mounts:
            _, point, fstype = line.split()[:3]
            inside = path == point or path.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(best[0]):
                best = (point, fstype)
    return f"{best[1]} on {best[0]}"


def environment(root: Path, outdir: Path) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(root) or "unavailable (not a git checkout)",
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "output_filesystem": filesystem_of(outdir),
    }
