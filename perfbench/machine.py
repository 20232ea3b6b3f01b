"""The machine a run measured on: CPU, caches, Python, numpy and BLAS."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def _caches() -> list[dict]:
    caches = []
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            caches.append({
                "level": int((index / "level").read_text()),
                "type": (index / "type").read_text().strip(),
                "bytes": _size_bytes((index / "size").read_text()),
            })
        except (OSError, ValueError):
            continue
    return caches


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}


def describe() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
