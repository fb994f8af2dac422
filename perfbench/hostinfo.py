"""Host fingerprint and process resource readings; reads settings, changes none."""

from __future__ import annotations

import os
import platform
import resource
import time
from typing import Dict, Union

import numpy as np


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return "unavailable"


def _selected(setting: str) -> str:
    """The bracketed choice of a sysfs multiple-choice file, e.g. ``madvise``."""
    text = _read(setting)
    if "[" in text:
        return text.split("[", 1)[1].split("]", 1)[0]
    return text


def _meminfo_mb(field: str, path: str = "/proc/meminfo") -> float:
    for line in _read(path).splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    return float("nan")


def calibration_s() -> float:
    """Median time of a fixed CPU kernel (NumPy sort plus a Python loop)."""
    data = np.random.default_rng(12345).integers(0, 1 << 32, size=200_000, dtype=np.uint64)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(data)
        total = 0
        for i in range(100_000):
            total += i ^ (i >> 3)
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


def _numpy_madvise_hugepage() -> Union[bool, str]:
    try:  # NumPy 2 keeps the flag in a private module
        from numpy._core.multiarray import _get_madvise_hugepage
    except ImportError:
        return "unknown"
    return bool(_get_madvise_hugepage())


def fingerprint() -> Dict[str, Union[str, int, float, bool]]:
    thp = "/sys/kernel/mm/transparent_hugepage/"
    return {
        "nproc": os.cpu_count() or 0,
        "thp_enabled": _selected(thp + "enabled"),
        "thp_defrag": _selected(thp + "defrag"),
        "numpy_madvise_hugepage": _numpy_madvise_hugepage(),
        "mem_total_mb": round(_meminfo_mb("MemTotal"), 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": calibration_s(),
    }


def rss_mb() -> float:
    return _meminfo_mb("VmRSS", "/proc/self/status")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def usage() -> Dict[str, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"user_s": ru.ru_utime, "sys_s": ru.ru_stime,
            "minor_faults": float(ru.ru_minflt), "rss_mb": rss_mb(),
            "anon_huge_mb": _meminfo_mb("AnonHugePages", "/proc/self/smaps_rollup")}
