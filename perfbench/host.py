"""Host facts stamped on every run record, so records from different
commits and machines can be told apart."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes() -> Dict[str, str]:
    """``{"L1d": "48K", ...}`` of CPU 0, from sysfs when it is there."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[f"L{level}{suffix}"] = size
    return sizes


def host_facts(root: Path, seed: int) -> Dict[str, Any]:
    import numpy

    # only the checkout's own repository: git would otherwise walk up
    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() \
        else None
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "seed": seed,
    }
