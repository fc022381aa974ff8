"""One line describing the machine and the numerical stack."""

from __future__ import annotations

import os
import platform
from importlib.metadata import PackageNotFoundError, version


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # the config layout differs between numpy versions
        return "unknown BLAS"


def _version(package: str) -> str:
    # Read from the metadata, so that scipy is not imported before the
    # timed phase and does not count in the peak resident set.
    try:
        return version(package)
    except PackageNotFoundError:
        return "absent"


def machine_line(cpu: int | None = None) -> str:
    import numpy as np

    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    pinned = f"pinned to CPU {cpu}" if cpu is not None else "not pinned"
    return (
        f"{_cpu_model()}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}; "
        f"Python {platform.python_version()}, numpy {np.__version__}, scipy {_version('scipy')}, "
        f"{_blas()}, BLAS threads {threads}, {pinned}"
    )
