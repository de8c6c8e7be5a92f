"""Machine block for the benchmark output: CPU, caches, Python, numpy, BLAS,
and a measured sustained read bandwidth that bounds ``embeddings.scan_gbps``.

Run as a child of the benchmark (with the same BLAS thread cap as the semdiv
commands) it prints one JSON object:

    python3 perfbench/machine.py [--bandwidth]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import subprocess
import sys
import time

_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def _size(text: str) -> int | None:
    """Bytes in a cache size such as "32 MiB (1 instance)" or "512 KB"."""
    match = re.match(r"\s*([\d.]+)\s*([KMG])", text)
    return int(float(match.group(1)) * _UNITS[match.group(2)]) if match else None


def cpu_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor() or None}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    fields = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    fields = {k.strip(): v.strip() for k, v in fields.items()}
    if fields.get("Model name"):
        info["cpu_model"] = fields["Model name"]
    for level in ("L2", "L3"):
        raw = fields.get(f"{level} cache")
        info[f"{level.lower()}_cache"] = raw
        info[f"{level.lower()}_bytes"] = _size(raw) if raw else None
    if info["l3_bytes"] is None:  # no lscpu: /proc/cpuinfo names one cache level
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("cache size"):
                        info["l3_cache"] = line.split(":", 1)[1].strip() + " (cpuinfo)"
                        info["l3_bytes"] = _size(line.split(":", 1)[1])
                        break
        except OSError:
            pass
    return info


def blas_info(np) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    # ask the loaded OpenBLAS how many threads it will use
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def read_bandwidth_gbps(np, nbytes: int, repeats: int = 5) -> dict:
    """Best-of-``repeats`` read bandwidth over a float64 array of ``nbytes``:
    one thread (an einsum reduction, like the per-pair scan) and all BLAS
    threads (a dot product of the array with itself, one read per element)."""
    data = np.ones(nbytes // 8)
    kernels = {"1thread": lambda: np.einsum("i->", data), "blas": lambda: np.dot(data, data)}
    result = {}
    for name, kernel in kernels.items():
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        result[f"read_gbps_{name}"] = data.nbytes / best / 1e9
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description="Describe this machine as JSON.")
    parser.add_argument("--bandwidth", action="store_true",
                        help="also measure read bandwidth on an array of 4x the L3 cache")
    args = parser.parse_args()
    import numpy as np

    info = cpu_info()
    info["python"] = platform.python_version()
    info["numpy"] = np.__version__
    info.update(blas_info(np))
    if args.bandwidth:
        array_bytes = 4 * (info["l3_bytes"] or 32 << 20)
        info["read_array_mb"] = array_bytes / 1e6
        info.update(read_bandwidth_gbps(np, array_bytes))
    json.dump(info, sys.stdout)
    print()


if __name__ == "__main__":
    main()
