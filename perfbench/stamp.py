"""The environment stamp every result carries, and the stamp-aware compare.

A benchmark number is only comparable with another taken under the same
core count, BLAS build and thread count, kernel backend, shard count and
interpreter.  :func:`environment_stamp` records them; :func:`compare`
refuses to compare two result files whose stamps differ.

Compare two saved results (``run.py --out FILE``)::

    python3 perfbench/stamp.py before.json after.json

It exits 2, naming every differing field, when the stamps differ.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys

#: Environment ``run.py`` pins before numpy is first imported.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def usable_cores() -> int:
    """Cores this process may run on (affinity-aware ``nproc``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _openblas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "vendor": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "threads": _openblas_threads(),
        "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def environment_stamp(shards: int) -> dict:
    """Everything a measurement depends on besides the code itself."""
    import numpy as np

    from repro.kernels import backend_info

    return {
        "nproc": usable_cores(),
        "blas": _blas(),
        "kernels": backend_info(),
        "shards": shards,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def stamp_differences(a: dict, b: dict, prefix: str = "") -> list[str]:
    """Dotted paths of every field that differs between two stamps."""
    out = []
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key), b.get(key)
        if isinstance(left, dict) and isinstance(right, dict):
            out += stamp_differences(left, right, f"{prefix}{key}.")
        elif left != right:
            out.append(f"{prefix}{key}: {left!r} != {right!r}")
    return out


def compare(before: dict, after: dict) -> list[str]:
    """Per-metric ratio lines; raises ValueError when the stamps differ."""
    diffs = stamp_differences(before["stamp"], after["stamp"])
    if diffs:
        raise ValueError("environment stamps differ: " + "; ".join(diffs))
    if before["workload"] != after["workload"]:
        raise ValueError(f"workloads differ: {before['workload']!r} "
                         f"!= {after['workload']!r}")
    lines = []
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            continue
        ratio = new["value"] / old["value"] if old["value"] else float("nan")
        lines.append(f"{name:40s} {old['value']:12.4f} -> {new['value']:12.4f} "
                     f"{new['unit']:6s} x{ratio:.3f}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: stamp.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    try:
        lines = compare(*records)
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
