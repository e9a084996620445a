"""Helpers shared by the benchmark's workloads: paths, child processes,
statistics, digests, peak memory and the run fingerprint.

Nothing here imports the program (``repro``); the workload modules do,
after :func:`require_program` has checked that its sources are present.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Everything the benchmark writes (artifacts, the cffi build cache).
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

#: How long a child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 150.0
#: BLAS threads of every process the benchmark starts.  On a 2-vCPU host a
#: two-thread BLAS call waits for whichever vCPU the hypervisor has taken
#: away, and in the gateway workload both vCPUs are already busy.
BLAS_THREADS = "1"


def require_program() -> None:
    """Exit with status 2 unless the program's sources are in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: program sources not found under {SRC}; run the "
            "benchmark from the root of a full checkout\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # The cffi kernel build and any temporary files stay in the checkout.
    os.environ.setdefault("REPRO_CFFI_CACHE", str(BUILD_DIR / "cffi"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def child_env() -> dict[str, str]:
    """Environment for child processes: the program on the path, plus the
    settings :func:`require_program` made."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``python3 perfbench/<script> args...`` to completion and return
    the JSON object on the last line of its standard output."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {args[0]} exited with {proc.returncode}"
        )
    return last_json_line(proc.stdout)


def last_json_line(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("child printed no result")
    return json.loads(lines[-1])


def emit(obj: dict) -> None:
    """Print one JSON object as a single line and flush."""
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``;
    ``inf`` entries (failed operations) sort last."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == math.inf:
        return xs[hi] if pos > lo or xs[lo] == math.inf else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def _ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0
        i = j + 1
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation (ties get their average rank)."""
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("spearman needs two samples of equal length >= 2")
    ra, rb = _ranks(list(a)), _ranks(list(b))
    ma, mb = sum(ra) / len(ra), sum(rb) / len(rb)
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    if va == 0 or vb == 0:
        return 0.0
    return cov / math.sqrt(va * vb)


# ----------------------------------------------------------------------
# outputs, memory, fingerprint
# ----------------------------------------------------------------------
def array_digest(arr) -> str:
    """SHA-256 over an array's dtype, shape and bytes."""
    import numpy as np

    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
    h.update(arr.tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size (``VmHWM``) of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _blas_threads() -> str:
    """Thread count of the OpenBLAS numpy loaded, if it exposes one."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {
                line.split()[-1] for line in fh
                if "blas" in line.split()[-1].lower()
                and ".so" in line.split()[-1]
            }
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_probe_ms() -> float:
    """Median wall time of a fixed pure-Python loop, which runs no program
    code: when two runs of the same commit disagree, a matching change in
    this figure says the host, not the program, changed speed."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - t0) * 1e3)
    return median(samples)


def fingerprint(workload: str, seed: int) -> dict:
    """What a reader needs to compare two runs: kernel backend, compiled
    tiers, BLAS threads, cores, versions, commit, the workload seed and
    how fast the host ran a fixed loop."""
    import importlib.util

    import numpy as np
    from repro.core import backends

    return {
        "workload": workload,
        "seed": seed,
        "kernel_backend": backends.get_backend().name,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "cffi_available": importlib.util.find_spec("cffi") is not None,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "host_probe_ms": host_probe_ms(),
    }


def out_dir(workload: str, seed: int, trace: int) -> Path:
    path = BUILD_DIR / "runs" / f"{workload}-seed{seed}-trace{trace}"
    path.mkdir(parents=True, exist_ok=True)
    return path
