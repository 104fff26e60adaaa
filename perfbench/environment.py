"""What a result was measured on, and the thread pinning applied first.

`pin_threads` must run before numpy is imported: OpenBLAS and OpenMP read
their thread counts once, at load time. Two results are comparable only when
every field of `record()` agrees; `differences` lists the fields that do not.
The Monte Carlo path and its random stream change with `use_numba`.
"""

import os
import platform

#: BLAS / OpenMP threads. One: on a small shared machine a second BLAS
#: thread waits at every barrier for a core a neighbour may hold, which
#: doubles the run-to-run spread of the dense solves.
MAX_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    """Cores this process may run on, as `nproc` reports them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads():
    threads = min(MAX_THREADS, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _blas_version(config):
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def record():
    import numpy
    import scipy

    from nesth2 import _kernels

    return {
        "nproc": nproc(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy.show_config(mode="dicts")),
        "scipy_blas": _blas_version(scipy.show_config(mode="dicts")),
        "use_numba": bool(_kernels.USE_NUMBA),
    }


def differences(left, right):
    """Names of the environment fields on which two records disagree."""
    return sorted(key for key in set(left) | set(right)
                  if left.get(key) != right.get(key))
