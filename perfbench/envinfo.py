"""BLAS thread pinning and the environment record of a benchmark run.

:func:`pin_threads` must run before numpy or scipy is first imported: the
OpenBLAS pools size themselves from these variables when the libraries
load, so setting them later (as ``histlearn --threads`` does in-process)
has no effect.  :func:`blas_thread_counts` reads the count in effect back
from each OpenBLAS copy through ctypes, so a run can prove it was pinned.
"""

import ctypes
import glob
import os
import platform
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# The wheels of numpy and scipy each bundle their own OpenBLAS; these are the
# library-name pattern under ``<package>.libs`` and the getter each exports.
_OPENBLAS = {
    "numpy": ("libscipy_openblas64_*.so*", "scipy_openblas_get_num_threads64_"),
    "scipy": ("libscipy_openblas-*.so*", "scipy_openblas_get_num_threads"),
}


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_checkout_source():
    """Import histlearn from this checkout's ``src`` and nowhere else.

    Exits with status 1 when the checkout holds no package, so a copy of the
    benchmark on its own fails instead of measuring some installed version.
    """
    if not os.path.isfile(os.path.join(SRC, "histlearn", "__init__.py")):
        sys.exit(f"perfbench: no histlearn package under {SRC}")
    sys.path.insert(0, SRC)


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def blas_thread_counts():
    """``{package: threads}`` for each bundled OpenBLAS; None where not found."""
    import numpy
    import scipy

    counts = {}
    for module in (numpy, scipy):
        name = module.__name__
        pattern, symbol = _OPENBLAS[name]
        libdir = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), name + ".libs")
        paths = sorted(glob.glob(os.path.join(libdir, pattern)))
        counts[name] = None
        if paths:
            getter = getattr(ctypes.CDLL(paths[0]), symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[name] = int(getter())
    return counts


def environment():
    """Versions, BLAS build and CPU count that a run's numbers depend on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_thread_counts(),
    }
