"""Run environment for the benchmark scripts.

`pin_environment` must run before numpy is imported: OpenBLAS reads its
thread count once, when the library loads. It also puts the checkout's own
`src/` first on the import path and refuses to run without it, so the
benchmark always measures the code beside it, never an installed copy.
"""

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread everywhere: no machine has fewer cores, so runs stay comparable
# between machines, and label generation stays serial.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CPPNET_THREADS": "1",
}


_pinned = False


class MissingSource(RuntimeError):
    """The checkout has no `src/cppnet` package to benchmark."""


def pin_environment() -> None:
    global _pinned
    if not (SRC / "cppnet" / "__init__.py").is_file():
        raise MissingSource(f"no cppnet package under {SRC}")
    if _pinned:
        return
    if "numpy" in sys.modules:
        raise RuntimeError("pin_environment must run before numpy is imported")
    os.environ.update(PINNED_ENV)
    # first even when src/ is already on the path (PYTHONPATH=src, editable install)
    sys.path.insert(0, str(SRC))
    import cppnet

    if Path(cppnet.__file__).resolve().parent != SRC / "cppnet":
        raise MissingSource(f"imported cppnet from {cppnet.__file__}, not from {SRC}")
    _pinned = True


def environment_record() -> dict:
    """Versions and thread settings that the timings depend on."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        **{key: os.environ[key] for key in PINNED_ENV},
    }
