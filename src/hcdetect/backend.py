"""Kernel backend selection.

The hot scalar kernels, the normal quantile ``ndtri`` and the two-sided
p-value map ``two_sided_p`` (erfc of the scaled |z|), exist twice: a plain
C library (``_native.c``, built by ``setup.py`` into the package as the
``hcdetect._native`` extension file and loaded with ctypes) and a
pure-numpy fallback (``hcdetect._purekernels``). The compiled one is used
when it has been built; ``HCDETECT_BACKEND=pure`` or ``=native``
forces a choice (the latter raises if the library is missing). Nothing is
compiled at import time.

ctypes releases the GIL for the duration of each call, so the simulation
lab's threads run the compiled kernels in parallel. Both backends share the
array/scalar shape handling of ``_purekernels._vectorized``.

Results are bit-reproducible for a fixed (seed, backend, platform); the
two backends agree to a few ulp, and bit for bit on the branches that call
no exp or log, which the test suite asserts.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
from types import SimpleNamespace

import numpy as np

from . import _purekernels
from ._purekernels import _vectorized

KERNELS = ("ndtri", "two_sided_p")


def _wrap(cfn, name: str):
    cfn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t)
    cfn.restype = None

    def kernel(arr: np.ndarray) -> np.ndarray:
        arr = np.require(arr, np.float64, ("C", "A"))
        out = np.empty_like(arr)
        cfn(arr.ctypes.data, out.ctypes.data, arr.size)
        return out

    kernel.__name__ = name
    return _vectorized(kernel)


def load_native(path: str | os.PathLike) -> SimpleNamespace:
    """Load a compiled ``_native.c`` library and wrap its ``hc_<name>``
    exports with the same call signatures as ``_purekernels``.

    Raises OSError if the file cannot be loaded and AttributeError if it
    lacks one of the exports.
    """
    lib = ctypes.CDLL(os.fspath(path))
    return SimpleNamespace(
        **{name: _wrap(getattr(lib, "hc_" + name), name) for name in KERNELS}
    )


def _built_library() -> SimpleNamespace:
    spec = importlib.util.find_spec(__package__ + "._native")
    if spec is None or not spec.has_location:
        raise OSError("the compiled kernel library is not built")
    return load_native(spec.origin)


_requested = os.environ.get("HCDETECT_BACKEND", "auto").lower()
_impl = _purekernels
if _requested != "pure":
    try:
        _impl = _built_library()
    except (OSError, AttributeError) as exc:
        if _requested == "native":
            raise ImportError(f"native backend unavailable: {exc}") from exc

ndtri = _impl.ndtri
two_sided_p = _impl.two_sided_p

P_FLOOR = _purekernels.P_FLOOR
P_CEIL = _purekernels.P_CEIL


def backend_name() -> str:
    return "pure" if _impl is _purekernels else "native"
