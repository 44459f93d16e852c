"""Build hook for the optional compiled kernel.

The package is pure Python by default. With a C compiler the hot
special-function kernels in ``src/hcdetect/_native.c`` (plain C, no Python
API) are built into the package as the ``hcdetect._native`` extension file,
which ``hcdetect.backend`` loads with ctypes at import time.

    python setup.py build_ext --inplace

A failed build falls back to a pure install.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "hcdetect._native",
            ["src/hcdetect/_native.c"],
            # no FMA contraction: keeps the kernels' rounding the same as
            # the pure-numpy oracle on FMA-capable targets too
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
