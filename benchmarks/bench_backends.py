#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-numpy fallback.

Times the three hot scalar kernels on large arrays plus one end-to-end
Monte Carlo call per backend. Build the kernels first, then run from the
repository root:

    python setup.py build_ext --inplace
    PYTHONPATH=src python benchmarks/bench_backends.py [N]
"""

import sys
import time

import numpy as np

from hcdetect import _purekernels as pure
from hcdetect import backend

# the compiled kernels as hcdetect.backend loads them, if they are built
native = backend if backend.backend_name() == "native" else None


def _time(fn, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels(n: int) -> None:
    rng = np.random.default_rng(0)
    z = rng.standard_normal(n) * 3.0
    u = rng.random(n)
    rows = []
    for name, arg in (("erfc", z), ("two_sided_p", z), ("ndtri", u)):
        t_pure = _time(getattr(pure, name), arg)
        row = [name, f"{t_pure * 1e3:8.1f} ms"]
        if native is not None:
            t_native = _time(getattr(native, name), arg)
            row += [f"{t_native * 1e3:8.1f} ms", f"{t_pure / t_native:6.2f}x"]
        rows.append(row)
    header = ["kernel", "pure"] + (["native", "speedup"] if native else [])
    width = 14
    print("".join(h.ljust(width) for h in header), flush=True)
    for row in rows:
        print("".join(str(c).ljust(width) for c in row), flush=True)


def bench_pipeline() -> None:
    import os
    import subprocess

    code = (
        "import time,os\n"
        "from hcdetect import GeneratorSpec, SimConfig, mc_hc, backend_name\n"
        "cfg = SimConfig(replicates=20, m_grid=(1000000,), seed=0)\n"
        "t0 = time.perf_counter()\n"
        "mc_hc(GeneratorSpec.sparse_mixture(0.01, 3.0), 1000000, cfg)\n"
        "print(f'{backend_name()}: 20 replicates at m=1e6 in "
        "{time.perf_counter()-t0:.2f}s')\n"
    )
    for backend in ("pure", "native") if native else ("pure",):
        env = dict(os.environ, HCDETECT_BACKEND=backend)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    print(f"kernel timings on {n:,} doubles (best of 5)", flush=True)
    bench_kernels(n)
    print("\nend-to-end Monte Carlo (subprocess per backend)", flush=True)
    bench_pipeline()
