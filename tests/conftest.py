import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from hcdetect import TimeSeries, backend

REPO = Path(__file__).resolve().parents[1]
NO_COMPILER = "no C compiler on PATH to build src/hcdetect/_native.c"

# The host the golden kernel digests were recorded on: machine, then
# numpy's float64 exp and log dispatch, whose last bits the kernels' tails
# inherit.
GOLDEN_PLATFORM = ("x86_64", "X86_V4", "X86_V4")


def _off_golden_platform() -> str | None:
    """Why this host cannot check the golden digests, or None when it
    dispatches exp and log as ``GOLDEN_PLATFORM`` did."""
    try:
        from numpy.lib import introspect
    except ImportError:
        return "this numpy has no numpy.lib.introspect to report its dispatch"
    dispatch = introspect.opt_func_info(func_name="^(exp|log)$", signature="float64")
    here = (
        platform.machine(),
        dispatch["exp"]["dd"]["current"],
        dispatch["log"]["dd"]["current"],
    )
    if here != GOLDEN_PLATFORM:
        return f"digests recorded on {GOLDEN_PLATFORM}, this is {here}"
    return None


def skip_off_golden_platform() -> None:
    """Skip the calling test unless this host dispatches exp and log as
    ``GOLDEN_PLATFORM`` did."""
    reason = _off_golden_platform()
    if reason:
        pytest.skip(reason)


def _c_compiler() -> str | None:
    """The compiler ``setup.py build_ext`` would call, if it is on PATH."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    argv = shlex.split(cc)
    return shutil.which(argv[0]) if argv else None


def pytest_report_header(config):
    cc = _c_compiler()
    agreement = f"runs on a kernel built with {cc}" if cc else f"skips: {NO_COMPILER}"
    off_golden = _off_golden_platform()
    golden = f"skips: {off_golden}" if off_golden else f"runs on {GOLDEN_PLATFORM}"
    return [
        f"hcdetect backend: {backend.backend_name()}",
        f"backend agreement test: {agreement}",
        f"golden-digest test: {golden}",
    ]


@pytest.fixture(scope="session")
def native_kernels(tmp_path_factory):
    """The compiled kernels, built by ``setup.py build_ext`` into a tmp dir
    and loaded the way ``hcdetect.backend`` loads an installed build."""
    if _c_compiler() is None:
        pytest.skip(NO_COMPILER)
    tmp = tmp_path_factory.mktemp("native")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "tmp")],
        cwd=REPO, capture_output=True, text=True,
    )
    built = sorted((tmp / "lib" / "hcdetect").glob("_native.*"))
    if proc.returncode != 0 or not built:
        pytest.fail(f"building _native.c failed:\n{proc.stdout}{proc.stderr}")
    return backend.load_native(built[0])


def inject_spikes(
    noise: np.ndarray,
    locations,
    amplitude: float = 12.0,
    width: int = 5,
) -> np.ndarray:
    """Add constant-amplitude deflections of the given width."""
    out = noise.copy()
    for loc in locations:
        out[loc : loc + width] += amplitude
    return out


def spaced_locations(
    rng: np.random.Generator, m: int, count: int, min_separation: int = 220
) -> np.ndarray:
    """Random spike onsets separated by more than ``min_separation``."""
    slots = m // min_separation - 2
    picks = rng.permutation(slots)[:count] * min_separation + 300
    picks.sort()
    return picks


@pytest.fixture
def noise_series():
    rng = np.random.default_rng(1234)
    return TimeSeries(values=rng.standard_normal(20000))
