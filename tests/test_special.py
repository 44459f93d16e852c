"""Vendored special functions against independent oracles."""

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.special
from conftest import skip_off_golden_platform
from scipy.integrate import quad

from hcdetect import _purekernels as pure
from hcdetect import backend
from hcdetect.core import P_CEIL, P_FLOOR, gaussian_tail_prob, two_sided_p


def _phi(t):
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


def quadrature_two_sided(x: float) -> float:
    """Adaptive quadrature of the standard normal density: the stated
    independent oracle for P(|N(0,1)| > |x|)."""
    tail, _ = quad(_phi, abs(x), np.inf, epsabs=1e-14, epsrel=1e-12)
    return 2.0 * tail


def test_erfc_matches_scipy_through_moderate_tail():
    x = np.linspace(0.0, 12.0, 20001)
    mine = backend.erfc(x)
    ref = scipy.special.erfc(x)
    rel = np.abs(mine - ref) / np.maximum(ref, 1e-300)
    assert rel.max() < 1e-13


def test_tail_prob_matches_quadrature():
    xs = np.linspace(0.0, 6.0, 61)
    for x in xs:
        assert abs(gaussian_tail_prob(float(x)) - quadrature_two_sided(float(x))) < 1e-10


def test_ndtri_matches_scipy():
    p = np.concatenate(
        [
            np.linspace(1e-12, 1 - 1e-12, 20001),
            10.0 ** np.arange(-300, -12, 7),
        ]
    )
    mine = backend.ndtri(p)
    ref = scipy.special.ndtri(p)
    rel = np.abs(mine - ref) / np.maximum(np.abs(ref), 1e-8)
    assert rel.max() < 5e-15


def test_ndtri_inverts_tail_prob():
    # two_sided p of the quantile at p/2 recovers p
    for p in (1e-10, 1e-6, 1e-3, 0.05, 0.5, 0.9):
        z = float(backend.ndtri(p / 2.0))
        assert gaussian_tail_prob(z) == pytest.approx(p, rel=1e-11)


def test_two_sided_p_examples_and_clamps():
    assert two_sided_p(0.0) == P_CEIL  # analytic value is exactly 1
    assert two_sided_p(1.959964) == pytest.approx(0.05, abs=1e-7)
    # beyond the resolution of 1 - erf(.), the value pins to the floor
    assert two_sided_p(10.0) == P_FLOOR
    assert two_sided_p(40.0) == P_FLOOR
    assert P_FLOOR == 2.0**-54


# The arguments |x| at which erfc(|x|/sqrt(2)) switches formula.
ERFC_PIECE_BOUNDARIES = np.array([0.84375, 1.25, 1.0 / 0.35, 6.0, 28.0]) * np.sqrt(2.0)


def _assert_monotone(two_sided):
    # hc_test_statistic relies on p being non-increasing in |x| wherever
    # p <= P_CEIL, which holds on this grid, piece boundaries included.
    steps = np.arange(-20_000, 20_001)
    around = [
        (b.view(np.int64) + steps).view(np.float64) for b in ERFC_PIECE_BOUNDARIES
    ]
    x = np.sort(np.concatenate([np.linspace(0.0, 40.0, 400_001), *around]))
    p = two_sided(x)
    assert (np.diff(p) <= 0).all()
    assert p.min() >= P_FLOOR
    assert p.max() <= P_CEIL
    # The one exception sits next to 0: an exact 0 clamps to P_CEIL, but a
    # tiny |x| maps to an erfc value between P_CEIL and 1.
    assert two_sided(0.0) == P_CEIL < two_sided(1e-6)


def test_two_sided_p_monotone_non_increasing():
    _assert_monotone(backend.two_sided_p)
    _assert_monotone(pure.two_sided_p)


def test_two_sided_p_monotone_non_increasing_native(native_kernels):
    _assert_monotone(native_kernels.two_sided_p)


def _golden_grid() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(5401)
    b = ERFC_PIECE_BOUNDARIES
    x = np.concatenate([
        rng.standard_normal(100_000) * 4.0,
        np.linspace(-40.0, 40.0, 40_001),
        b, -b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
        [0.0, -0.0, 5e-324, 1e-300, 2.0**-57, 2.0**-56, 1e-6, -1e-6,
         8.3, 37.5, -37.5, 1e300, np.inf, -np.inf, np.nan],
    ])
    u = np.concatenate([
        rng.random(100_000),
        10.0 ** -rng.uniform(0.0, 300.0, 5_000),
        1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 5_000),
        [0.0, 1.0, 0.5, 0.075, 0.925, 0.0749999, 0.0750001, np.exp(-25.0),
         1.0 - np.exp(-25.0), 2.0**-54, 5e-324, 1.0 - 2.0**-53, -0.5, 1.5,
         np.nan],
    ])
    return x, u


# sha256 of the pure kernels' float64 output bytes on ``_golden_grid``.
# Seeded Monte Carlo payloads depend on these bits, which the ulp
# tolerances of test_backends_agree do not pin. The tails call numpy's
# exp and log, whose last bits depend on the SIMD code numpy dispatches.
GOLDEN_DIGESTS = {
    "ndtri": "0538c62a46d78f180bfdb0374d592b628c57b7207cf8e5fe2838cb118e39b905",
    "erfc": "33987eb201b0b1e9591a4a2a68c310651e05bc7fc09fc8d41563d1599a97e802",
    "two_sided_p": "78447bfee306f393f55645620b36591e7a87ead45ed8cf22a5eedbd814af7760",
}


def test_pure_kernels_match_golden_bits():
    skip_off_golden_platform()
    x, u = _golden_grid()
    outputs = {
        "ndtri": pure.ndtri(u),
        "erfc": pure.erfc(x),
        "two_sided_p": pure.two_sided_p(x),
    }
    digests = {
        name: hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        for name, out in outputs.items()
    }
    assert digests == GOLDEN_DIGESTS


def test_backends_agree(native_kernels):
    x = np.linspace(-30, 30, 100001)
    for fn in ("erfc", "two_sided_p", "gaussian_tail_prob"):
        a = np.asarray(getattr(pure, fn)(x))
        b = np.asarray(getattr(native_kernels, fn)(x))
        rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-280)
        # numpy's vectorized exp and libm exp differ by <= 1 ulp, which
        # compounds to ~|log p| * 2**-53 relative in the deep tail; the
        # clamped pipeline range agrees far tighter
        assert rel.max() < 1e-12, fn
        near = np.abs(x) <= 8.0
        assert rel[near].max() < 1e-13, fn
    p = np.linspace(1e-15, 1 - 1e-15, 100001)
    a = np.asarray(pure.ndtri(p))
    b = np.asarray(native_kernels.ndtri(p))
    rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-8)
    assert rel.max() < 1e-13
    # clamps, saturation and NaN give exact values on both backends
    edges = np.array([0.0, -0.0, 1e-300, 1e-17, 40.0, -40.0, np.inf, np.nan])
    for fn in ("erfc", "two_sided_p", "gaussian_tail_prob"):
        np.testing.assert_array_equal(
            getattr(native_kernels, fn)(edges), getattr(pure, fn)(edges), fn
        )
    edges = np.array([0.0, 0.5, 1.0, np.nan])
    np.testing.assert_array_equal(native_kernels.ndtri(edges), pure.ndtri(edges))


def _seam_inputs(n: int) -> dict[str, np.ndarray]:
    # n samples per kernel, with the edge values spread across the blocks.
    rng = np.random.default_rng(41)
    x = rng.standard_normal(n) * 6.0
    edges = [0.0, -0.0, 1e-300, 40.0, -40.0, np.inf, -np.inf, np.nan, 1.3]
    x[np.linspace(0, n - 1, len(edges)).astype(int)] = edges
    u = rng.random(n)
    edges = [0.0, 1.0, 0.5, np.nan, 1e-300]
    u[np.linspace(0, n - 1, len(edges)).astype(int)] = edges
    return {"erfc": x, "two_sided_p": x, "gaussian_tail_prob": x, "ndtri": u}


@pytest.mark.parametrize("block", [7, pure._BLOCK])
def test_blocked_kernels_match_one_whole_array_call(monkeypatch, block):
    n = 2 * block + 3 if block > 7 else 7 * 9 + 4
    for name, arr in _seam_inputs(n).items():
        fn = getattr(pure, name)
        monkeypatch.setattr(pure, "_BLOCK", 1 << 62)
        whole = fn(arr)
        monkeypatch.setattr(pure, "_BLOCK", block)
        assert fn(arr).tobytes() == whole.tobytes(), name
        if block == 7:
            # shapes survive the blocks, and a short input is one call
            grid = fn(arr[:60].reshape(3, 4, 5))
            assert grid.shape == (3, 4, 5)
            assert grid.tobytes() == whole[:60].tobytes(), name
            assert fn(arr[:7]).tobytes() == whole[:7].tobytes(), name
            assert fn(float(arr[3])) == whole[3], name


def test_two_sided_p_temporaries_stay_block_sized():
    z = np.random.default_rng(42).standard_normal(1 << 20) * 3.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pure.two_sided_p(z)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the output plus one block's temporaries; the whole-array kernel
    # peaks at about 8.5x the input
    assert peak < 2.5 * z.nbytes
