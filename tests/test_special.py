"""Vendored special functions against independent oracles."""

import hashlib
import subprocess
import tracemalloc

import numpy as np
import pytest
import scipy.special
from conftest import NO_COMPILER, REPO, _c_compiler, skip_off_golden_platform
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
    mine = pure.erfc(x)
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


# The arguments |x| at which erfc(|x|/sqrt(2)) switches formula, and 6.0,
# where erfc's dropped left tail switched; the golden grid keeps it.
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


# sha256 of the pure kernels' float64 output bytes on ``_golden_grid``,
# for erfc on its non-negative half (sign bit clear, or NaN): erfc is
# defined on [0, inf) only. Seeded Monte Carlo payloads depend on these
# bits, which the ulp tolerances of test_backends_agree do not pin. The
# tails call numpy's exp and log, whose last bits depend on the SIMD code
# numpy dispatches.
GOLDEN_DIGESTS = {
    "ndtri": "0538c62a46d78f180bfdb0374d592b628c57b7207cf8e5fe2838cb118e39b905",
    "erfc": "8fd5d09ceefd5e8be7f6573479dc45e2e3b4e6532fa320950e2d2e9ce97a2677",
    "two_sided_p": "78447bfee306f393f55645620b36591e7a87ead45ed8cf22a5eedbd814af7760",
}


def test_pure_kernels_match_golden_bits():
    skip_off_golden_platform()
    x, u = _golden_grid()
    outputs = {
        "ndtri": pure.ndtri(u),
        "erfc": pure.erfc(x[~np.signbit(x) | np.isnan(x)]),
        "two_sided_p": pure.two_sided_p(x),
    }
    digests = {
        name: hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        for name, out in outputs.items()
    }
    assert digests == GOLDEN_DIGESTS


def test_backends_agree(native_kernels):
    x = np.linspace(-30, 30, 100001)
    a = pure.two_sided_p(x)
    b = native_kernels.two_sided_p(x)
    rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-280)
    # numpy's vectorized exp and libm exp differ by <= 1 ulp, which
    # compounds to ~|log p| * 2**-53 relative in the deep tail; the
    # clamped pipeline range agrees far tighter
    assert rel.max() < 1e-12
    near = np.abs(x) <= 8.0
    assert rel[near].max() < 1e-13
    p = np.linspace(1e-15, 1 - 1e-15, 100001)
    a = np.asarray(pure.ndtri(p))
    b = np.asarray(native_kernels.ndtri(p))
    rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-8)
    assert rel.max() < 1e-13
    # clamps, saturation and NaN give exact values on both backends
    edges = np.array([0.0, -0.0, 1e-300, 1e-17, 40.0, -40.0, np.inf, np.nan])
    np.testing.assert_array_equal(
        native_kernels.two_sided_p(edges), pure.two_sided_p(edges)
    )
    edges = np.array([0.0, 0.5, 1.0, np.nan])
    np.testing.assert_array_equal(native_kernels.ndtri(edges), pure.ndtri(edges))
    # The branches that call no exp or log are the same IEEE + - * / in the
    # same order on both backends, so they give the same bits.
    rng = np.random.default_rng(17)
    x = np.concatenate([np.linspace(-30, 30, 100001), rng.standard_normal(300_000)])
    u = np.concatenate([np.linspace(0.0, 1.0, 100001), rng.random(300_000)])
    scaled = np.abs(x) * pure._INV_SQRT2
    for fn, arr, exact in (
        ("two_sided_p", x, scaled < 1.25),
        ("ndtri", u, np.abs(u - 0.5) <= 0.425),
    ):
        a = getattr(pure, fn)(arr)[exact]
        b = getattr(native_kernels, fn)(arr)[exact]
        assert exact.sum() > 100_000, fn
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64), fn)


def test_native_source_compiles_without_warnings(tmp_path):
    # -Wall -Wextra report unused variables, constants and static functions,
    # so code left dead in _native.c fails here. It compiles to an object
    # file because -fsyntax-only skips the unused-function and
    # unused-constant checks; gcc never reports an unused static inline
    # function, so the helpers are plain static.
    cc = _c_compiler()
    if cc is None:
        pytest.skip(NO_COMPILER)
    source = REPO / "src" / "hcdetect" / "_native.c"
    proc = subprocess.run(
        [cc, "-c", "-std=c99", "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "native.o"), str(source)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _seam_inputs(n: int) -> dict[str, np.ndarray]:
    # n samples per kernel, with the edge values spread across the blocks.
    rng = np.random.default_rng(41)
    x = rng.standard_normal(n) * 6.0
    edges = [0.0, -0.0, 1e-300, 40.0, -40.0, np.inf, -np.inf, np.nan, 1.3]
    x[np.linspace(0, n - 1, len(edges)).astype(int)] = edges
    u = rng.random(n)
    edges = [0.0, 1.0, 0.5, np.nan, 1e-300]
    u[np.linspace(0, n - 1, len(edges)).astype(int)] = edges
    return {"erfc": np.abs(x), "two_sided_p": x, "ndtri": u}


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


# The pure kernels in boolean-mask form: every gather and scatter indexes
# by a branch's mask. They do the arithmetic of ``_purekernels`` in the
# same order, so they pin its output bits on any host; the golden digests
# pin them on one platform only.
def _mask_poly(coeffs, x):
    acc = x * coeffs[-1] + coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc = acc * x + c
    return acc


def _mask_tail_factor(ax, r_over_s):
    z = (ax.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(np.float64)
    return np.exp(-z * z - 0.5625) * np.exp((z - ax) * (z + ax) + r_over_s)


def _mask_erfc(x):
    ax = np.abs(x)
    out = np.where(x > 0.0, 0.0, 2.0)
    m = ax < 2.0**-56
    if m.any():
        out[m] = 1.0 - x[m]
    m = (ax >= 2.0**-56) & (ax < 0.84375)
    if m.any():
        xm = x[m]
        z = xm * xm
        y = _mask_poly(pure.PP, z) / _mask_poly(pure.QQ, z)
        small = np.abs(xm) < 0.25
        out[m] = np.where(small, 1.0 - (xm + xm * y), 0.5 - (xm * y + (xm - 0.5)))
    m = (ax >= 0.84375) & (ax < 1.25)
    if m.any():
        s = ax[m] - 1.0
        pq = _mask_poly(pure.PA, s) / _mask_poly(pure.QA, s)
        out[m] = np.where(x[m] >= 0.0, 1.0 - pure.ERX - pq, 1.0 + (pure.ERX + pq))
    m = (ax >= 1.25) & (ax < 28.0)
    if m.any():
        a = ax[m]
        s = 1.0 / (a * a)
        lo = a < 1.0 / 0.35
        rs = np.empty_like(a)
        if lo.any():
            rs[lo] = _mask_poly(pure.RA, s[lo]) / _mask_poly(pure.SA, s[lo])
        if (~lo).any():
            rs[~lo] = _mask_poly(pure.RB, s[~lo]) / _mask_poly(pure.SB, s[~lo])
        with np.errstate(under="ignore"):
            r = _mask_tail_factor(a, rs) / a
        out[m] = np.where(x[m] < 0.0, np.where(a > 6.0, 2.0, 2.0 - r), r)
    m = np.isnan(x)
    if m.any():
        out[m] = np.nan
    return out


def _mask_ndtri(p):
    q = p - 0.5
    with np.errstate(all="ignore"):
        r = 0.180625 - q * q
        out = q * _mask_poly(pure.ND_A, r) / _mask_poly(pure.ND_B, r)
    t = ~(np.abs(q) <= 0.425)
    if t.any():
        r = np.where(q[t] < 0.0, p[t], 1.0 - p[t])
        bad = r <= 0.0
        r = np.sqrt(-np.log(np.where(bad, np.nan, r)))
        near = r <= 5.0
        val = np.empty_like(r)
        if near.any():
            rr = r[near] - 1.6
            val[near] = _mask_poly(pure.ND_C, rr) / _mask_poly(pure.ND_D, rr)
        if (~near).any():
            rr = r[~near] - 5.0
            val[~near] = _mask_poly(pure.ND_E, rr) / _mask_poly(pure.ND_F, rr)
        val = np.where(q[t] < 0.0, -val, val)
        val[bad] = np.where(p[t][bad] <= 0.0, -np.inf, np.inf)
        out[t] = val
    m = np.isnan(p)
    if m.any():
        out[m] = np.nan
    return out


def _mask_two_sided_p(z):
    p = _mask_erfc(np.abs(z) * (1.0 / np.sqrt(2.0)))
    p = np.where(p >= 1.0, P_CEIL, p)
    return np.maximum(p, P_FLOOR)


MASK_ORACLES = {
    name: pure._vectorized(fn)
    for name, fn in (
        ("erfc", _mask_erfc), ("ndtri", _mask_ndtri), ("two_sided_p", _mask_two_sided_p)
    )
}


def _oracle_inputs() -> dict[str, list[np.ndarray]]:
    # Per kernel: the golden grid, the block-seam inputs, an empty array,
    # an input that lies wholly in the central branch and one wholly in the
    # tails, every branch boundary of erfc and its neighbours, and a 2-D
    # input. erfc takes their |x|, its domain.
    x, u = _golden_grid()
    cuts = np.array([2.0**-56, 0.25, 0.84375, 1.25, 1.0 / 0.35, 6.0, 28.0])
    cuts = np.concatenate([cuts, cuts * np.sqrt(2.0)])
    steps = np.arange(-2, 3)
    cuts = (cuts.view(np.int64)[:, None] + steps).view(np.float64).ravel()
    cuts = np.concatenate([cuts, -cuts])
    seams = _seam_inputs(10_007)
    rng = np.random.default_rng(2027)
    central_x = rng.uniform(-0.84, 0.84, 5_000)
    tail_x = rng.uniform(1.25, 40.0, 5_000) * rng.choice([-1.0, 1.0], 5_000)
    central_u = rng.uniform(0.08, 0.92, 5_000)
    tail_u = np.concatenate([
        10.0 ** -rng.uniform(1.2, 300.0, 2_500), 1.0 - 10.0 ** -rng.uniform(1.2, 16.0, 2_500)
    ])
    empty = np.empty(0)
    xs = [x, seams["erfc"], empty, central_x, tail_x, cuts, x[:120].reshape(10, 12)]
    us = [u, seams["ndtri"], empty, central_u, tail_u, u[:120].reshape(10, 12)]
    return {"erfc": [np.abs(x) for x in xs], "two_sided_p": xs, "ndtri": us}


def _orderings(name: str, arr: np.ndarray) -> dict[str, np.ndarray]:
    # The input as given, ascending in the kernel's sort key (|x| for
    # two_sided_p, NaNs last), descending, and shuffled. Ascending, erfc's
    # pieces are contiguous slices and each cut's neighbours sit at a slice
    # edge; descending and shuffled, the input goes through the argsort.
    flat = arr.ravel()
    key = np.abs(flat) if name == "two_sided_p" else flat
    ascending = flat[np.argsort(key, kind="stable")]
    shuffled = np.random.default_rng(flat.size).permutation(flat)
    return {
        "given": arr, "ascending": ascending,
        "descending": ascending[::-1].copy(), "shuffled": shuffled,
    }


@pytest.mark.parametrize("name", sorted(MASK_ORACLES))
def test_pure_kernels_match_mask_oracle_bits(name, monkeypatch):
    fn, oracle = getattr(pure, name), MASK_ORACLES[name]
    argsorts = []
    real_argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        argsorts.append(np.size(args[0]))
        return real_argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    for arr in _oracle_inputs()[name]:
        for order, x in _orderings(name, arr).items():
            argsorts.clear()
            got, want = fn(x), oracle(x)
            assert got.shape == want.shape == x.shape, name
            assert got.tobytes() == want.tobytes(), (name, order, arr.shape)
            if order == "ascending" and not np.isnan(x).any():
                assert argsorts == [], (name, arr.shape)  # the fast path
    for value in (0.0, -0.0, 0.3, 0.97, 1.3, -7.5, 30.0, np.inf, np.nan):
        if name == "erfc" and value < 0.0:
            continue  # outside erfc's domain
        got, want = fn(value), oracle(value)
        assert type(got) is type(want) is float, name
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (name, value)
