"""Vendored special functions against independent oracles."""

import numpy as np
import pytest
import scipy.special
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


def test_two_sided_p_monotone_non_increasing():
    x = np.linspace(0.0, 12.0, 5001)
    p = backend.two_sided_p(x)
    assert (np.diff(p) <= 0).all()
    assert p.min() >= P_FLOOR
    assert p.max() <= P_CEIL


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
