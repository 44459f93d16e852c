"""Pure-numpy special-function kernels.

Vendored rational approximations:

* ``erfc`` follows the classic FreeBSD ``msun`` piecewise scheme (Sun
  Microsystems, 1993; freely redistributable), including the
  split-argument trick ``exp(-z*z - 0.5625) * exp((z-x)(z+x) + R/S)`` with
  the low mantissa word of ``z`` zeroed, which keeps the tail accurate to
  about 1 ulp out to ``erfc(28)``. It is defined on [0, inf) only, the
  domain of ``two_sided_p``'s scaled |z|: msun's arms for negative input
  are not carried.
* ``ndtri`` is Wichura's PPND16 rational approximation (AS 241) for the
  standard normal quantile, accurate to ~1e-15 relative.

Each kernel is piecewise in its input. A piece finds its elements once,
as integer positions (``np.flatnonzero`` of its range test), gathers its
inputs with them, computes on the gathered values in place, and scatters
its results back through the same positions; a boolean mask would be
scanned again at every gather and scatter. ``ndtri``'s central formula is
the exception: it runs on every element, and the tails overwrite theirs.
The arithmetic and its order are those of the boolean-mask form, which
``tests/test_special.py`` keeps as the oracle for the output bits.

These are the fallback implementations and the oracle for the compiled
ones: ``_native.c`` holds the same algorithms and coefficients and must
agree to a few ulp, and bit for bit on the branches that call no ``exp``
or ``log``. ``_vectorized`` is the array/scalar shape handling that both
backends share.
"""

from __future__ import annotations

import numpy as np

ERX = 8.45062911510467529297e-01

PP = (
    1.28379167095512558561e-01,
    -3.25042107247001499370e-01,
    -2.84817495755985104766e-02,
    -5.77027029648944159157e-03,
    -2.37630166566501626084e-05,
)
QQ = (
    1.0,
    3.97917223959155352819e-01,
    6.50222499887672944485e-02,
    5.08130628187576562776e-03,
    1.32494738004321644526e-04,
    -3.96022827877536812320e-06,
)
PA = (
    -2.36211856075265944077e-03,
    4.14856118683748331666e-01,
    -3.72207876035701323847e-01,
    3.18346619901161753674e-01,
    -1.10894694282396677476e-01,
    3.54783043256182359371e-02,
    -2.16637559486879084300e-03,
)
QA = (
    1.0,
    1.06420880400844228286e-01,
    5.40397917702171048937e-01,
    7.18286544141962662868e-02,
    1.26171219808761642112e-01,
    1.36370839120290507362e-02,
    1.19844998467991074170e-02,
)
RA = (
    -9.86494403484714822705e-03,
    -6.93858572707181764372e-01,
    -1.05586262253232909814e01,
    -6.23753324503260060396e01,
    -1.62396669462573470355e02,
    -1.84605092906711035994e02,
    -8.12874355063065934246e01,
    -9.81432934416914548592e00,
)
SA = (
    1.0,
    1.96512716674392571292e01,
    1.37657754143519042600e02,
    4.34565877475229228821e02,
    6.45387271733267880336e02,
    4.29008140027567833386e02,
    1.08635005541779435134e02,
    6.57024977031928170135e00,
    -6.04244152148580987438e-02,
)
RB = (
    -9.86494292470009928597e-03,
    -7.99283237680523006574e-01,
    -1.77579549177547519889e01,
    -1.60636384855821916062e02,
    -6.37566443368389627722e02,
    -1.02509513161107724954e03,
    -4.83519191608651397019e02,
)
SB = (
    1.0,
    3.03380607434824582924e01,
    3.25792512996573918826e02,
    1.53672958608443695994e03,
    3.19985821950859553908e03,
    2.55305040643316442583e03,
    4.74528541206955367215e02,
    -2.24409524465858183362e01,
)

# AS 241 (PPND16) coefficients, central / intermediate / far-tail regions.
ND_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
ND_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
ND_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
ND_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
ND_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
ND_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


# Inputs longer than this run through the kernel in blocks of this many
# elements into one output array, so a kernel's temporaries stay
# block-sized: at most 256 KB each, which the allocator reuses from call
# to call (at 2**17 it returned the pages to the kernel and faulted them
# in again on every Monte Carlo replicate). The kernels are elementwise,
# so the bits are those of one whole-array call.
_BLOCK = 1 << 15


def _vectorized(fn):
    def wrapper(x):
        arr = np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel()
        if arr.size > _BLOCK:
            out = np.empty_like(arr)
            for i in range(0, arr.size, _BLOCK):
                out[i : i + _BLOCK] = fn(arr[i : i + _BLOCK])
        else:
            out = fn(arr)
        if np.ndim(x) == 0:
            return float(out[0])
        return out.reshape(np.shape(x))

    wrapper.__name__ = fn.__name__.lstrip("_")
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _poly(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    # Horner's rule in place: the same IEEE operations as acc = acc * x + c,
    # without a temporary per step.
    acc = x * coeffs[-1]
    acc += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc *= x
        acc += c
    return acc


def _ratio(num: tuple[float, ...], den: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    out = _poly(num, x)
    out /= _poly(den, x)
    return out


def _within(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # The positions of lo <= x < hi; a NaN lies in no piece.
    return np.flatnonzero((x >= lo) & (x < hi))


def _split(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The positions where mask holds, and where it does not.
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def _tail_factor(ax: np.ndarray, r_over_s: np.ndarray) -> np.ndarray:
    # exp(-z*z - 0.5625) * exp((z - ax)(z + ax) + R/S) for ax >= 1.25, with
    # SET_LOW_WORD(z, 0): the low 32 mantissa bits dropped, so z*z is exact
    z = (ax.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(np.float64)
    out = np.negative(z)
    out *= z
    out -= 0.5625
    np.exp(out, out=out)
    d = z - ax
    z += ax
    d *= z
    d += r_over_s
    out *= np.exp(d, out=d)
    return out


@_vectorized
def erfc(x) -> np.ndarray:
    """erfc(x) for x >= 0; a NaN gives NaN."""
    # x >= 28: 0
    out = np.zeros_like(x)

    i = np.flatnonzero(x < 2.0**-56)
    if i.size:
        out[i] = 1.0 - x[i]

    i = _within(x, 2.0**-56, 0.84375)
    if i.size:
        xi = x[i]
        xy = _ratio(PP, QQ, xi * xi)
        xy *= xi
        out[i] = np.where(xi < 0.25, 1.0 - (xi + xy), 0.5 - (xy + (xi - 0.5)))

    i = _within(x, 0.84375, 1.25)
    if i.size:
        out[i] = 1.0 - ERX - _ratio(PA, QA, x[i] - 1.0)

    i = _within(x, 1.25, 28.0)
    if i.size:
        a = x[i]
        s = 1.0 / (a * a)
        rs = np.empty_like(a)
        for j, num, den in zip(_split(a < 1.0 / 0.35), (RA, RB), (SA, SB)):
            if j.size:
                rs[j] = _ratio(num, den, s[j])
        with np.errstate(under="ignore"):
            r = _tail_factor(a, rs)
            r /= a
        out[i] = r

    m = np.isnan(x)
    if m.any():
        out[m] = np.nan
    return out


@_vectorized
def ndtri(p) -> np.ndarray:
    q = p - 0.5
    # The central formula runs on every element (most samples are central,
    # so this beats a gather and scatter); the tails overwrite theirs below.
    with np.errstate(all="ignore"):
        r = q * q
        np.subtract(0.180625, r, out=r)
        out = _poly(ND_A, r)
        out *= q
        out /= _poly(ND_B, r)

    t = np.flatnonzero(~(np.abs(q) <= 0.425))
    if t.size:
        pt = p[t]
        lower = q[t] < 0.0
        r = 1.0 - pt
        np.copyto(r, pt, where=lower)
        bad = np.flatnonzero(r <= 0.0)
        r[bad] = np.nan
        np.log(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        val = np.empty_like(r)
        for j, num, den, c in zip(_split(r <= 5.0), (ND_C, ND_E), (ND_D, ND_F), (1.6, 5.0)):
            if j.size:
                rr = r[j]
                rr -= c
                val[j] = _ratio(num, den, rr)
        np.negative(val, out=val, where=lower)
        val[bad] = np.where(pt[bad] <= 0.0, -np.inf, np.inf)
        out[t] = val

    m = np.isnan(p)
    if m.any():
        out[m] = np.nan
    return out


# Two-sided Gaussian p-value bounds: an exact p = 1 maps to the ceiling so
# the HC denominator never sees 1 - p = 0; the floor is one unit roundoff of
# 1.0, the resolution limit below which `1 - erf(...)` collapses to zero in
# doubles.
P_CEIL = 0.99999
P_FLOOR = 2.0**-54
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@_vectorized
def two_sided_p(z) -> np.ndarray:
    """Clamped two-sided tail probability P(|N(0,1)| > |z|)."""
    a = np.abs(z)
    a *= _INV_SQRT2
    p = erfc(a)
    np.copyto(p, P_CEIL, where=p >= 1.0)
    return np.maximum(p, P_FLOOR, out=p)
