"""Statistical kernel: standardization, Gaussian p-values, the ordered
higher-criticism statistic, the asymptotic rejection threshold, Tukey's
fraction-of-significances form, and kurtosis.

All moments are population moments (divide by m) from correctly rounded
sums, so results are invariant under permutation of the input, bit for
bit: one exact sum adds the signed terms (the samples themselves for the
mean, libm ``pow`` terms for the power sums) as integers binned by
binary exponent, then rounds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _purekernels, backend
from .errors import (
    DomainError,
    NonFiniteError,
    TooShortError,
    ZeroVarianceError,
)

MIN_LENGTH = 3

# Two-sided p-value clamp bounds. An exact p = 1 maps to the ceiling so the
# HC denominator never sees 1 - p = 0; the floor is one unit roundoff of 1.0
# (2**-54), the resolution below which 1 - erf(|x|/sqrt(2)) cannot
# distinguish a tail probability from zero. Clamping there keeps every HC
# component finite while preserving the ordering of extreme samples.
P_FLOOR = backend.P_FLOOR
P_CEIL = backend.P_CEIL


def _require_finite(arr: np.ndarray) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = int(np.argmax(bad))
        raise NonFiniteError(
            f"non-finite sample {float(arr[idx])} at index {idx}", index=idx
        )


@dataclass(frozen=True)
class TimeSeries:
    """Raw sampled values; the input to everything. The method is
    unit-free, so no sampling rate is needed."""

    values: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.values, dtype=np.float64).reshape(-1))

    def _own(self, arr: np.ndarray) -> None:
        if arr.size < MIN_LENGTH:
            raise TooShortError(
                f"series has {arr.size} samples; at least {MIN_LENGTH} required"
            )
        _require_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def _adopt(arr: np.ndarray) -> TimeSeries:
    """A series over a 1-D float64 array that the library has just built
    and nobody else holds: checked and made read-only in place, where the
    public constructor copies."""
    series = object.__new__(TimeSeries)
    series._own(arr)
    return series


@dataclass(frozen=True)
class StandardizedSeries:
    """Zero-mean, unit-sd values plus the moments that were removed."""

    values: np.ndarray
    source_mean: float
    source_sd: float

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class KurtosisReport:
    """Fourth standardized moment, raw and excess (raw - 3), plus the
    compensated population mean and sd it standardized with (the same
    values ``standardize`` removes)."""

    raw: float
    excess: float
    mean: float
    sd: float


@dataclass(frozen=True)
class HCProfile:
    """Rank-indexed HC values plus the permutation back to time indices.

    ``hc_values[i-1]`` is the HC component at rank ``i`` (p-values sorted
    ascending); ``original_indices[i-1]`` is the time index of the sample
    that produced that rank. ``max_rank`` is ``m`` unless the restricted
    variant (ranks up to m/2) was requested, in which case ``hc_max`` and
    downstream thresholding only consider ranks up to ``max_rank``.
    """

    hc_values: np.ndarray
    original_indices: np.ndarray
    hc_max: float
    asymptotic_threshold: float
    max_rank: int


# An exact sum of x**exponent, for exponent 1 (the mean) or an even one.
# For 1 the terms are the signed samples themselves. Otherwise they come
# from np.float_power, which has no SIMD loop: its float64 loop calls libm
# ``pow``, here on |x| as CPython's float ``pow`` does for an integer
# exponent, so every term equals the Python-float term bit for bit
# (numpy's ``power`` and ``square`` round some differently). frexp writes
# a finite term as m * 2**(e - 53) with |m| < 2**53 an integer, split into
# m >> 26 (arithmetic, so below 2**27 in magnitude) and the low 26 bits
# (in [0, 2**26)). Per 2**16-sample chunk, np.bincount adds each half by
# exponent: below 2**43 in magnitude, so exact in float64 in any order.
# The int64 bins stay exact up to 2**36 samples. One Python int of the
# bins, divided by a power of two, rounds half-even once: the correctly
# rounded sum, raising OverflowError when that lies past the float range.
_CHUNK = 1 << 16
_SPLIT = 26
_BIAS = 1074  # frexp exponents of nonzero finite doubles: -1073 .. 1024
_BINS = _BIAS + 1025


def _power_sum(values: np.ndarray, exponent: int) -> float:
    hi_bins = np.zeros(_BINS, dtype=np.int64)
    lo_bins = np.zeros(_BINS, dtype=np.int64)
    for i in range(0, values.size, _CHUNK):
        terms = values[i : i + _CHUNK]
        if exponent != 1:
            with np.errstate(over="ignore", under="ignore"):
                terms = np.float_power(np.abs(terms), float(exponent))
        if not np.isfinite(terms).all():
            raise OverflowError("a power of a sample overflows float64")
        mant, exp = np.frexp(terms)
        exp += _BIAS
        m = (mant * 2.0**53).astype(np.int64)
        hi = m >> _SPLIT
        lo = m - (hi << _SPLIT)
        hi_bins += np.bincount(exp, weights=hi, minlength=_BINS).astype(np.int64)
        lo_bins += np.bincount(exp, weights=lo, minlength=_BINS).astype(np.int64)
    total = sum(
        ((int(hi_bins[b]) << _SPLIT) + int(lo_bins[b])) << int(b)
        for b in np.flatnonzero(hi_bins | lo_bins)
    )
    return total / (1 << (_BIAS + 53))


def standardize(series: TimeSeries) -> StandardizedSeries:
    """Map a series to zero mean and unit population standard deviation.

    Finite samples whose moments overflow float64 raise ``DomainError``.
    """
    arr = series.values
    try:
        mean = _power_sum(arr, 1) / arr.size
        with np.errstate(over="ignore"):
            dev = arr - mean
        sd = math.sqrt(_power_sum(dev, 2) / arr.size)
    except OverflowError:
        sd = math.inf
    if not math.isfinite(sd):
        raise DomainError("the moments of the series overflow float64")
    if sd == 0.0:
        raise ZeroVarianceError("series is constant; standard deviation is zero")
    dev /= sd
    dev.setflags(write=False)
    return StandardizedSeries(values=dev, source_mean=mean, source_sd=sd)


def two_sided_p(x: float) -> float:
    """Clamped two-sided Gaussian p-value P(|N(0,1)| > |x|).

    The analytic value is 1 - Erf(|x|/sqrt(2)); an exact 1 maps to 0.99999
    and anything below the double-precision resolution floor (2**-54) maps
    to the floor, so downstream HC terms are always finite.
    """
    if not math.isfinite(x):
        raise DomainError("two_sided_p requires a finite input")
    return float(backend.two_sided_p(np.asarray([x]))[0])


def gaussian_tail_prob(x: float) -> float:
    """Unclamped P(|N(0,1)| > |x|), for oracle comparison. It takes the pure
    erfc on either backend, so its bits do not depend on the build."""
    return _purekernels.erfc(abs(x) * _purekernels._INV_SQRT2)


def hc_from_sorted_p(p_sorted: np.ndarray) -> np.ndarray:
    """Evaluate the rank-indexed HC formula on already-sorted p-values.

    Clamped pipeline p-values keep the denominator positive; for raw inputs
    at exactly 0 or 1 a vanishing numerator yields 0, otherwise +-inf.
    """
    p = np.asarray(p_sorted, dtype=np.float64)
    return _hc_leading_ranks(p, p.size)


def _hc_leading_ranks(p: np.ndarray, m: int) -> np.ndarray:
    # The HC components sqrt(m) (i/m - p) / sqrt(p (1 - p)) of ranks
    # 1..p.size out of m sorted p-values, computed in place in blocks of
    # _purekernels._BLOCK ranks so the temporaries stay block-sized. Every
    # operation is elementwise, so the bits are those of one whole-array
    # pass.
    out = np.empty(p.size)
    scale = np.sqrt(m)
    block = _purekernels._BLOCK
    for start in range(0, p.size, block):
        q = p[start : start + block]
        hc = out[start : start + q.size]
        np.divide(np.arange(start + 1, start + q.size + 1, dtype=np.float64), m, out=hc)
        hc -= q
        hc *= scale
        denom = 1.0 - q
        denom *= q
        np.sqrt(denom, out=denom)
        degenerate = np.flatnonzero(denom == 0.0)
        num = hc[degenerate]
        with np.errstate(divide="ignore", invalid="ignore"):
            hc /= denom
        if degenerate.size:
            with np.errstate(invalid="ignore"):
                hc[degenerate] = np.where(num == 0.0, 0.0, np.sign(num) * np.inf)
    return out


def asymptotic_threshold(m: int) -> float:
    """sqrt(2 ln ln m), natural logarithms; the null rejection curve."""
    if m < MIN_LENGTH:
        raise DomainError(f"asymptotic threshold needs m >= {MIN_LENGTH}, got {m}")
    return math.sqrt(2.0 * math.log(math.log(m)))


def tukey_hc(m: int, alpha: float, fraction: float) -> float:
    """sqrt(m) * (fraction - alpha) / sqrt(alpha (1 - alpha)).

    Callers compare against 2, the classical suggestion for rejecting the
    hypothesis.
    """
    if m < 1:
        raise DomainError("m must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"fraction must lie in [0, 1], got {fraction}")
    return math.sqrt(m) * (fraction - alpha) / math.sqrt(alpha * (1.0 - alpha))


def _kurtosis_of(std: StandardizedSeries) -> KurtosisReport:
    raw = _power_sum(std.values, 4) / len(std)
    return KurtosisReport(
        raw=raw, excess=raw - 3.0, mean=std.source_mean, sd=std.source_sd
    )


def kurtosis(series: TimeSeries) -> KurtosisReport:
    """Population fourth standardized moment; excess subtracts 3 exactly."""
    return _kurtosis_of(standardize(series))


def _exact_order(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order of a stable sort of the finite ``key``, and ``key`` in
    that order.

    numpy's default argsort (a SIMD quicksort where the CPU has one) does
    the bulk. The elements in runs of equal keys (0.0 == -0.0 included)
    are then taken in index order and put in key order by one stable
    argsort over them alone.
    """
    order = np.argsort(key)
    srt = key[order]
    new = np.concatenate(([True], srt[1:] != srt[:-1], [True]))
    pos = np.flatnonzero(~(new[:-1] & new[1:]))
    if pos.size:
        idx = np.sort(order[pos])
        order[pos] = idx[np.argsort(key[idx], kind="stable")]
        srt[pos] = key[order[pos]]
    return order, srt


def hc_profile(
    standardized: StandardizedSeries, restricted_rank_range: bool = False
) -> HCProfile:
    """Sorted-p HC components over the full rank range, with permutation.

    ``restricted_rank_range`` limits ``hc_max`` (and thus downstream
    thresholding) to ranks i <= m/2, the restricted variant from the
    detection literature; off by default.
    """
    z = standardized.values
    m = z.size
    if m < MIN_LENGTH:
        raise TooShortError(f"profile needs at least {MIN_LENGTH} samples")
    # Ranks are ordered by p ascending, then |z| descending, then time: the
    # order of np.lexsort((arange(m), -|z|, p)). p is non-increasing in |z|
    # except next to 0, where an exact erfc = 1 clamps to P_CEIL below the
    # p of a tiny |z|. So sorting -|z| gives that order when p comes out
    # non-decreasing in it; otherwise one stable sort of p repairs it. The
    # kernel gets |z| ascending, its fast path, and p is read reversed.
    key = np.abs(z)
    order, key = _exact_order(np.negative(key, out=key))
    p = backend.two_sided_p(key[::-1])[::-1]
    if (p[1:] < p[:-1]).any():
        fix = np.argsort(p, kind="stable")
        order, p = order[fix], p[fix]
    hc = hc_from_sorted_p(p)
    max_rank = m // 2 if restricted_rank_range else m
    max_rank = max(max_rank, 1)
    hc_max = float(hc[:max_rank].max())
    hc.setflags(write=False)
    order.setflags(write=False)
    return HCProfile(
        hc_values=hc,
        original_indices=order,
        hc_max=hc_max,
        asymptotic_threshold=asymptotic_threshold(m),
        max_rank=max_rank,
    )


def profile_series(
    series: TimeSeries, restricted_rank_range: bool = False
) -> HCProfile:
    """Convenience wrapper: standardize, then profile."""
    return hc_profile(standardize(series), restricted_rank_range)


def hc_test_statistic(values: np.ndarray) -> float:
    """Null-calibrated HC statistic of raw samples against N(0,1).

    Used by the simulation lab: no standardization (a pure mean shift must
    remain detectable), and the maximum is restricted to ranks i <= m/2
    with p > 1/m. Without that restriction the smallest order statistics
    dominate the null distribution and the statistic sits above
    sqrt(2 ln ln m) for any desk-scale m, which would make every crossing
    experiment degenerate.

    Only the half of the samples with the largest |x| is sorted and
    converted to p-values, which come out in ascending order when read
    backwards. All m are converted only when that half cannot decide the
    maximum: its largest p-value is the clamp next to 0, or none of its
    p-values exceeds 1/m.
    """
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if x.size < MIN_LENGTH:
        raise TooShortError(f"statistic needs at least {MIN_LENGTH} samples")
    _require_finite(x)
    return _hc_statistic(x)


def _hc_statistic(x: np.ndarray, out: np.ndarray | None = None) -> float:
    # hc_test_statistic of a 1-D float64 array already checked for length
    # and finiteness. |x| goes into out, which the call reorders: a new
    # array by default, or a caller's m-element buffer, which may be x.
    m = x.size
    half = max(m // 2, 1)
    top = np.abs(x, out=out)
    top.partition(m - half)
    p = _sorted_p(top[m - half :])
    # two_sided_p is non-increasing in |x| wherever p <= P_CEIL, but not
    # next to 0: an exact 0 clamps to P_CEIL while |x| = 1e-6 gives
    # 0.9999992. So while every p of the top half is <= P_CEIL, no other
    # sample has a smaller p, and these are the full sort's first half;
    # they decide the maximum when one of them exceeds 1/m. Otherwise all
    # m are converted: two_sided_p(|x|) has the bits of two_sided_p(x).
    if not 1.0 / m < p[-1] <= P_CEIL:
        p = _sorted_p(top)
    hc = _hc_leading_ranks(p, m)
    keep = p[:half] > 1.0 / m
    if keep.any():
        return float(hc[:half][keep].max())
    return float(hc.max())


def _sorted_p(a: np.ndarray) -> np.ndarray:
    # The p-values of |x| = a in ascending order. a is sorted in place, so
    # the kernel's output read backwards is in order, except where the
    # clamp next to 0 breaks monotonicity; one sort repairs that. The
    # reversed copy costs less than the strided passes that would read it.
    a.sort()
    p = backend.two_sided_p(a)[::-1].copy()
    if (p[1:] < p[:-1]).any():
        p = np.sort(p)
    return p
