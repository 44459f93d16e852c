"""Statistical kernel: worked examples and invariants."""

import math
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from conftest import inject_spikes, spaced_locations
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdetect import (
    GeneratorSpec,
    TimeSeries,
    asymptotic_threshold,
    hc_from_sorted_p,
    hc_test_statistic,
    kurtosis,
    profile_series,
    sample,
    standardize,
    tukey_hc,
)
from hcdetect import _purekernels, backend, core
from hcdetect.core import (
    MIN_LENGTH,
    P_FLOOR,
    StandardizedSeries,
    _exact_order,
    _kurtosis_of,
    _power_sum,
    hc_profile,
)
from hcdetect.errors import (
    DomainError,
    NonFiniteError,
    TooShortError,
    ZeroVarianceError,
)

def _full_sort_statistic(values) -> float:
    """The reference for ``hc_test_statistic``: every p-value, one full
    sort, and the maximum over ranks <= m/2 with p > 1/m."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    m = x.size
    p = np.sort(backend.two_sided_p(x))
    hc = hc_from_sorted_p(p)
    half = max(m // 2, 1)
    keep = p[:half] > 1.0 / m
    if keep.any():
        return float(hc[:half][keep].max())
    return float(hc.max())


def _statistic_inputs() -> list[np.ndarray]:
    """Seeded inputs: odd and even m down to 3, ties, samples pinned at the
    p-value floor, mean shifts, and values at or next to 0, where
    two_sided_p is not monotone."""
    rng = np.random.default_rng(4242)
    cases = [
        # Half-rank shortcuts that ignore the clamp at 0 get these wrong:
        # the first gives -899.99 instead of -499.99249996988755.
        np.array([0.0] * 6 + [1e-6] * 4),
        np.array([0.0] * 3 + [1e-6] * 7),
        np.array([0.0, 0.0, 0.0, 1e-7, 1e-7, 3.0]),
        np.array([40.0] * 6 + [0.1, -0.2, 0.3, -0.4]),
    ]
    for k in range(400):
        m = 3 if k % 25 == 0 else int(rng.integers(3, 300))
        x = rng.standard_normal(m)
        kind = k % 6
        if kind == 1:
            x = np.round(x, 1)
        elif kind == 2:
            pinned = rng.random(m) < rng.uniform(0.1, 0.9)
            x[pinned] = rng.choice([10.0, -40.0], size=int(pinned.sum()))
        elif kind == 3:
            x += rng.uniform(-3.0, 3.0)
        elif kind == 4:
            x += 4.0 * (rng.random(m) < 0.05)
        elif kind == 5:
            x = np.round(x, 0) * rng.choice([1.0, 1e-6, 1e-7])
        cases.append(x)
    return cases


def _criterion_4_input(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(100_000)
    return inject_spikes(noise, spaced_locations(rng, 100_000, 10))


finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestStandardize:
    def test_worked_example(self):
        out = standardize(TimeSeries(values=[1.0, 2.0, 3.0, 4.0]))
        assert out.source_mean == pytest.approx(2.5)
        assert out.source_sd == pytest.approx(math.sqrt(1.25))
        np.testing.assert_allclose(
            out.values, [-1.3416407865, -0.4472135955, 0.4472135955, 1.3416407865]
        )

    def test_constant_series_rejected(self):
        with pytest.raises(ZeroVarianceError):
            standardize(TimeSeries(values=[1.0, 1.0, 1.0]))

    @pytest.mark.parametrize(
        "values",
        [
            [1e200, -1e200, 0.0, 1.0],  # the squared deviations overflow
            # a partial sum overflows, the exact sum does not, and then a
            # deviation from the mean overflows
            [1.7e308, 1.7e308, -1.7e308],
            [1.7e308, -1.7e308, -1.7e308],  # a deviation from the mean overflows
            # the exact sum of the samples overflows, although the mean
            # would fit
            [1.7e308] * 3,
            [1.7e308, 1.7e308, 1.6999999999999998e308],
        ],
    )
    def test_overflowing_moments_are_domain_errors(self, values):
        series = TimeSeries(values=values)
        for fn in (standardize, kurtosis):
            with pytest.raises(DomainError, match="overflow float64"):
                fn(series)

    def test_values_are_deviations_over_sd_bitwise(self):
        x = np.random.default_rng(8).standard_normal(5000) * 3.0 + 1e4
        out = standardize(TimeSeries(values=x))
        want = (x - out.source_mean) / out.source_sd
        assert want.tobytes() == out.values.tobytes()

    def test_two_samples_too_short(self):
        # the minimum-length contract (m >= 3) wins over supporting pairs
        with pytest.raises(TooShortError):
            TimeSeries(values=[0.0, 2.0])

    def test_non_finite_rejected_with_index(self):
        with pytest.raises(NonFiniteError) as err:
            TimeSeries(values=[1.0, float("nan"), 3.0])
        assert err.value.index == 1

    @given(
        st.lists(finite_values, min_size=3, max_size=64).filter(
            lambda v: max(v) - min(v) > 1e-6
        )
    )
    @settings(max_examples=50)
    def test_idempotent(self, values):
        once = standardize(TimeSeries(values=values))
        twice = standardize(TimeSeries(values=once.values))
        np.testing.assert_allclose(twice.values, once.values, atol=1e-9)
        assert abs(float(np.mean(once.values))) < 1e-9
        assert abs(float(np.std(once.values)) - 1.0) < 1e-9

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(1001)
        a = standardize(TimeSeries(values=values))
        perm = rng.permutation(values.size)
        b = standardize(TimeSeries(values=values[perm]))
        # compensated summation makes the moments order-independent exactly
        assert a.source_mean == b.source_mean
        assert a.source_sd == b.source_sd
        np.testing.assert_array_equal(np.sort(a.values), np.sort(b.values))


class TestHcFormula:
    def test_worked_example_m4(self):
        hc = hc_from_sorted_p(np.array([0.01, 0.2, 0.5, 0.9]))
        assert hc[0] == pytest.approx(2 * (0.25 - 0.01) / math.sqrt(0.01 * 0.99))
        assert hc[0] == pytest.approx(4.824, abs=5e-4)
        assert hc.max() == hc[0]

    def test_exact_uniform_p_gives_zero(self):
        m = 8
        p = np.arange(1, m + 1) / m
        hc = hc_from_sorted_p(p)
        np.testing.assert_allclose(hc, 0.0, atol=1e-12)

    def test_all_large_p_gives_negative_below_top_rank(self):
        # i/m < p for every rank except i = m, where i/m = 1 > 0.99999
        # leaves a vanishingly small positive component
        hc = hc_from_sorted_p(np.array([0.99999] * 3))
        assert (hc[:-1] < 0).all()
        expected_top = math.sqrt(3) * 1e-5 / math.sqrt(0.99999 * 1e-5)
        assert hc[-1] == pytest.approx(expected_top, rel=1e-9)

    def test_blocked_ranks_match_one_whole_array_pass(self, monkeypatch):
        # p-values of 0 and 1 put the degenerate components (+inf at p = 0,
        # -inf at p = 1, and 0 at p = 1 on the last rank) across seams
        m = 7 * 9 + 4
        p = np.sort(np.random.default_rng(5).random(m))
        p[:9] = 0.0
        p[-10:] = 1.0
        monkeypatch.setattr(_purekernels, "_BLOCK", 1 << 62)
        whole = hc_from_sorted_p(p)
        leading = core._hc_leading_ranks(p[:40], m)
        assert np.isinf(whole[:9]).all() and whole[-1] == 0.0
        monkeypatch.setattr(_purekernels, "_BLOCK", 7)
        assert hc_from_sorted_p(p).tobytes() == whole.tobytes()
        assert core._hc_leading_ranks(p[:40], m).tobytes() == leading.tobytes()

    def test_temporaries_stay_block_sized(self):
        p = np.sort(np.random.default_rng(42).random(1 << 20))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hc_from_sorted_p(p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the output plus one block's temporaries; the whole-array pass
        # peaks at about 4x the input
        assert peak < 1.5 * p.nbytes


class TestAsymptoticThreshold:
    def test_values(self):
        assert asymptotic_threshold(10**6) == pytest.approx(2.2916, abs=5e-4)
        assert asymptotic_threshold(3) == pytest.approx(0.43369, abs=5e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_threshold(2)


class TestTukey:
    def test_worked_example(self):
        value = tukey_hc(100, 0.05, 0.10)
        assert value == pytest.approx(10 * 0.05 / math.sqrt(0.0475))
        assert value == pytest.approx(2.294, abs=5e-4)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    @settings(max_examples=50)
    def test_zero_when_fraction_equals_alpha(self, m, alpha):
        assert tukey_hc(m, alpha, alpha) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            tukey_hc(100, 0.0, 0.5)
        with pytest.raises(DomainError):
            tukey_hc(100, 1.0, 0.5)
        with pytest.raises(DomainError):
            tukey_hc(0, 0.05, 0.5)


class TestKurtosis:
    def test_two_point_symmetric(self):
        report = kurtosis(TimeSeries(values=[1.0, -1.0] * 8))
        assert report.raw == pytest.approx(1.0)
        assert report.excess == pytest.approx(-2.0)

    def test_normal_sample_near_three(self):
        rng = np.random.default_rng(5)
        report = kurtosis(TimeSeries(values=rng.standard_normal(200_000)))
        assert report.raw == pytest.approx(3.0, abs=0.1)

    def test_constant_rejected(self):
        with pytest.raises(ZeroVarianceError):
            kurtosis(TimeSeries(values=[2.0, 2.0, 2.0]))

    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(11).standard_normal(5000),
            np.random.default_rng(12).standard_normal(5000) * 3.0 + 1e4,
            np.random.default_rng(13).standard_normal(5000) * 1e-5 - 7.0,
            # The spiky input of acceptance criterion 4 with seed 16, where
            # numpy's ``** 4`` moves the kurtosis sum by one ulp.
            _criterion_4_input(seed=16),
        ],
        ids=["unit", "offset", "tiny", "spiky"],
    )
    def test_moments_match_python_float_form_exactly(self, values):
        m = values.size
        mean = math.fsum(values) / m
        sd = math.sqrt(math.fsum((x - mean) ** 2 for x in values.tolist()) / m)
        raw = math.fsum(((x - mean) / sd) ** 4 for x in values.tolist()) / m
        report = kurtosis(TimeSeries(values=values))
        assert (report.mean, report.sd, report.raw) == (mean, sd, raw)

    @given(st.lists(finite_values, min_size=3, max_size=32).filter(
        lambda v: max(v) - min(v) > 1e-6
    ))
    @settings(max_examples=50)
    def test_excess_identity(self, values):
        report = kurtosis(TimeSeries(values=values))
        assert report.raw - report.excess == 3.0


def _terms_summing_to(bits: list[int], exponent: int) -> list[float]:
    # Powers of two whose ``exponent``-th powers are exact and add up to
    # the sum of 2**k over ``bits``: 2**k = 2**r * (2**q)**exponent.
    values = []
    for k in bits:
        q, r = divmod(k, exponent)
        values += [2.0**q] * (1 << r)
    return values


def _exact_sum(values: np.ndarray, exponent: int) -> float:
    # The sum of the Python-float terms, rounded once. For exponent 1 that
    # is the exact rational sum, float(sum(map(Fraction, values))), since
    # fsum also raises when a partial sum overflows. It is formed faster
    # in units of 2**-1074: each value is n / 2**k with k <= 1074, and the
    # int true division rounds the total once, half-even.
    if exponent == 1:
        ratios = map(float.as_integer_ratio, values.tolist())
        return sum(n << (1074 - (d.bit_length() - 1)) for n, d in ratios) / (1 << 1074)
    return math.fsum(map(pow, values.tolist(), repeat(exponent)))


class TestPowerSum:
    @staticmethod
    def _check(values, exponent):
        # Equal to the exact sum of the Python-float terms rounded once, or
        # OverflowError on both sides.
        values = np.asarray(values, dtype=np.float64)
        try:
            want = _exact_sum(values, exponent)
        except OverflowError:
            with pytest.raises(OverflowError):
                _power_sum(values, exponent)
            return
        got = _power_sum(values, exponent)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros(0),
            np.random.default_rng(21).standard_normal(1),
            np.random.default_rng(22).standard_normal(1 << 16),
            np.random.default_rng(23).standard_normal((1 << 16) + 1) * 1e3,
            np.random.default_rng(24).standard_cauchy(3 * (1 << 16) + 5),
            _criterion_4_input(seed=16),
            np.array([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310] * 3),
            # powers that underflow to 0 or to a subnormal
            np.array([1e-200, -1e-170, 1e-155, -1e-80, 1e-78, 3e-162, 1.0]),
            np.ldexp(
                np.random.default_rng(25).random(5000),
                np.random.default_rng(26).integers(-1074, 200, 5000),
            ),
            # sums in the subnormal range, of squares and of fourth powers
            np.ldexp(
                np.random.default_rng(27).standard_normal(1000),
                np.random.default_rng(28).integers(-565, -530, 1000),
            ),
            np.ldexp(
                np.random.default_rng(29).standard_normal(1000),
                np.random.default_rng(30).integers(-283, -265, 1000),
            ),
            np.array([0.0, -0.0, -0.0, 0.0]),
            np.array([-0.0] * 3),
            np.array([-3.5, 2.0, -1e-3, -7.25, 0.0, -0.0]),
        ],
        ids=[
            "empty", "one", "one_chunk", "chunk_plus_one", "cauchy", "spiky",
            "subnormal", "underflow", "all_exponents", "subnormal_squares",
            "subnormal_fourths", "zeros", "negative_zeros", "negative",
        ],
    )
    @pytest.mark.parametrize("exponent", [1, 2, 4])
    def test_chunks_match_whole_list_form_exactly(self, values, exponent):
        assert _power_sum(values, exponent) == _exact_sum(values, exponent)

    @pytest.mark.parametrize(
        "bits",
        [
            [0, -53],  # 1 + 2**-53: halfway, ties down to the even 1.0
            [0, -52, -53],  # halfway above an odd mantissa: ties up
            [0, -53, -160],  # just above halfway: rounds up
            [-1000, -1053],  # halfway between two normal doubles near 2**-1000
            range(971, 1024),  # M, the largest double
            [*range(971, 1024), 969],  # M + ulp/4: rounds down to M
            [*range(971, 1024), 970],  # M + ulp/2: ties to 2**1024, overflow
            [*range(971, 1024), 970, 900],  # above the float range
            [1023, 1023],  # 2**1024
            [1022] * 3,  # 1.5 * 2**1023 from equal terms
        ],
        ids=[
            "tie_down", "tie_up", "above_tie", "tiny_tie", "max", "below_max_tie",
            "at_max_tie", "above_max", "two_halves", "three_quarters",
        ],
    )
    @pytest.mark.parametrize("exponent", [1, 2, 4])
    def test_rounds_half_even_and_overflows_like_fsum(self, bits, exponent):
        values = _terms_summing_to(list(bits), exponent)
        self._check(values, exponent)
        self._check([-v for v in values], exponent)

    @pytest.mark.parametrize("exponent", [1, 2, 4])
    def test_full_bins_of_largest_mantissa(self, exponent):
        # The largest double whose power stays below 2: its term's mantissa
        # is all ones, or one below, so the high half of the split is at
        # its largest, and 3 * 2**16 + 5 of them fill a bin in every chunk.
        x = 2.0 ** (1.0 / exponent)
        while pow(x, exponent) >= 2.0:
            x = math.nextafter(x, 0.0)
        assert int(math.frexp(pow(x, exponent))[0] * 2.0**53) >> 26 == (1 << 27) - 1
        values = np.full(3 * (1 << 16) + 5, x)
        values[::3] *= -1.0
        self._check(values, exponent)

    @given(
        st.lists(finite_values, max_size=64)
        | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=200)
    def test_property_finite_values(self, values, exponent):
        self._check(values, exponent)

    def test_signed_sum_survives_an_overflowing_partial_sum(self):
        values = np.array([1.7e308, 1.7e308, -1.7e308])
        with pytest.raises(OverflowError):
            math.fsum(values.tolist())
        assert _power_sum(values, 1) == 1.7e308

    def test_moments_sum_once_and_kurtosis_reuses_them(self, monkeypatch):
        exponents = []

        def counting(values, exponent):
            exponents.append(exponent)
            return power_sum(values, exponent)

        def no_fsum(iterable):
            raise AssertionError("math.fsum called")

        power_sum = core._power_sum
        monkeypatch.setattr(core, "_power_sum", counting)
        monkeypatch.setattr(math, "fsum", no_fsum)
        std = standardize(TimeSeries(values=_criterion_4_input(seed=16)))
        assert exponents == [1, 2]
        _kurtosis_of(std)
        assert exponents == [1, 2, 4]


class TestTimeSeries:
    def test_public_construction_copies_the_callers_array(self):
        values = np.arange(5.0)
        series = TimeSeries(values=values)
        values[0] = 99.0
        assert series.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert values.flags.writeable
        assert not series.values.flags.writeable

    def test_ingest_adopts_its_array_read_only(self, tmp_path):
        from hcdetect.io import InputSpec, ingest

        values = np.random.default_rng(72).standard_normal(1 << 18)
        path = tmp_path / "x.bin"
        values.astype("<f8").tofile(path)
        tracemalloc.start()
        try:
            series = ingest(InputSpec(path=path, format="raw_f64_le"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not series.values.flags.writeable
        with pytest.raises(ValueError):
            series.values[0] = 0.0
        np.testing.assert_array_equal(series.values, values)
        # one array of samples: the public constructor's copy would double it
        assert peak < 1.5 * values.nbytes, peak / values.nbytes


class TestHcProfile:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(4096)
        a = profile_series(TimeSeries(values=values))
        b = profile_series(TimeSeries(values=rng.permutation(values)))
        assert a.hc_max == b.hc_max
        np.testing.assert_array_equal(a.hc_values, b.hc_values)

    def test_affine_invariance_exact_for_binary_scale(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(2048)
        a = profile_series(TimeSeries(values=values))
        b = profile_series(TimeSeries(values=4.0 * values))
        np.testing.assert_array_equal(a.hc_values, b.hc_values)
        np.testing.assert_array_equal(a.original_indices, b.original_indices)

    def test_affine_invariance_general(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal(2048)
        a = profile_series(TimeSeries(values=values))
        b = profile_series(TimeSeries(values=2.7 * values + 11.0))
        np.testing.assert_allclose(a.hc_values, b.hc_values, rtol=1e-8, atol=1e-8)
        np.testing.assert_array_equal(a.original_indices, b.original_indices)

    def test_all_components_finite_even_with_extreme_samples(self):
        values = np.concatenate(
            [np.linspace(-2, 2, 400), [1e6, -1e6, 3e5]]
        )
        series = TimeSeries(values=values)
        prof = profile_series(series)
        assert np.isfinite(prof.hc_values).all()
        assert backend.two_sided_p(standardize(series).values).min() >= P_FLOOR

    def test_permutation_maps_ranks_to_time(self):
        rng = np.random.default_rng(14)
        values = rng.standard_normal(257)
        values[100] = 50.0  # dominant outlier gets rank 1
        prof = profile_series(TimeSeries(values=values))
        assert prof.original_indices[0] == 100
        order = np.sort(prof.original_indices)
        np.testing.assert_array_equal(order, np.arange(values.size))

    def test_exact_ties_keep_time_order(self):
        # rounding makes many samples share |z| (and p): within such a tie
        # the ranks must follow time order
        values = np.round(np.random.default_rng(16).standard_normal(3000), 1)
        values[::97] = 40.0  # ties pinned at the p-value floor
        series = TimeSeries(values=values)
        prof = profile_series(series)
        z = standardize(series).values
        p = backend.two_sided_p(z)
        want = np.lexsort((np.arange(z.size), -np.abs(z), p))
        np.testing.assert_array_equal(prof.original_indices, want)

    def test_kernel_sees_ascending_magnitudes(self, monkeypatch):
        rng = np.random.default_rng(17)
        for values in (rng.standard_normal(70_001), np.round(rng.standard_normal(5000), 1)):
            std = standardize(TimeSeries(values=values))
            assert _two_sided_p_calls(monkeypatch, hc_profile, std) == [(values.size, True)]

    def test_restricted_range_uses_lower_half(self):
        rng = np.random.default_rng(15)
        values = rng.standard_normal(1000)
        full = profile_series(TimeSeries(values=values))
        half = profile_series(TimeSeries(values=values), restricted_rank_range=True)
        assert half.max_rank == 500
        assert half.hc_max == full.hc_values[:500].max()


def _order_inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(71)
    spikes = np.repeat([40.0, -40.0, 45.0, -45.0, 60.0], 7)
    runs = np.repeat([1.0, 2.0, 2.5, 3.0, -1.0], [3, 5, 1, 7, 2])
    zeros = np.where(np.arange(300) % 2, -0.0, 0.0)
    symmetric = rng.standard_normal(400)
    return {
        "n0": np.zeros(0),
        "n1": np.array([1.5]),
        "n2": np.array([3.0, -1.0]),
        "n2_tied": np.array([-0.0, 0.0]),
        "all_equal": np.full(1000, 0.25),
        "signed_zeros": np.where(np.arange(1000) % 2, -0.0, 0.0),
        "signed_zeros_in_noise": rng.permutation(
            np.concatenate([zeros, rng.standard_normal(700)])
        ),
        "adjacent_runs": rng.permutation(runs),
        "adjacent_runs_in_noise": rng.permutation(
            np.concatenate([runs, rng.standard_normal(40)])
        ),
        "floor_pinned": rng.permutation(
            np.concatenate([spikes, rng.standard_normal(200)])
        ),
        "mostly_floor_pinned": rng.permutation(
            np.concatenate([np.tile(spikes, 4), rng.standard_normal(60)])
        ),
        "rounded_normals": np.round(rng.standard_normal(100_000), 1),
        # symmetric about 0, so its exact mean is 0 and standardizing keeps
        # the exact zeros, whose p clamps to P_CEIL below the p of 1e-7
        "symmetric_with_zeros": rng.permutation(
            np.concatenate([symmetric, -symmetric, zeros[:40], [1e-7, -1e-7] * 5])
        ),
    }


def _tied_count(x: np.ndarray) -> int:
    # elements whose value another element shares (np.unique merges ±0)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return int(np.count_nonzero(counts[inverse] > 1))


class TestExactOrder:
    """The unstable sort plus tie repair gives a stable sort's order, and
    the keys in it with the bits of a gather (the sign of a zero too)."""

    @pytest.mark.parametrize("name", sorted(_order_inputs()))
    def test_matches_stable_argsort(self, name):
        x = _order_inputs()[name]
        order, srt = _exact_order(x)
        want = np.argsort(x, kind="stable")
        assert np.array_equal(order, want)
        assert srt.tobytes() == x[want].tobytes()

    @pytest.mark.parametrize(
        "name", sorted(n for n, z in _order_inputs().items() if z.size >= MIN_LENGTH)
    )
    def test_profile_order_matches_three_key_lexsort(self, name):
        z = _order_inputs()[name]
        prof = hc_profile(StandardizedSeries(values=z, source_mean=0.0, source_sd=1.0))
        p = backend.two_sided_p(z)
        want = np.lexsort((np.arange(z.size), -np.abs(z), p))
        assert np.array_equal(prof.original_indices, want)
        assert prof.hc_values.tobytes() == hc_from_sorted_p(p[want]).tobytes()

    def test_profile_repairs_the_clamp_next_to_zero(self):
        z = _order_inputs()["symmetric_with_zeros"]
        series = TimeSeries(values=z)
        std = standardize(series)
        assert std.source_mean == 0.0
        z = std.values
        # in (-|z|, time) order the p-values are not monotone: the exact
        # zeros' P_CEIL follows the larger p of the +-1e-7 samples
        by_abs = np.lexsort((np.arange(z.size), -np.abs(z)))
        assert (np.diff(backend.two_sided_p(z[by_abs])) < 0).any()
        want = np.lexsort((np.arange(z.size), -np.abs(z), backend.two_sided_p(z)))
        assert np.array_equal(profile_series(series).original_indices, want)

    @pytest.mark.parametrize("name", sorted(_order_inputs()))
    def test_tie_repair_sees_only_the_tied_elements(self, name, monkeypatch):
        z = _order_inputs()[name]
        key = -np.abs(z)
        want = [n for n in (_tied_count(z), _tied_count(key)) if n]
        sizes = []
        argsort = np.argsort

        def counting(a, *args, **kwargs):
            if kwargs.get("kind") == "stable":
                sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        _exact_order(z)
        _exact_order(key)
        assert sizes == want

    def test_inputs_reach_the_floor_and_mostly_tied_keys(self):
        inputs = _order_inputs()
        p = backend.two_sided_p(inputs["floor_pinned"])
        assert (p == P_FLOOR).sum() == 35
        assert 0 < _tied_count(p) < p.size // 2
        p = backend.two_sided_p(inputs["mostly_floor_pinned"])
        assert _tied_count(p) > p.size // 2
        for name in ("all_equal", "signed_zeros", "rounded_normals"):
            assert _tied_count(inputs[name]) > inputs[name].size // 2, name


def _two_sided_p_calls(monkeypatch, fn, *args) -> list[tuple[int, bool]]:
    """The backend.two_sided_p calls of fn(*args): each argument's size, and
    whether its |z| is non-decreasing, the pure kernel's fast path."""
    calls = []
    real = backend.two_sided_p

    def recording(z):
        a = np.abs(np.asarray(z)).ravel()
        calls.append((a.size, bool((a[1:] >= a[:-1]).all())))
        return real(z)

    with monkeypatch.context() as patch:
        patch.setattr(backend, "two_sided_p", recording)
        fn(*args)
    return calls


class TestTestStatistic:
    def test_detects_strong_shift(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(10_000) + 1.0
        assert hc_test_statistic(x) > asymptotic_threshold(10_000)

    def test_null_is_tame(self):
        rng = np.random.default_rng(22)
        values = [
            hc_test_statistic(rng.standard_normal(5000)) for _ in range(20)
        ]
        # the null-calibrated statistic hugs the threshold curve from below
        assert np.median(values) < asymptotic_threshold(5000)

    def test_falls_back_to_full_maximum_without_p_above_one_over_m(self):
        # Six of ten samples sit at the p-value floor, so no p among the
        # ranks <= m/2 exceeds 1/m; the HC component peaks at rank 6, past
        # the restricted range, and only the full maximum reaches it.
        x = np.array([40.0] * 6 + [0.1, -0.2, 0.3, -0.4])
        hc = hc_from_sorted_p(np.sort(backend.two_sided_p(x)))
        assert int(np.argmax(hc)) == 5
        assert hc_test_statistic(x) == float(hc.max())
        assert hc_test_statistic(x) > hc[:5].max()

    def test_leaves_its_input_untouched(self):
        for n, x in enumerate(_statistic_inputs()):
            before = x.tobytes()
            hc_test_statistic(x)
            assert x.tobytes() == before, n

    def test_accepts_read_only_input(self):
        # the second input takes the full-sort fallback
        for values in (
            sample(GeneratorSpec.sparse_mixture(0.1, 2.0), 1000, 3).values,
            TimeSeries(values=[0.0] * 6 + [1e-6] * 4).values,
        ):
            assert not values.flags.writeable
            assert hc_test_statistic(values) == _full_sort_statistic(values)

    @pytest.mark.parametrize("kernels", ["pure", "native"])
    def test_equals_the_full_sort_reference(self, monkeypatch, request, kernels):
        if kernels == "native":
            fn = request.getfixturevalue("native_kernels").two_sided_p
        else:
            fn = _purekernels.two_sided_p
        monkeypatch.setattr(backend, "two_sided_p", fn)
        for n, x in enumerate(_statistic_inputs()):
            assert hc_test_statistic(x) == _full_sort_statistic(x), n

    def test_converts_only_the_top_half_to_p_values(self, monkeypatch):
        m = 10_001
        x = np.random.default_rng(31).standard_normal(m)
        assert _two_sided_p_calls(monkeypatch, hc_test_statistic, x) == [(m // 2, True)]

    @pytest.mark.parametrize(
        "values",
        [
            # the half's largest p is an exact 0's clamp, below 1e-6's p
            [0.0] * 6 + [1e-6] * 4,
            # no p of the half exceeds 1/m
            [40.0] * 6 + [0.1, -0.2, 0.3, -0.4],
        ],
    )
    def test_converts_all_samples_when_the_half_cannot_decide(self, monkeypatch, values):
        x = np.array(values)
        calls = _two_sided_p_calls(monkeypatch, hc_test_statistic, x)
        assert calls == [(x.size // 2, True), (x.size, True)]
        assert hc_test_statistic(x) == _full_sort_statistic(x)

    def test_repairs_the_clamp_next_to_zero(self, monkeypatch):
        # Read backwards, the p-values of the sorted |x| put the exact
        # zeros' P_CEIL after the larger p of 1e-6, in the top half (one
        # zero, four 1e-6) and in all ten samples; one sort repairs each.
        x = np.array([0.0] * 6 + [1e-6] * 4)
        p = backend.two_sided_p(np.sort(x))[::-1]
        assert (np.diff(p) < 0).any()
        sorts = []
        real_sort = np.sort

        def counting_sort(a, *args, **kwargs):
            sorts.append(np.size(a))
            return real_sort(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "sort", counting_sort)
            got = hc_test_statistic(x)
        assert sorts == [x.size // 2, x.size]
        assert got == _full_sort_statistic(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        x = np.array([1.0, 2.0, 0.5, 0.1, 0.2, 3.0, 0.0, 1.5])
        x[0] = bad
        with pytest.raises(NonFiniteError) as err:
            hc_test_statistic(x)
        assert err.value.index == 0
        assert f"non-finite sample {bad} at index 0" in str(err.value)
