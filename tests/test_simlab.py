"""Monte Carlo lab: generators, replicated aggregation, crossing finder."""

import numpy as np
import pytest
import scipy.stats

from hcdetect import (
    GeneratorSpec,
    SimConfig,
    TracePoint,
    asymptotic_threshold,
    boundary_grid_mean,
    boundary_grid_sparse,
    find_crossing,
    hc_test_statistic,
    mc_hc,
    sample,
)
from hcdetect import _purekernels, simlab
from hcdetect.errors import DomainError
from hcdetect.simlab import _curve, _first_crossing, default_m_grid

# One spec of every kind, two of them with a negative mu.
ALL_KINDS = [
    ({"spec": "null"}, GeneratorSpec.null()),
    ({"spec": "mean"}, GeneratorSpec.shifted_mean(-0.4)),
    ({"spec": "mixture"}, GeneratorSpec.sparse_mixture(0.05, 2.0)),
    ({"spec": "mixture-"}, GeneratorSpec.sparse_mixture(0.3, -1.5)),
    ({"spec": "sum"}, GeneratorSpec.sparse_sum(0.3, 2.0)),
]


class TestGeneratorSpec:
    def test_eps_domain(self):
        with pytest.raises(DomainError):
            GeneratorSpec.sparse_mixture(0.0, 1.0)
        with pytest.raises(DomainError):
            GeneratorSpec.sparse_mixture(1.0, 1.0)
        with pytest.raises(DomainError):
            GeneratorSpec(kind="null", eps=0.5)

    def test_kind_domain(self):
        with pytest.raises(DomainError):
            GeneratorSpec(kind="pink_noise")


class TestSample:
    def test_null_moments(self):
        x = sample(GeneratorSpec.null(), 100_000, seed=0).values
        assert abs(x.mean()) < 4 / np.sqrt(100_000)
        assert abs(x.var() - 1.0) < 0.05

    def test_mixture_with_zero_mu_is_null_distribution(self):
        x = sample(GeneratorSpec.sparse_mixture(0.5, 0.0), 50_000, seed=1).values
        stat, _ = scipy.stats.kstest(x, "norm")
        assert stat < 1.63 / np.sqrt(x.size)  # 1% critical value

    def test_mixture_mean_matches_analytic(self):
        x = sample(GeneratorSpec.sparse_mixture(0.1, 3.0), 100_000, seed=2).values
        assert x.mean() == pytest.approx(0.3, abs=0.02)

    def test_sum_variant_distribution(self):
        spec = GeneratorSpec.sparse_sum(0.3, 2.0)
        x = sample(spec, 200_000, seed=3).values
        assert x.mean() == pytest.approx(2.0, abs=0.01)
        assert x.var() == pytest.approx(0.7**2 + 0.3**2, abs=0.01)

    def test_deterministic_bitwise(self):
        spec = GeneratorSpec.sparse_mixture(0.05, 2.0)
        a = sample(spec, 4096, seed=(7, 4096, 3)).values
        b = sample(spec, 4096, seed=(7, 4096, 3)).values
        np.testing.assert_array_equal(a, b)

    def test_short_series_rejected(self):
        with pytest.raises(DomainError):
            sample(GeneratorSpec.null(), 2, seed=0)


class TestMcHc:
    def test_single_replicate_is_identity(self):
        config = SimConfig(replicates=1, m_grid=(1000,), seed=5)
        agg, reps = mc_hc(GeneratorSpec.null(), 1000, config)
        assert reps.shape == (1,)
        assert agg == reps[0]

    def test_replicates_finite_and_seed_stable(self):
        config = SimConfig(replicates=40, m_grid=(10_000,), seed=1)
        agg1, reps1 = mc_hc(GeneratorSpec.null(), 10_000, config)
        agg2, reps2 = mc_hc(GeneratorSpec.null(), 10_000, config)
        assert np.isfinite(reps1).all()
        np.testing.assert_array_equal(reps1, reps2)
        assert agg1 == agg2

    def test_master_seed_stability_of_null_level(self):
        a = mc_hc(
            GeneratorSpec.null(), 10_000, SimConfig(replicates=60, seed=101)
        )[0]
        b = mc_hc(
            GeneratorSpec.null(), 10_000, SimConfig(replicates=60, seed=202)
        )[0]
        assert abs(a - b) / abs(a) < 0.15

    def test_mean_shift_power(self):
        config = SimConfig(replicates=20, seed=3)
        agg, _ = mc_hc(GeneratorSpec.shifted_mean(1.0), 10_000, config)
        assert agg > asymptotic_threshold(10_000) == pytest.approx(2.107, abs=5e-4)

    def test_median_aggregator(self):
        config = SimConfig(replicates=9, seed=5, aggregator="median")
        agg, reps = mc_hc(GeneratorSpec.null(), 1000, config)
        assert agg == np.median(reps)

    @pytest.mark.parametrize("m", [2, 0, -1])
    def test_short_size_rejected(self, m):
        with pytest.raises(DomainError, match="m must be >= 3"):
            mc_hc(GeneratorSpec.null(), m, SimConfig(replicates=2, seed=1))

    def test_bootstrap_scheme_runs(self):
        config = SimConfig(replicates=8, seed=6, scheme="bootstrap")
        agg, reps = mc_hc(GeneratorSpec.shifted_mean(0.5), 2000, config)
        assert np.isfinite(reps).all()

    def test_mixture_and_sum_variants_diverge(self):
        # the two readings of the sparse model are materially different
        config = SimConfig(replicates=12, seed=11)
        _, mix = mc_hc(GeneratorSpec.sparse_mixture(0.01, 3.0), 100_000, config)
        _, sm = mc_hc(GeneratorSpec.sparse_sum(0.01, 3.0), 100_000, config)
        se = np.sqrt(mix.var() / mix.size + sm.var() / sm.size)
        assert abs(sm.mean() - mix.mean()) > 5 * se


class TestFindCrossing:
    def test_always_above_returns_first_grid_point(self):
        config = SimConfig(replicates=10, m_grid=(500, 1000, 2000), seed=1)
        m_star, trace = find_crossing(GeneratorSpec.shifted_mean(2.0), config)
        assert m_star == 500
        assert [t.m for t in trace] == [500, 1000, 2000]
        assert all(t.aggregated_hc >= t.threshold for t in trace)

    def test_null_not_found_across_master_seeds(self):
        found = 0
        for seed in range(12):
            config = SimConfig(
                replicates=25, m_grid=(1000, 10_000, 100_000), seed=seed
            )
            m_star, _ = find_crossing(GeneratorSpec.null(), config)
            found += m_star is not None
        assert found <= 1  # NotFound in >= 90% of master seeds

    def test_threads_do_not_change_results(self):
        base = SimConfig(replicates=10, m_grid=(500, 1000, 2000), seed=9)
        threaded = SimConfig(
            replicates=10, m_grid=(500, 1000, 2000), seed=9, workers=4
        )
        spec = GeneratorSpec.shifted_mean(0.3)
        m1, t1 = find_crossing(spec, base)
        m2, t2 = find_crossing(spec, threaded)
        assert m1 == m2
        assert t1 == t2

    def test_hysteresis_requires_persistence(self):
        # crafted trace check through the public API: strong signal crosses
        # at every point, so any hysteresis returns the first grid element
        config = SimConfig(replicates=5, m_grid=(500, 1000), seed=2, hysteresis=5)
        m_star, _ = find_crossing(GeneratorSpec.shifted_mean(2.0), config)
        assert m_star == 500

    @pytest.mark.parametrize(
        "above,hysteresis,expected",
        [
            ("-++-+++", 0, 1),
            ("-++-+++", 1, 1),
            ("-++-+++", 2, 4),
            ("-++-+++", 3, 4),  # the window is clipped at the grid end
            ("-++-++-", 2, None),
            ("-------", 0, None),
        ],
    )
    def test_first_crossing_needs_hysteresis_more_points(
        self, above, hysteresis, expected
    ):
        trace = tuple(
            TracePoint(100 + j, 2.0 if c == "+" else 1.0, 1.5)
            for j, c in enumerate(above)
        )
        m_star = _first_crossing(trace, hysteresis)
        assert m_star == (None if expected is None else 100 + expected)


class TestBoundaryGrids:
    def test_single_point_grid_matches_find_crossing(self):
        config = SimConfig(replicates=8, m_grid=(500, 1000, 2000), seed=4)
        curve = boundary_grid_mean([1.5], config)
        assert len(curve.points) == 1
        m_star, trace = find_crossing(GeneratorSpec.shifted_mean(1.5), config)
        assert curve.points[0].m_star == m_star
        assert list(curve.points[0].trace) == trace

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("aggregator", ["mean", "median"])
    @pytest.mark.parametrize("scheme", ["fresh", "bootstrap"])
    def test_curve_matches_the_documented_recipe(self, scheme, aggregator, workers):
        config = SimConfig(
            replicates=4, m_grid=(200, 500, 1000), seed=12, aggregator=aggregator,
            scheme=scheme, workers=workers,
        )
        _assert_curve_matches_the_recipe(config)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("scheme", ["fresh", "bootstrap"])
    def test_workspace_rows_straddle_the_kernel_block(self, scheme, workers):
        # Each pool thread's rows are as long as the largest m: the smaller
        # size uses their first columns, the larger one runs the kernels
        # in more than one block.
        config = SimConfig(
            replicates=2, m_grid=(1000, 40_000), seed=12, scheme=scheme,
            workers=workers,
        )
        assert config.m_grid[0] < _purekernels._BLOCK < config.m_grid[-1]
        _assert_curve_matches_the_recipe(config)

    @pytest.mark.parametrize("scheme", ["fresh", "bootstrap"])
    def test_spec_order_does_not_change_traces(self, scheme):
        config = SimConfig(replicates=3, m_grid=(100, 400), seed=5, scheme=scheme)
        forward = _curve("all", ALL_KINDS, config).points
        backward = _curve("all", ALL_KINDS[::-1], config).points
        assert forward == backward[::-1]

    def test_mean_curve_monotone_for_strong_signals(self):
        config = SimConfig(
            replicates=15, m_grid=(100, 300, 1000, 3000, 10_000), seed=8
        )
        curve = boundary_grid_mean([0.5, 1.0], config)
        stars = [p.m_star for p in curve.points]
        assert None not in stars
        assert stars[0] >= stars[1]

    def test_sparse_curve_has_both_variants(self):
        config = SimConfig(replicates=6, m_grid=(500, 1000), seed=3)
        curve = boundary_grid_sparse([0.1, 0.3], [1.0], config)
        assert [(p.params["variant"], p.params["eps"]) for p in curve.points] == [
            ("sparse_mixture", 0.1), ("sparse_mixture", 0.3),
            ("sparse_sum", 0.1), ("sparse_sum", 0.3),
        ]

    def test_empty_grids_rejected(self):
        config = SimConfig(replicates=5, m_grid=(500,), seed=1)
        with pytest.raises(DomainError):
            boundary_grid_mean([], config)
        with pytest.raises(DomainError):
            boundary_grid_sparse([], [1.0], config)


def test_bootstrap_draws_each_base_once(monkeypatch):
    draws, draw = [], simlab._draw

    def counted(m, rng, mixture):
        draws.append(m)
        return draw(m, rng, mixture)

    monkeypatch.setattr(simlab, "_draw", counted)
    config = SimConfig(
        replicates=4, m_grid=(100, 200), seed=2, scheme="bootstrap", workers=2
    )
    boundary_grid_sparse([0.1], [1.0, 2.0], config)
    assert sorted(draws) == [100, 200]


def _assert_curve_matches_the_recipe(config: SimConfig) -> None:
    # The reference draws every (spec, m, r) sample on its own.
    curve = _curve("all", ALL_KINDS, config)
    aggregate = np.mean if config.aggregator == "mean" else np.median
    reps = range(config.replicates)
    for (params, spec), point in zip(ALL_KINDS, curve.points):
        expected = []
        for m in config.m_grid:
            if config.scheme == "fresh":
                hcs = [
                    hc_test_statistic(sample(spec, m, (config.seed, m, r)).values)
                    for r in reps
                ]
            else:
                base = sample(spec, m, (config.seed, m)).values
                hcs = [
                    hc_test_statistic(
                        base[np.random.default_rng((config.seed, m, r)).integers(0, m, m)]
                    )
                    for r in reps
                ]
            agg = float(aggregate(hcs))
            expected.append(TracePoint(m, agg, asymptotic_threshold(m)))
        assert point.params == params
        assert list(point.trace) == expected
        assert point.m_star == _first_crossing(tuple(expected), config.hysteresis)


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records its size, starts no thread."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestThreadPool:
    @pytest.mark.parametrize(
        "workers,cpus,size", [(500, 4, 4), (500, None, 1), (3, 64, 3)]
    )
    def test_pool_is_bounded_by_the_cpus(self, monkeypatch, workers, cpus, size):
        monkeypatch.setattr(simlab, "ThreadPoolExecutor", _SerialPool)
        monkeypatch.setattr(simlab.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        config = SimConfig(replicates=3, m_grid=(100, 200), seed=1, workers=workers)
        _, trace = find_crossing(GeneratorSpec.shifted_mean(1.0), config)
        assert _SerialPool.sizes == [size]
        assert [t.m for t in trace] == [100, 200]


class TestSimConfig:
    @pytest.mark.parametrize(
        "start,stop,points", [(0, 100, 5), (-3, 100, 5), (100, 0, 5), (100, 1000, 0),
                              (100, 1000, -2)]
    )
    def test_geometric_grid_bounds_are_domain_errors(self, start, stop, points):
        with pytest.raises(DomainError, match="geometric grid"):
            default_m_grid(start, stop, points)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            SimConfig(m_grid=(100, 100))
        with pytest.raises(DomainError):
            SimConfig(m_grid=(2,))
        with pytest.raises(DomainError):
            SimConfig(replicates=0)
        with pytest.raises(DomainError):
            SimConfig(aggregator="mode")
