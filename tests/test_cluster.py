"""Clustering: worked examples, the exhaustive contiguous-partition oracle,
the quadratic silhouette oracle, and determinism."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdetect import (
    best_model,
    kmeans_1d,
    select_k,
    silhouette,
    thresholds_from,
)
from hcdetect.errors import TooFewPointsError, UndefinedSilhouetteError


def exhaustive_contiguous_optimum(points: np.ndarray, k: int) -> float:
    """Global 1-D k-means optimum by enumerating contiguous partitions of
    the sorted values (optimal 1-D clusters are contiguous)."""
    srt = np.sort(points)
    n = srt.size

    def sse(lo, hi):
        seg = srt[lo:hi]
        return float(((seg - seg.mean()) ** 2).sum())

    best = np.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        edges = (0, *cuts, n)
        total = sum(sse(a, b) for a, b in zip(edges, edges[1:]))
        best = min(best, total)
    return best


def brute_force_silhouette(points: np.ndarray, assignment: np.ndarray) -> float:
    """Quadratic literal silhouette definition."""
    n = points.size
    scores = np.zeros(n)
    for i in range(n):
        same = assignment == assignment[i]
        if same.sum() == 1:
            scores[i] = 0.0
            continue
        a = np.abs(points[same] - points[i]).sum() / (same.sum() - 1)
        b = np.inf
        for label in np.unique(assignment):
            if label == assignment[i]:
                continue
            mask = assignment == label
            b = min(b, np.abs(points[mask] - points[i]).mean())
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


class TestKmeans:
    def test_two_obvious_groups(self):
        model = kmeans_1d([0.0, 0.1, 10.0, 10.1], k=2, seed=0)
        np.testing.assert_allclose(model.centroids, [0.05, 10.05])
        assert model.assignment.tolist() == [0, 0, 1, 1]

    def test_k1_is_mean_and_variance(self):
        rng = np.random.default_rng(3)
        points = rng.normal(2.0, 3.0, 101)
        model = kmeans_1d(points, k=1, seed=0)
        assert model.centroids[0] == pytest.approx(points.mean())
        assert model.inertia == pytest.approx(points.size * points.var(), rel=1e-12)
        assert model.silhouette is None

    def test_three_groups_match_exhaustive_oracle(self):
        points = np.array([0.0, 1.0, 2.0, 100.0, 101.0, 102.0, 1000.0, 1001.0])
        model = kmeans_1d(points, k=3, seed=0)
        assert model.inertia == pytest.approx(
            exhaustive_contiguous_optimum(points, 3), abs=1e-9
        )
        labels = model.assignment
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:6])) == 1
        assert len(set(labels[6:])) == 1

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal(500)
        a = kmeans_1d(points, k=4, seed=77)
        b = kmeans_1d(points, k=4, seed=77)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.inertia == b.inertia
        assert a.silhouette == b.silhouette

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            kmeans_1d([1.0, 2.0], k=3, seed=0)

    def test_centroids_sorted_and_clusters_non_empty(self):
        rng = np.random.default_rng(10)
        points = rng.standard_normal(64)
        for k in (2, 3, 5):
            model = kmeans_1d(points, k=k, seed=1)
            assert (np.diff(model.centroids) >= 0).all()
            assert set(model.assignment.tolist()) == set(range(k))

    def test_duplicate_heavy_input_keeps_clusters_non_empty(self):
        model = kmeans_1d([2.0] * 10, k=3, seed=0)
        assert set(model.assignment.tolist()) == {0, 1, 2}

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=4,
            max_size=12,
        ),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_on_small_instances(self, values, k):
        points = np.asarray(values)
        if np.unique(points).size < k:
            return
        model = kmeans_1d(points, k=k, seed=0)
        assert model.inertia <= exhaustive_contiguous_optimum(points, k) + 1e-9


class TestSilhouette:
    def test_two_tight_clusters_score_high(self):
        rng = np.random.default_rng(4)
        points = np.concatenate([rng.normal(0, 0.01, 30), rng.normal(10, 0.01, 30)])
        model = kmeans_1d(points, k=2, seed=0)
        assert silhouette(points, model) > 0.9

    def test_k1_undefined(self):
        points = np.arange(6, dtype=float)
        model = kmeans_1d(points, k=1, seed=0)
        with pytest.raises(UndefinedSilhouetteError):
            silhouette(points, model)

    def test_even_spacing_matches_brute_force(self):
        points = np.arange(8, dtype=float)
        model = kmeans_1d(points, k=2, seed=0)
        exact = silhouette(points, model)
        brute = brute_force_silhouette(points, np.asarray(model.assignment))
        assert exact == pytest.approx(brute, abs=1e-12)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=5,
            max_size=24,
        ),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, values, k):
        points = np.asarray(values)
        if np.unique(points).size <= k:
            return
        model = kmeans_1d(points, k=k, seed=0)
        exact = silhouette(points, model)
        brute = brute_force_silhouette(points, np.asarray(model.assignment))
        assert exact == pytest.approx(brute, abs=1e-10)

    def test_model_silhouette_field_matches_op(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal(128)
        model = kmeans_1d(points, k=3, seed=0)
        assert model.silhouette == pytest.approx(silhouette(points, model), abs=1e-12)

    def test_affine_invariance_positive_scale(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal(60)
        model = kmeans_1d(points, k=3, seed=0)
        mapped = 3.5 * points + 2.0
        mapped_model = kmeans_1d(mapped, k=3, seed=0)
        assert silhouette(points, model) == pytest.approx(
            silhouette(mapped, mapped_model), abs=1e-9
        )


class TestSelectK:
    def test_four_separated_groups(self):
        rng = np.random.default_rng(2)
        points = np.concatenate(
            [rng.normal(c, 0.05, 40) for c in (0.0, 10.0, 20.0, 30.0)]
        )
        assert select_k(points, 2, 8, seed=0) == 4

    def test_two_groups(self):
        rng = np.random.default_rng(3)
        points = np.concatenate([rng.normal(0, 0.05, 50), rng.normal(5, 0.05, 50)])
        assert select_k(points, 2, 6, seed=0) == 2

    def test_best_model_consistent_with_select_k(self):
        rng = np.random.default_rng(5)
        points = np.concatenate([rng.normal(c, 0.1, 30) for c in (0, 8, 16)])
        model = best_model(points, 2, 6, seed=0)
        assert model.k == select_k(points, 2, 6, seed=0) == 3


class TestThresholds:
    def test_worked_examples(self):
        points = np.array([1.0, 2.0, 3.0, 5.0, 0.0, 4.0])
        # clusters: {1,2,3} -> 0, {5} -> 1, {0,4} -> 2 via a handmade model
        model = kmeans_1d(points, k=3, seed=0)
        # use explicit memberships instead: build from scratch
        from hcdetect.cluster import ClusterModel

        assignment = np.array([0, 0, 0, 1, 2, 2])
        handmade = ClusterModel(
            k=3,
            centroids=np.array([2.0, 5.0, 2.0]),
            assignment=assignment,
            inertia=0.0,
            silhouette=0.0,
            seed=0,
        )
        ts = thresholds_from(handmade, points)
        assert sorted(ts.thresholds) == pytest.approx([2.5, 3.0, 5.0])
        assert model.k == 3

    def test_threshold_bounds(self):
        rng = np.random.default_rng(12)
        points = rng.standard_normal(200) * 5
        model = kmeans_1d(points, k=4, seed=0)
        ts = thresholds_from(model, points)
        assert list(ts.thresholds) == sorted(ts.thresholds)
        for threshold, (lo, hi, mean) in zip(ts.thresholds, ts.cluster_ranges):
            assert threshold >= mean
            assert threshold <= hi + (hi - lo) / 4.0

    def test_factor_knob(self):
        points = np.array([0.0, 4.0, 100.0, 104.0])
        model = kmeans_1d(points, k=2, seed=0)
        quarter = thresholds_from(model, points, factor=0.25)
        half = thresholds_from(model, points, factor=0.5)
        assert half.thresholds[0] == pytest.approx(quarter.thresholds[0] + 1.0)


def full_recompute_init(srt: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The D^2 seeding recomputed over all points for every new centre:
    the oracle for the cell-local ``_init_centroids``."""
    cent = np.empty(k)
    cent[0] = srt[rng.integers(srt.size)]
    d2 = (srt - cent[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            target = rng.random() * total
            pos = int(np.searchsorted(np.cumsum(d2), target))
            pos = min(pos, srt.size - 1)
        else:
            pos = int(rng.integers(srt.size))
        cent[j] = srt[pos]
        np.minimum(d2, (srt - cent[j]) ** 2, out=d2)
    return np.sort(cent)


def searchsorted_silhouette(clusters: list[np.ndarray]) -> float:
    """The prefix-sum silhouette with a searchsorted for every cluster
    pair: the oracle for the disjoint-range shortcuts of ``_silhouette_of``."""
    prefs = [np.concatenate(([0.0], np.cumsum(c))) for c in clusters]
    total = 0.0
    for j, cl in enumerate(clusters):
        n = cl.size
        if n == 1:
            continue
        r = np.arange(1, n + 1)
        s = prefs[j]
        intra = (r * cl - s[1:]) + ((s[n] - s[1:]) - (n - r) * cl)
        a = intra / (n - 1)
        b = np.full(n, np.inf)
        for h, other in enumerate(clusters):
            if h == j:
                continue
            so = prefs[h]
            no = other.size
            q = np.searchsorted(other, cl)
            d = (q * cl - so[q]) + ((so[no] - so[q]) - (no - q) * cl)
            np.minimum(b, d / no, out=b)
        denom = np.maximum(a, b)
        with np.errstate(invalid="ignore"):
            scores = np.where(denom > 0.0, (b - a) / denom, 0.0)
        total += float(scores.sum())
    return total / sum(c.size for c in clusters)


def _seeding_inputs() -> dict[str, np.ndarray]:
    from hcdetect.cluster import EXACT_SIZE_LIMIT
    from hcdetect.core import TimeSeries, hc_profile, standardize

    rng = np.random.default_rng(41)
    spiky = rng.standard_normal(4000)
    spiky[rng.choice(4000, 12, replace=False)] += 12.0
    return {
        "duplicate_heavy": np.repeat(rng.standard_normal(7), 150),
        "all_equal": np.full(700, -2.5),
        "negative": -np.abs(rng.standard_cauchy(900)) - 1e3,
        "spike_hc": hc_profile(standardize(TimeSeries(spiky))).hc_values.copy(),
        "just_above_exact_limit": rng.standard_normal(EXACT_SIZE_LIMIT + 1),
    }


class TestCellLocalSeeding:
    @pytest.mark.parametrize("name", sorted(_seeding_inputs()))
    def test_matches_full_recompute_bit_for_bit(self, name):
        from hcdetect.cluster import _init_centroids

        srt = np.sort(_seeding_inputs()[name])
        for k in range(2, 11):
            for seed in range(12):
                got = _init_centroids(srt, k, np.random.default_rng((seed, k)))
                want = full_recompute_init(
                    srt, k, np.random.default_rng((seed, k))
                )
                assert np.array_equal(got, want), (name, k, seed)


class TestSilhouetteShortcuts:
    def test_even_split_of_tied_values_matches_searchsorted_form(self):
        from hcdetect.cluster import EXACT_SIZE_LIMIT

        # Three distinct values cannot fill five Lloyd clusters, so the
        # fit falls back to an even contiguous split that cuts through runs
        # of tied values, leaving neighbouring clusters touching.
        points = np.repeat([1.0, 2.0, 4.0], EXACT_SIZE_LIMIT // 2)
        np.random.default_rng(3).shuffle(points)
        model = kmeans_1d(points, k=5, seed=0)
        clusters = [np.sort(points[model.assignment == j]) for j in range(5)]
        assert any(
            lo[-1] == hi[0] for lo, hi in zip(clusters, clusters[1:])
        )
        assert model.silhouette == searchsorted_silhouette(clusters)
        assert silhouette(points, model) == searchsorted_silhouette(clusters)

    def test_overlapping_clusters_match_searchsorted_form(self):
        from hcdetect.cluster import ClusterModel

        rng = np.random.default_rng(17)
        points = rng.standard_normal(300)
        assignment = rng.integers(0, 4, points.size)
        assignment[:4] = np.arange(4)
        model = ClusterModel(
            k=4,
            centroids=np.zeros(4),
            assignment=assignment,
            inertia=0.0,
            silhouette=None,
            seed=0,
        )
        clusters = [np.sort(points[assignment == j]) for j in range(4)]
        assert silhouette(points, model) == searchsorted_silhouette(clusters)


def kmeans_loop_best(points, k_min, k_max, seed):
    """``best_model`` as a loop of ``kmeans_1d`` calls keeping the first
    silhouette maximizer: the oracle for its one shared set-up."""
    chosen = None
    for k in range(k_min, k_max + 1):
        model = kmeans_1d(points, k, seed=seed)
        if chosen is None or model.silhouette > chosen.silhouette:
            chosen = model
    return chosen


def _best_model_inputs():
    from hcdetect.cluster import EXACT_SIZE_LIMIT

    rng = np.random.default_rng(53)
    out = {}
    for m in (EXACT_SIZE_LIMIT, EXACT_SIZE_LIMIT + 1):
        groups = np.concatenate(
            [rng.normal(c, 0.5, m // 4) for c in (0.0, 2.0, 5.0, 11.0)]
        )
        groups = np.concatenate([groups, rng.normal(20.0, 1.0, m - groups.size)])
        out[f"groups_{m}"] = rng.permutation(groups)
        out[f"tied_{m}"] = rng.permutation(np.round(rng.standard_normal(m), 1))
        out[f"cauchy_{m}"] = rng.standard_cauchy(m)
    return out


class TestBestModelSetsUpOnce:
    @pytest.mark.parametrize("name", sorted(_best_model_inputs()))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_loop_of_kmeans_1d(self, name, seed):
        points = _best_model_inputs()[name]
        got = best_model(points, 2, 10, seed=seed)
        want = kmeans_loop_best(points, 2, 10, seed)
        assert got.k == want.k
        assert np.array_equal(got.centroids, want.centroids)
        assert got.inertia == want.inertia
        assert got.silhouette == want.silhouette
        assert np.array_equal(got.assignment, want.assignment)
        assert got.seed == want.seed
        assert not got.assignment.flags.writeable
        assert not got.centroids.flags.writeable


class TestBestModelSortsOnce:
    def test_assignment_in_caller_order_matches_direct_fit(self):
        rng = np.random.default_rng(29)
        points = np.round(
            np.concatenate([rng.normal(c, 0.4, 300) for c in (0.0, 3.0, 9.0)]), 1
        )
        rng.shuffle(points)
        best = best_model(points, 2, 6, seed=5)
        direct = kmeans_1d(points, best.k, seed=5)
        np.testing.assert_array_equal(best.assignment, direct.assignment)
        np.testing.assert_array_equal(best.centroids, direct.centroids)
        assert best.inertia == direct.inertia
        assert best.silhouette == direct.silhouette
        assert not best.assignment.flags.writeable
