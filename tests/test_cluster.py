"""Clustering: worked examples, the exhaustive contiguous-partition oracle,
the quadratic silhouette oracle, and determinism."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import skip_off_golden_platform
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdetect import (
    best_model,
    kmeans_1d,
    select_k,
    silhouette,
    thresholds_from,
)
from hcdetect.cluster import ClusterModel
from hcdetect.errors import (
    DomainError,
    NonFiniteError,
    TooFewPointsError,
    UndefinedSilhouetteError,
)


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


def labelled_model(assignment) -> ClusterModel:
    """A two-cluster model with the given labels, valid or not."""
    return ClusterModel(
        k=2,
        centroids=np.array([0.5, 10.5]),
        assignment=np.asarray(assignment),
        inertia=0.0,
        silhouette=None,
        seed=0,
    )


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


class AtSmallBlocks:
    """Mixin: run every test of the class with ``_BLOCK`` at 7 and at 64,
    so block seams fall inside every oracle input. (Class scope keeps
    hypothesis's per-example fixture check quiet.)"""

    @pytest.fixture(autouse=True, scope="class", params=[7, 64], ids=["block7", "block64"])
    def small_block(self, request):
        from hcdetect import cluster

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cluster, "_BLOCK", request.param)
            yield


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

    @pytest.mark.parametrize("size", [300, 2000])
    def test_negative_seed_is_domain_error(self, size):
        points = np.random.default_rng(2).standard_normal(size)
        with pytest.raises(DomainError, match="seed"):
            kmeans_1d(points, k=3, seed=-1)
        with pytest.raises(DomainError, match="seed"):
            best_model(points, 2, 10, seed=-1)

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

    @pytest.mark.parametrize("stray", [5, -1])
    def test_label_outside_k_is_domain_error(self, stray):
        points = np.array([0.0, 1.0, 10.0, 11.0, 12.0])
        with pytest.raises(DomainError, match="labels"):
            silhouette(points, labelled_model([0, 0, 1, 1, stray]))

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

    @pytest.mark.parametrize("stray", [5, -1])
    def test_label_outside_k_is_domain_error(self, stray):
        points = np.array([0.0, 1.0, 10.0, 11.0, 12.0])
        with pytest.raises(DomainError, match="labels"):
            thresholds_from(labelled_model([0, 0, 1, 1, stray]), points)

    def test_factor_knob(self):
        points = np.array([0.0, 4.0, 100.0, 104.0])
        model = kmeans_1d(points, k=2, seed=0)
        quarter = thresholds_from(model, points, factor=0.25)
        half = thresholds_from(model, points, factor=0.5)
        assert half.thresholds[0] == pytest.approx(quarter.thresholds[0] + 1.0)

    @pytest.mark.parametrize("factor", [1e308, -1e308])
    def test_non_finite_threshold_is_domain_error(self, factor):
        # cluster 1 spans 0, so its threshold stays finite; cluster 0's
        # range times the factor overflows
        points = np.array([0.0, 4.0, 100.0, 100.0])
        model = labelled_model([0, 0, 1, 1])
        with pytest.raises(DomainError, match=r"threshold of cluster 0 is not finite"):
            thresholds_from(model, points, factor=factor)


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad,index", [(np.nan, 3), (np.inf, 0), (-np.inf, 5)])
    @pytest.mark.parametrize(
        "call",
        [
            lambda pts: kmeans_1d(pts, k=2),
            lambda pts: best_model(pts, 2, 3),
            lambda pts: silhouette(pts, labelled_model([0, 0, 0, 1, 1, 1])),
            lambda pts: thresholds_from(labelled_model([0, 0, 0, 1, 1, 1]), pts),
        ],
        ids=["kmeans_1d", "best_model", "silhouette", "thresholds_from"],
    )
    def test_names_the_index(self, call, bad, index):
        points = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        points[index] = bad
        with pytest.raises(NonFiniteError) as err:
            call(points)
        assert err.value.index == index
        assert f"non-finite sample {bad} at index {index}" in str(err.value)


def full_recompute_init(srt: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The D^2 seeding recomputed over all points for every new centre:
    the oracle for the pick sequences of ``_d2_picks``."""
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


def unblocked_silhouette(clusters: list[np.ndarray]) -> float:
    """``_silhouette_of`` with each cluster's expressions evaluated on the
    whole cluster at once: the oracle, bit for bit, for its blocks."""
    prefs = [np.concatenate(([0.0], np.cumsum(c))) for c in clusters]
    total = 0.0
    for j, cl in enumerate(clusters):
        n = cl.size
        if n == 1:
            continue
        r = np.arange(1.0, n + 1.0)
        s = prefs[j]
        a = (r * cl - s[1:]) + ((s[n] - s[1:]) - (n - r) * cl)
        a /= n - 1
        b = np.full(n, np.inf)
        for h, other in enumerate(clusters):
            if h == j:
                continue
            so = prefs[h]
            no = other.size
            if other[-1] < cl[0]:
                d = no * cl - so[no]
            elif other[0] >= cl[-1]:
                d = so[no] - no * cl
            else:
                q = np.searchsorted(other, cl)
                d = (q * cl - so[q]) + ((so[no] - so[q]) - (no - q) * cl)
            d /= no
            np.minimum(b, d, out=b)
        denom = np.maximum(a, b)
        b -= a
        scores = np.divide(b, denom, out=np.zeros(n), where=denom > 0.0)
        total += float(scores.sum())
    return total / sum(c.size for c in clusters)


def _spiky_profile(m: int, seed: int) -> np.ndarray:
    """HC values of a unit-noise series with a +12 spike per 1000 samples."""
    from hcdetect.core import TimeSeries, hc_profile, standardize

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m)
    x[rng.choice(m, m // 1000, replace=False)] += 12.0
    return hc_profile(standardize(TimeSeries(x))).hc_values.copy()


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


def assert_picks_match_full_recompute(srt: np.ndarray, seeds, label) -> None:
    from hcdetect.cluster import DEFAULT_RESTARTS, _d2_picks

    for seed in seeds:
        picks = _d2_picks(srt, 10, seed)
        assert picks.shape == (DEFAULT_RESTARTS, 10)
        for r, row in enumerate(picks):
            for k in range(1, 11):
                want = full_recompute_init(srt, k, np.random.default_rng((seed, r)))
                assert np.array_equal(np.sort(row[:k]), want), (label, seed, r, k)


_default_rng = np.random.default_rng


class ZeroDraws:
    """A generator whose ``random()`` is 0.0, so a draw's target is
    0 * total: NaN once the total overflows to inf."""

    def __init__(self, *args):
        self._rng = _default_rng(*args)

    def integers(self, *args):
        return self._rng.integers(*args)

    def random(self):
        return 0.0


class TestCellLocalSeeding:
    """One pick sequence per restart seeds every k: its sorted first k
    picks are the D^2 seeding for k, recomputed from scratch."""

    @pytest.mark.parametrize("name", sorted(_seeding_inputs()))
    def test_matches_full_recompute_bit_for_bit(self, name):
        srt = np.sort(_seeding_inputs()[name])
        assert_picks_match_full_recompute(srt, range(3), name)

    @pytest.mark.parametrize("draws", ["uniform", "zero"])
    def test_draws_whose_total_overflows(self, monkeypatch, draws):
        # Squared distances across the two groups overflow to inf, so the
        # total is inf and the target inf, or NaN when the draw is 0.0.
        rng = np.random.default_rng(59)
        srt = np.sort(
            np.concatenate(
                [1e200 + 1e185 * rng.standard_normal(600), -1e200 * rng.random(600)]
            )
        )
        if draws == "zero":
            monkeypatch.setattr(np.random, "default_rng", ZeroDraws)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_picks_match_full_recompute(srt, range(2), draws)
        if draws == "zero":
            from hcdetect.cluster import _d2_picks

            with np.errstate(over="ignore", invalid="ignore"):
                picks = _d2_picks(srt, 10, 0)
            # a NaN target sorts past the end of the cumsum: the last point
            assert (picks[:, 1] == srt[-1]).all()


class TestOneSearchPerBestModel:
    @pytest.mark.parametrize("k_min", [2, 5, 10])
    def test_one_pick_sequence_per_restart(self, monkeypatch, k_min):
        from hcdetect import cluster

        rngs, searches = [], []
        default_rng = np.random.default_rng
        d2_picks = cluster._d2_picks

        def counting_rng(*args):
            rngs.append(args)
            return default_rng(*args)

        def counting_picks(srt, k, seed):
            searches.append(k)
            return d2_picks(srt, k, seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(cluster, "_d2_picks", counting_picks)
        points = np.random.RandomState(4).standard_normal(2000)
        best_model(points, k_min, 10, seed=3)
        assert searches == [10]
        assert rngs == [((3, r),) for r in range(cluster.DEFAULT_RESTARTS)]

    @pytest.mark.parametrize("k_min", [2, 5, 10])
    def test_one_exact_table_at_or_below_the_limit(self, monkeypatch, k_min):
        from hcdetect import cluster

        tables = []
        exact_cuts = cluster._exact_cuts

        def counting_cuts(pref, pref2, lo, hi):
            tables.append((lo, hi))
            return exact_cuts(pref, pref2, lo, hi)

        monkeypatch.setattr(cluster, "_exact_cuts", counting_cuts)
        monkeypatch.setattr(cluster, "_d2_picks", None)
        points = np.random.RandomState(5).standard_normal(cluster.EXACT_SIZE_LIMIT)
        best_model(points, k_min, 10, seed=3)
        assert tables == [(k_min, 10)]


def per_k_exact_contiguous(
    pref: np.ndarray, pref2: np.ndarray, n: int, k: int
) -> tuple[np.ndarray, float]:
    """The O(k n^2) DP run for one k, a Python loop over every prefix
    length: the oracle for the one-pass table of ``_exact_cuts``."""

    def seg_cost(i: np.ndarray, j: int) -> np.ndarray:
        count = j - i
        s = pref[j] - pref[i]
        return (pref2[j] - pref2[i]) - s * s / count

    idx = np.arange(n + 1)
    best = np.full((k + 1, n + 1), np.inf)
    arg = np.zeros((k + 1, n + 1), dtype=np.int64)
    best[0, 0] = 0.0
    for c in range(1, k + 1):
        for j in range(c, n - (k - c) + 1):
            starts = idx[c - 1 : j]
            totals = best[c - 1, c - 1 : j] + seg_cost(starts, j)
            pos = int(np.argmin(totals))
            best[c, j] = totals[pos]
            arg[c, j] = starts[pos]
    cuts = np.empty(k + 1, dtype=np.int64)
    cuts[k] = n
    for c in range(k, 0, -1):
        cuts[c - 1] = arg[c, cuts[c]]
    return cuts, float(best[k, n])


def _exact_table_inputs():
    """205 seeded inputs of n = 1..512 points, mostly small to keep the
    oracle quick: normal, rounded to ties, all equal, Cauchy and
    duplicate-heavy."""
    from hcdetect.cluster import EXACT_SIZE_LIMIT

    rng = np.random.default_rng(61)
    sizes = list(range(1, 11)) + rng.integers(11, 33, 30).tolist()
    sizes.append(EXACT_SIZE_LIMIT)
    kinds = {
        "normal": lambda n: rng.standard_normal(n),
        "ties": lambda n: np.round(rng.standard_normal(n), 1),
        "all_equal": lambda n: np.full(n, 1.75),
        "cauchy": lambda n: rng.standard_cauchy(n),
        "duplicates": lambda n: rng.choice(rng.standard_normal(4), n),
    }
    return [(f"{kind}_{n}", make(n)) for n in sizes for kind, make in kinds.items()]


class TestExactTable:
    def test_matches_per_k_dp_for_every_k(self):
        from hcdetect.cluster import _exact_cuts, _sorted_setup

        inputs = _exact_table_inputs()
        assert len(inputs) >= 200
        for name, points in inputs:
            _, _, pref, pref2 = _sorted_setup(points)
            n = points.size
            k_max = min(n, 10)
            got = _exact_cuts(pref, pref2, 1, k_max)
            for k, (cuts, sse) in enumerate(got, start=1):
                want_cuts, want_sse = per_k_exact_contiguous(pref, pref2, n, k)
                assert np.array_equal(cuts, want_cuts), (name, k)
                assert sse == want_sse, (name, k)


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
        points, model = overlapping_model(300, seed=17)
        clusters = [np.sort(points[model.assignment == j]) for j in range(4)]
        assert silhouette(points, model) == searchsorted_silhouette(clusters)


def overlapping_model(m: int, seed: int) -> tuple[np.ndarray, ClusterModel]:
    """Normal points with random labels 0..3: four overlapping clusters."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal(m)
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
    return points, model


def assert_fits_match_unblocked(points: np.ndarray, seed: int, label) -> None:
    from hcdetect.cluster import _fit_range, _sorted_setup

    _, srt, pref, pref2 = _sorted_setup(points)
    for fit in _fit_range(srt, pref, pref2, 2, 10, seed):
        cuts = fit.cuts
        want = unblocked_silhouette([srt[a:b] for a, b in zip(cuts[:-1], cuts[1:])])
        assert fit.silhouette == want, (label, cuts.size - 1)


class TestBlockedSilhouette:
    """The silhouette runs each cluster's expressions block by block; the
    whole-cluster form is its bit-for-bit oracle."""

    @pytest.mark.parametrize("name", sorted(_seeding_inputs()))
    def test_fits_match_unblocked(self, name):
        assert_fits_match_unblocked(_seeding_inputs()[name], 3, name)

    def test_overlapping_clusters_match_unblocked(self):
        points, model = overlapping_model(2000, seed=19)
        clusters = [np.sort(points[model.assignment == j]) for j in range(4)]
        assert silhouette(points, model) == unblocked_silhouette(clusters)


def silhouette_and_rivals(
    clusters: list[np.ndarray], monkeypatch
) -> tuple[float, list[int]]:
    """``_silhouette_of`` on the clusters, with the number of other
    clusters that ``_rivals`` left out for each cluster it was asked about."""
    from hcdetect import cluster

    skipped = []
    rivals = cluster._rivals

    def counting(clusters, prefs, j):
        kept = rivals(clusters, prefs, j)
        skipped.append(len(clusters) - 1 - len(kept))
        return kept

    monkeypatch.setattr(cluster, "_rivals", counting)
    return cluster._silhouette_of(clusters), skipped


class TestSilhouettePruning:
    """b visits only the clusters that can hold it; the unblocked form,
    which visits every cluster, is the bit-for-bit oracle."""

    def test_spiky_ramp_skips_far_clusters(self, monkeypatch):
        rng = np.random.default_rng(61)
        bulk = np.sort(rng.random(3000) * 4.0)
        ramp = 1e3 * np.arange(1.0, 101.0) ** 2
        clusters = [bulk, *np.split(ramp, [20, 45, 70, 90])]
        got, skipped = silhouette_and_rivals(clusters, monkeypatch)
        assert got == unblocked_silhouette(clusters)
        assert max(skipped) > 0

    def test_overlapping_end_bounds_skip_nothing(self, monkeypatch):
        # Each cluster spans more than the gaps between the means, so every
        # other cluster's end values straddle the bound.
        rng = np.random.default_rng(62)
        clusters = [
            np.concatenate(([0.0], np.sort(rng.uniform(9.9, 10.0, 99)))),
            np.concatenate((np.sort(rng.uniform(10.05, 10.1, 99)), [20.0])),
            np.concatenate((np.sort(rng.uniform(10.2, 10.3, 99)), [30.0])),
        ]
        got, skipped = silhouette_and_rivals(clusters, monkeypatch)
        assert got == unblocked_silhouette(clusters)
        assert skipped == [0, 0, 0]

    def test_end_bounds_overflowing_to_inf(self, monkeypatch):
        # Forty points near +-1e200 times x near +-1e307 overflow to +-inf;
        # every cluster sum stays finite, and so does the silhouette.
        rng = np.random.default_rng(63)
        half = [
            np.sort(rng.uniform(1e200, 1.01e200, 40)),
            np.array([5e306, 6e306]),
            np.array([1e307, 1.1e307]),
        ]
        clusters = [-c[::-1] for c in half[::-1]] + half
        with np.errstate(over="ignore"):
            got, skipped = silhouette_and_rivals(clusters, monkeypatch)
            want = unblocked_silhouette(clusters)
            assert np.isinf(40 * clusters[-1]).all()
        assert got == want
        assert math.isfinite(got)
        assert max(skipped) > 0

    def test_end_bounds_with_nan(self, monkeypatch):
        # The sums of the clusters near -1e308, 1e307 and 1e308 overflow,
        # so inf - inf makes NaN end values (and a NaN silhouette).
        rng = np.random.default_rng(64)
        clusters = [
            np.sort(rng.uniform(-1.7e308, -1e308, 40)),
            np.sort(rng.uniform(-1.01e200, -1e200, 40)),
            np.sort(rng.uniform(1e200, 1.01e200, 40)),
            np.sort(rng.uniform(1e306, 1e307, 40)),
            np.sort(rng.uniform(1e308, 1.7e308, 40)),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            got, _ = silhouette_and_rivals(clusters, monkeypatch)
            want = unblocked_silhouette(clusters)
        assert math.isnan(got)
        assert got.hex() == want.hex()


class TestSilhouettePruningAtSmallBlocks(AtSmallBlocks, TestSilhouettePruning):
    pass


class TestCellLocalSeedingAtSmallBlocks(AtSmallBlocks, TestCellLocalSeeding):
    pass


class TestSilhouetteAtSmallBlocks(AtSmallBlocks, TestSilhouette):
    pass


class TestSilhouetteShortcutsAtSmallBlocks(AtSmallBlocks, TestSilhouetteShortcuts):
    pass


class TestBlockedSilhouetteAtSmallBlocks(AtSmallBlocks, TestBlockedSilhouette):
    pass


class TestDefaultBlockSeams:
    """Every other oracle input fits in one default block; these hold
    3 * _BLOCK + 11 points."""

    def test_picks_match_full_recompute(self):
        from hcdetect.cluster import _BLOCK

        srt = np.sort(_spiky_profile(3 * _BLOCK + 11, seed=43))
        assert_picks_match_full_recompute(srt, range(2), "spiky")

    def test_silhouettes_match_unblocked(self):
        from hcdetect.cluster import _BLOCK

        m = 3 * _BLOCK + 11
        assert_fits_match_unblocked(_spiky_profile(m, seed=43), 0, "spiky")
        points, model = overlapping_model(m, seed=23)
        clusters = [np.sort(points[model.assignment == j]) for j in range(4)]
        assert silhouette(points, model) == unblocked_silhouette(clusters)


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


class TestBestModelGolden:
    def test_spiky_input_pinned(self):
        # Uniform bulk plus a ramp of 100 spikes, made from uniform draws
        # and exact products only, so the input has the same bits on every
        # host. The pinned values are the fit of the unblocked silhouette
        # and the full-recompute D^2 draws.
        rng = np.random.default_rng(2024)
        points = rng.random(50_000) * 4.0
        spikes = rng.choice(points.size, 100, replace=False)
        points[spikes] = 1e3 * np.arange(1.0, 101.0) ** 2
        model = best_model(points, 2, 10, seed=0)
        assert model.k == 2
        assert [c.hex() for c in model.centroids] == [
            "0x1.2d58148d0ef3fp+10",
            "0x1.81f4b00000000p+22",
        ]
        assert model.inertia.hex() == "0x1.0886569ece91ep+48"
        assert model.silhouette.hex() == "0x1.ff923366e77fbp-1"
        assert (
            hashlib.sha256(model.assignment.tobytes()).hexdigest()
            == "03bef9bd892031db94bf47171fcc6ff9be116ad8968eafd5a23ab7a61cededfc"
        )


class TestSortedOrderGolden:
    """Both sorts resolve ties exactly as a stable sort does. The pins were
    recorded when ``hc_profile`` ranked with a three-key ``np.lexsort`` and
    ``best_model`` sorted with ``argsort(kind="stable")``."""

    def test_tie_heavy_profile_pinned(self, monkeypatch):
        from hcdetect import _purekernels, backend
        from hcdetect.core import TimeSeries, hc_profile, standardize

        skip_off_golden_platform()
        monkeypatch.setattr(backend, "two_sided_p", _purekernels.two_sided_p)
        # Rounded normals tie in p; the spikes at 40, 45 and 50 pin p at
        # the floor, where |z| breaks the ties; each value comes with its
        # negation, so the mean is exactly 0 and every |z| is tied.
        rng = np.random.default_rng(2027)
        v = np.round(rng.standard_normal(10_000), 1)
        v[::97] = 40.0 + 5.0 * (np.arange(v[::97].size) % 3)
        std = standardize(TimeSeries(rng.permutation(np.concatenate([v, -v]))))
        assert std.source_mean == 0.0
        prof = hc_profile(std)
        assert (
            hashlib.sha256(prof.original_indices.tobytes()).hexdigest()
            == "8a298c8131c2d483a6a6fe0e6612be66b1f5cf3a6c277a4a571eeacba7e77108"
        )
        assert (
            hashlib.sha256(prof.hc_values.tobytes()).hexdigest()
            == "eb5efe81afa1e847d03d80d435fce64151be2dc4fb7c15752fd9ac1605c2378c"
        )

    def test_signed_zeros_and_tied_runs_pinned(self):
        # 300 each of 0.0 and -0.0, then runs of tied values; k = 4 puts
        # the zeros in a cluster of their own.
        rng = np.random.default_rng(2028)
        zeros = np.where(np.arange(600) % 2, -0.0, 0.0)
        runs = np.repeat([3.0, 3.5, 9.0], 300)
        bulk = np.round(rng.normal(20.0, 1.5, 2000), 1)
        points = rng.permutation(np.concatenate([zeros, runs, bulk]))
        model = best_model(points, 2, 10, seed=0)
        assert model.k == 4
        assert [c.hex() for c in model.centroids] == [
            "0x0.0p+0",
            "0x1.a000000000000p+1",
            "0x1.2000000000000p+3",
            "0x1.3f3a5e353f7d4p+4",
        ]
        assert model.inertia.hex() == "0x1.19b4b3b644600p+12"
        assert model.silhouette.hex() == "0x1.cac49926acc82p-1"
        assert (
            hashlib.sha256(model.assignment.tobytes()).hexdigest()
            == "5451324935c974161701bc408edaba6da69e5ed5ac16c83f488ae7ffa888b039"
        )


class TestBestModelMemory:
    def test_live_peak_below_eight_times_the_input(self):
        points = _spiky_profile(1 << 18, seed=47)
        tracemalloc.start()
        try:
            best_model(points, 2, 10, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * points.nbytes, peak / points.nbytes
