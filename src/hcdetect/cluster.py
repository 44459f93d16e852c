"""One-dimensional k-means, exact silhouette scoring, and the per-cluster
detection thresholds (cluster mean plus a quarter of the cluster range).

Optimal 1-D clusters are contiguous in sorted order. Small inputs (up to
``EXACT_SIZE_LIMIT`` points) are therefore solved exactly by dynamic
programming over contiguous partitions, which guarantees the global
optimum that restarted local search cannot; larger inputs use Lloyd's
algorithm with D^2-weighted seeded initialization and a fixed number of
independent restarts, implemented on the sorted values so each iteration
is a handful of O(k log m) boundary updates.
One search serves every k up to ``k_max``. The DP's row for c clusters
(the best cost of every prefix) does not depend on k, so one table of
rows 1..k_max gives each k's cuts (Wang & Song, "Ckmeans.1d.dp", R
Journal 2011). D^2 seeding (Arthur & Vassilvitskii, SODA 2007) draws
centres one at a time, so the first k of a restart's k_max picks are its
seeding for k. On sorted values a new centre can lower the squared
distances only between its nearest earlier centres, so each draw
refreshes that slice alone and extends the running cumsum of the
distances only as far as its target; the picks are the bits of a full
recompute.
Contiguity also makes the silhouette score exactly computable with prefix
sums instead of the quadratic pairwise form: O(m k) when the clusters
occupy disjoint ranges, as they do unless a cut splits tied values, and
O(m k log m) otherwise. b is the mean distance to the nearest other
cluster (Rousseeuw, J. Comput. Appl. Math. 1987), and to a disjoint
cluster that distance is monotone in x, so its values at a cluster's two
ends bound it over the whole cluster. A disjoint cluster whose smaller end
value exceeds the least larger end value can never be nearest and is not
visited; on a spiky recording that leaves the bulk cluster, nearly every
point, one other cluster to visit instead of k - 1. The silhouette runs on
blocks of ``_BLOCK`` points, so its temporaries stay cache-sized.
``best_model`` sets up once (finiteness check, sort, prefix sums) and fits
every k from that search; ``kmeans_1d`` is the search with k_max = k. The
sort is ``core._exact_order``: numpy's unstable SIMD argsort with its
ties put back in index order, the order of a stable sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import _exact_order, _require_finite
from .errors import (
    DomainError,
    TooFewPointsError,
    UndefinedSilhouetteError,
)

DEFAULT_RESTARTS = 10
MAX_ITER = 300
EXACT_SIZE_LIMIT = 512
_BLOCK = 1 << 14


@dataclass(frozen=True)
class ClusterModel:
    """Converged 1-D k-means partition.

    ``assignment[i]`` is the cluster id of ``points[i]`` in the caller's
    original order; ids are sorted by ascending centroid. ``silhouette`` is
    None for k = 1, where the score is undefined.
    """

    k: int
    centroids: np.ndarray
    assignment: np.ndarray
    inertia: float
    silhouette: float | None
    seed: int


@dataclass(frozen=True)
class ThresholdSet:
    """Per-cluster thresholds, ascending, with the (min, max, mean) ranges
    of the clusters they came from (aligned index-wise)."""

    thresholds: tuple[float, ...]
    cluster_ranges: tuple[tuple[float, float, float], ...]


class _Fit(NamedTuple):
    """A fit on sorted values: cluster j holds srt[cuts[j]:cuts[j+1]]."""

    cuts: np.ndarray
    centroids: np.ndarray
    inertia: float
    silhouette: float | None


def _check_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64).reshape(-1)
    _require_finite(arr)
    return arr


def _d2_picks(srt: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Row r: k D^2-weighted picks (k-means++) from the sorted values, in
    draw order, by ``default_rng((seed, r))``, for each of the
    ``DEFAULT_RESTARTS`` restarts.

    Each pick after the first is drawn from the squared distances to the
    earlier ones, so a row's first k' picks, sorted, are that restart's
    seeding for k' clusters. The draws return the bits of a full
    recompute (np.square is what ``** 2`` computes) with less work:

    - A new pick c can lower d2 only strictly between the nearest earlier
      picks below and above it: past an earlier pick c', x - c rounds no
      nearer to zero than x - c' (rounding is monotone), so its square is
      no smaller. Only that slice is refreshed.
    - ``cs[:valid]`` is the sequential cumsum of d2, kept across draws. A
      refresh lowers ``valid`` to the first index it lowered, and a draw
      extends ``cs`` block by block only until it passes the target.
    """
    m = srt.size
    d2, cs, sq = np.empty((3, m))
    picks = np.empty((DEFAULT_RESTARTS, k))
    for r, row in enumerate(picks):
        rng = np.random.default_rng((seed, r))
        row[0] = srt[rng.integers(m)]
        np.subtract(srt, row[0], out=d2)
        np.square(d2, out=d2)
        valid = 0
        for j in range(1, k):
            total = d2.sum()
            if total > 0.0:
                target = rng.random() * total
                # `not >=`: a NaN target (0 * inf) extends to the end, where
                # searchsorted puts it, as on the full cumsum
                while valid < m and (valid == 0 or not cs[valid - 1] >= target):
                    valid = _extend_cumsum(d2, cs, valid)
                pos = min(int(np.searchsorted(cs[:valid], target)), m - 1)
            else:
                pos = int(rng.integers(m))
            c = row[j] = srt[pos]
            if j + 1 < k:
                below = [p for p in row[:j] if p <= c]
                above = [p for p in row[:j] if p >= c]
                lo = int(np.searchsorted(srt, max(below), "right")) if below else 0
                hi = int(np.searchsorted(srt, min(above), "left")) if above else m
                if lo >= hi:
                    continue
                seg, new = d2[lo:hi], sq[: hi - lo]
                np.subtract(srt[lo:hi], c, out=new)
                np.square(new, out=new)
                lowered = np.less(new, seg)
                first = int(lowered.argmax())
                if lowered[first]:
                    np.minimum(seg, new, out=seg)
                    valid = min(valid, lo + first)
    return picks


def _extend_cumsum(d2: np.ndarray, cs: np.ndarray, valid: int) -> int:
    """Extend the cumsum ``cs[:valid]`` of d2 by one ``_BLOCK`` and return
    the new length. The block's accumulate starts from ``cs[valid - 1]``,
    parked in ``d2[valid - 1]`` meanwhile, so every sum is the one the
    full sequential cumsum makes."""
    end = min(valid + _BLOCK, d2.size)
    if valid == 0:
        np.cumsum(d2[:end], out=cs[:end])
        return end
    kept = d2[valid - 1]
    d2[valid - 1] = cs[valid - 1]
    np.cumsum(d2[valid - 1 : end], out=cs[valid - 1 : end])
    d2[valid - 1] = kept
    return end


def _lloyd(
    srt: np.ndarray,
    pref: np.ndarray,
    pref2: np.ndarray,
    cent: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Iterate boundary-based Lloyd updates on sorted values.

    Returns (cuts, centroids, inertia); cluster j holds srt[cuts[j]:cuts[j+1]].
    A point equidistant to two centroids joins the lower one.
    """
    m = srt.size
    prev_cuts = None
    repairs = 0
    for _ in range(MAX_ITER):
        bounds = 0.5 * (cent[1:] + cent[:-1])
        inner = np.searchsorted(srt, bounds, side="right")
        cuts = np.concatenate(([0], inner, [m]))
        counts = np.diff(cuts)
        if (counts == 0).any():
            repairs += 1
            if repairs > k + 2:
                # Duplicate-heavy input that boundaries cannot separate;
                # force an even contiguous split to keep clusters non-empty.
                cuts = np.array([round(j * m / k) for j in range(k + 1)])
                break
            # Empty-cluster repair: hand the empty cluster the point
            # farthest from its current centroid.
            assign = np.repeat(np.arange(k), counts)
            dist = np.abs(srt - cent[assign])
            for e in np.nonzero(counts == 0)[0]:
                far = int(np.argmax(dist))
                cent[e] = srt[far]
                dist[far] = -1.0
            cent = np.sort(cent)
            prev_cuts = None
            continue
        sums = pref[cuts[1:]] - pref[cuts[:-1]]
        new_cent = sums / counts
        if prev_cuts is not None and np.array_equal(cuts, prev_cuts):
            break
        prev_cuts = cuts
        cent = new_cent
    counts = np.diff(cuts)
    sums = pref[cuts[1:]] - pref[cuts[:-1]]
    sq = pref2[cuts[1:]] - pref2[cuts[:-1]]
    cent = sums / counts
    inertia = float(np.sum(sq - sums * sums / counts))
    return cuts, cent, inertia


def _exact_cuts(
    pref: np.ndarray, pref2: np.ndarray, k_min: int, k_max: int
) -> list[tuple[np.ndarray, float]]:
    """Globally optimal contiguous partitions for every k in [k_min, k_max]
    by dynamic programming over segment sums of squared error, O(k_max n^2).
    Returns (cuts, sse) per k.

    Row c of the table holds the best c-cluster cost of every prefix and
    does not depend on k, so one pass of rows 1..k_max serves every k. Ties
    go to the smallest split point.
    """
    n = pref.size - 1
    idx = np.arange(n + 1)
    count = idx - idx[:, None]  # [i, j] = j - i, points in segment i..j
    s = pref - pref[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = (pref2 - pref2[:, None]) - s * s / count
    cost[count <= 0] = np.inf
    best = np.full(n + 1, np.inf)
    best[0] = 0.0
    rows, args = [best], []
    for _ in range(k_max):
        totals = rows[-1][:, None] + cost
        arg = np.argmin(totals, axis=0)
        rows.append(totals[arg, idx])
        args.append(arg)
    out = []
    for k in range(k_min, k_max + 1):
        cuts = np.empty(k + 1, dtype=np.int64)
        cuts[k] = n
        for c in range(k, 0, -1):
            cuts[c - 1] = args[c - 1][cuts[c]]
        out.append((cuts, float(rows[k][n])))
    return out


def _mean_distance(
    x: np.ndarray, other: np.ndarray, so: np.ndarray, side: int
) -> np.ndarray:
    """Mean distance from each x to the sorted cluster ``other``, with
    prefix sums ``so``, that lies on ``side`` of every x: -1 wholly below,
    1 wholly above, 0 either. On one side the general form reduces exactly,
    up to the sign of a zero, to one term, monotone in x."""
    no = other.size
    if side < 0:
        d = no * x - so[no]
    elif side > 0:
        d = so[no] - no * x
    else:
        q = np.searchsorted(other, x)
        d = (q * x - so[q]) + ((so[no] - so[q]) - (no - q) * x)
    d /= no
    return d


def _rivals(
    clusters: list[np.ndarray], prefs: list[np.ndarray], j: int
) -> list[tuple[int, int]]:
    """The other clusters that can hold b(x) for some x in cluster j, each
    with its side of cluster j (see ``_mean_distance``).

    Disjoint ranges (every fit that cuts no run of tied values) put a
    cluster wholly on one side, so its mean distance over cluster j lies
    between the values at cl[0] and cl[-1]. The least of the larger end
    values bounds b from above everywhere in cluster j; a disjoint cluster
    whose smaller end value exceeds that bound never sets b and is left
    out. Overlapping clusters are always kept, and a NaN end value fails
    every comparison, so it leaves nothing out.
    """
    cl = clusters[j]
    ends = np.array([cl[0], cl[-1]])
    rivals, values = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for h, other in enumerate(clusters):
            if h == j:
                continue
            side = -1 if other[-1] < cl[0] else 1 if other[0] >= cl[-1] else 0
            rivals.append((h, side))
            if side:
                values.append(_mean_distance(ends, other, prefs[h], side))
            else:
                values.append((-np.inf, np.inf))
    values = np.array(values)
    bound = values.max(axis=1).min()
    return [r for r, low in zip(rivals, values.min(axis=1)) if not low > bound]


def _silhouette_of(clusters: list[np.ndarray]) -> float:
    """Mean silhouette of a partition given as sorted, non-empty clusters.

    a(i) is the mean intra-cluster distance excluding the point itself,
    b(i) the smallest mean distance to another cluster; singletons
    contribute 0. Exact, via per-cluster prefix sums; b visits only the
    ``_rivals`` that can hold it, and the side each is on is read from the
    ends of the whole cluster, so every block takes the same branch.
    """
    prefs = [np.concatenate(([0.0], np.cumsum(c))) for c in clusters]
    total = 0.0
    for j, cl in enumerate(clusters):
        n = cl.size
        if n == 1:
            continue
        s = prefs[j]
        rivals = _rivals(clusters, prefs, j)
        # On a spiky recording one cluster holds nearly every point, and
        # its silhouette sets the peak memory of detect: the expressions
        # run on blocks of _BLOCK points, and one .sum() over all n scores
        # keeps numpy's pairwise order.
        scores = np.zeros(n)
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            x = cl[lo:hi]
            sx = s[lo + 1 : hi + 1]
            # Float ranks give the same products as integer ones (exact
            # below 2**53).
            r = np.arange(lo + 1.0, hi + 1.0)
            a = (r * x - sx) + ((s[n] - sx) - (n - r) * x)
            a /= n - 1
            b = np.full(hi - lo, np.inf)
            for h, side in rivals:
                np.minimum(b, _mean_distance(x, clusters[h], prefs[h], side), out=b)
            denom = np.maximum(a, b)
            b -= a  # the score numerator, in place
            np.divide(b, denom, out=scores[lo:hi], where=denom > 0.0)
        total += float(scores.sum())
    return total / sum(c.size for c in clusters)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")


def _check_labels(arr: np.ndarray, model: ClusterModel) -> None:
    """Reject a model that does not label every point with an id in [0, k)."""
    if arr.size != model.assignment.size:
        raise TooFewPointsError("model does not cover the given points")
    labels = np.asarray(model.assignment)
    if labels.size and (labels.min() < 0 or labels.max() >= model.k):
        raise DomainError(f"cluster labels must lie in [0, {model.k})")


def _sorted_setup(
    arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort order, sorted values and their prefix sums (of x, x^2)."""
    order, srt = _exact_order(arr)
    pref = np.concatenate(([0.0], np.cumsum(srt)))
    pref2 = np.concatenate(([0.0], np.cumsum(srt * srt)))
    return order, srt, pref, pref2


def _fit_range(
    srt: np.ndarray,
    pref: np.ndarray,
    pref2: np.ndarray,
    k_min: int,
    k_max: int,
    seed: int,
) -> list[_Fit]:
    """Fit every k in [k_min, k_max] on sorted values with their prefix
    sums, from one search: the exact DP table up to ``EXACT_SIZE_LIMIT``
    points, above it one D^2 pick sequence per restart, each k keeping the
    best of its ``DEFAULT_RESTARTS`` Lloyd runs. Then each silhouette
    (None for k = 1)."""
    if srt.size <= EXACT_SIZE_LIMIT:
        fits = [
            (cuts, (pref[cuts[1:]] - pref[cuts[:-1]]) / np.diff(cuts), inertia)
            for cuts, inertia in _exact_cuts(pref, pref2, k_min, k_max)
        ]
    else:
        best: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        for picks in _d2_picks(srt, k_max, seed):
            for k in range(k_min, k_max + 1):
                fit = _lloyd(srt, pref, pref2, np.sort(picks[:k]), k)
                if k not in best or fit[2] < best[k][2]:
                    best[k] = fit
        fits = list(best.values())
    return [
        _Fit(
            cuts,
            cent,
            max(inertia, 0.0),  # guard tiny negative cancellation residue
            _silhouette_of([srt[a:b] for a, b in zip(cuts[:-1], cuts[1:])])
            if cent.size >= 2
            else None,
        )
        for cuts, cent, inertia in fits
    ]


def _model(order: np.ndarray, fit: _Fit, seed: int) -> ClusterModel:
    """The ClusterModel of a fit, its labels scattered back through the
    sort ``order`` to caller order."""
    k = fit.centroids.size
    assignment = np.empty(order.size, dtype=np.int64)
    assignment[order] = np.repeat(np.arange(k), np.diff(fit.cuts))
    cent = fit.centroids.copy()
    cent.setflags(write=False)
    assignment.setflags(write=False)
    return ClusterModel(
        k=k,
        centroids=cent,
        assignment=assignment,
        inertia=fit.inertia,
        silhouette=fit.silhouette,
        seed=seed,
    )


def kmeans_1d(points, k: int, seed: int = 0) -> ClusterModel:
    """Deterministic 1-D k-means: exact for small inputs, best-of-restarts
    Lloyd above ``EXACT_SIZE_LIMIT`` points.

    Restart r draws its own generator from (seed, r), so the result is
    independent of execution order; the exact path ignores the seed. The
    seed must be non-negative.
    """
    arr = _check_points(points)
    m = arr.size
    if k < 1:
        raise TooFewPointsError("k must be at least 1")
    if m < k:
        raise TooFewPointsError(f"{m} points cannot form {k} clusters")
    _check_seed(seed)
    order, srt, pref, pref2 = _sorted_setup(arr)
    (fit,) = _fit_range(srt, pref, pref2, k, k, seed)
    return _model(order, fit, seed)


def silhouette(points, model: ClusterModel) -> float:
    """Mean silhouette score of a fitted partition (see ``_silhouette_of``)."""
    if model.k < 2:
        raise UndefinedSilhouetteError("silhouette requires at least 2 clusters")
    arr = _check_points(points)
    _check_labels(arr, model)
    clusters = [np.sort(arr[model.assignment == j]) for j in range(model.k)]
    if any(c.size == 0 for c in clusters):
        raise TooFewPointsError("model has an empty cluster")
    return _silhouette_of(clusters)


def best_model(
    points, k_min: int = 2, k_max: int = 10, seed: int = 0
) -> ClusterModel:
    """Fit k in [k_min, k_max] and keep the silhouette maximizer.

    Ties go to the smallest k. Every k comes from one search (see
    ``_fit_range``) and equals ``kmeans_1d(points, k, seed)``.
    """
    arr = _check_points(points)
    if not 2 <= k_min <= k_max:
        raise TooFewPointsError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
    if k_max > arr.size:
        raise TooFewPointsError(
            f"k_max={k_max} exceeds the number of points ({arr.size})"
        )
    _check_seed(seed)
    # Every fit depends on the points only through their stable sort and
    # its prefix sums, so set those up once; scatter only the winner's
    # labels back to caller order.
    order, srt, pref, pref2 = _sorted_setup(arr)
    fits = _fit_range(srt, pref, pref2, k_min, k_max, seed)
    return _model(order, max(fits, key=lambda f: f.silhouette), seed)


def select_k(points, k_min: int = 2, k_max: int = 10, seed: int = 0) -> int:
    """Silhouette-suggested number of clusters."""
    return best_model(points, k_min, k_max, seed).k


def thresholds_from(
    model: ClusterModel, points, factor: float = 0.25
) -> ThresholdSet:
    """One threshold per cluster: mean + factor * (max - min), ascending.

    ``factor`` defaults to the quarter-range rule; it is a knob because
    sensitivity studies need one. A threshold that overflows to infinity
    raises ``DomainError`` naming its cluster.
    """
    arr = _check_points(points)
    _check_labels(arr, model)
    rows = []
    for j in range(model.k):
        members = arr[model.assignment == j]
        if members.size == 0:
            raise TooFewPointsError(f"cluster {j} is empty")
        lo = float(members.min())
        hi = float(members.max())
        mean = float(members.mean())
        threshold = mean + factor * (hi - lo)
        if not math.isfinite(threshold):
            raise DomainError(f"threshold of cluster {j} is not finite ({threshold})")
        rows.append((threshold, (lo, hi, mean)))
    rows.sort(key=lambda t: t[0])
    return ThresholdSet(
        thresholds=tuple(t for t, _ in rows),
        cluster_ranges=tuple(r for _, r in rows),
    )
