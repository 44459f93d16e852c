"""One-dimensional k-means, exact silhouette scoring, and the per-cluster
detection thresholds (cluster mean plus a quarter of the cluster range).

Optimal 1-D clusters are contiguous in sorted order. Small inputs (up to
``EXACT_SIZE_LIMIT`` points) are therefore solved exactly by dynamic
programming over contiguous partitions, which guarantees the global
optimum that restarted local search cannot; larger inputs use Lloyd's
algorithm with D^2-weighted seeded initialization and a fixed number of
independent restarts, implemented on the sorted values so each iteration
is a handful of O(k log m) boundary updates. Seeding refreshes the D^2
weights only inside each new centre's cell of the sorted values.
Contiguity also makes the silhouette score exactly computable with prefix
sums instead of the quadratic pairwise form: O(m k) when the clusters
occupy disjoint ranges, as they do unless a cut splits tied values, and
O(m k log m) otherwise.
``best_model`` sets up once (finiteness check, stable sort, prefix sums)
and fits every k on the sorted values, the same fit ``kmeans_1d`` runs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NonFiniteError,
    TooFewPointsError,
    UndefinedSilhouetteError,
)

DEFAULT_RESTARTS = 10
MAX_ITER = 300
EXACT_SIZE_LIMIT = 512

# Widening of a seeding cell beyond the rounded midpoints to its neighbours
# (relative, plus an absolute floor for subnormal values); see
# ``_init_centroids``.
_CELL_MARGIN = 2.0**-40
_CELL_FLOOR = 1e-300


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
    if not np.isfinite(arr).all():
        idx = int(np.argmax(~np.isfinite(arr)))
        raise NonFiniteError(f"non-finite point at index {idx}", index=idx)
    return arr


def _cell_edge(srt: np.ndarray, a: float, b: float, side: str) -> int:
    """Index in ``srt`` of the midpoint of centres a <= b, moved outward
    (down for side="left", up for side="right") past its rounding error."""
    mid = 0.5 * a + 0.5 * b
    pad = _CELL_MARGIN * (abs(a) + abs(b)) + _CELL_FLOOR
    edge = mid - pad if side == "left" else mid + pad
    return int(np.searchsorted(srt, edge, side=side))


def _init_centroids(
    srt: np.ndarray,
    k: int,
    rng: np.random.Generator,
    work: np.ndarray | None = None,
) -> np.ndarray:
    # ``work`` is a (3, m) array this overwrites; callers that seed one
    # input many times pass the same one, so no seeding allocates (and
    # page-faults in) full-length arrays of its own. np.square is what
    # ``** 2`` computes, bit for bit.
    #
    # D^2-weighted sampling (k-means++ style) on the sorted values. A new
    # centre lowers d2 only inside its cell, the slice of srt between the
    # midpoints to its chosen neighbours, so only that slice of d2 and the
    # running cumsum from its start are refreshed. The slice is widened
    # past rounding: np.minimum over any superset of the cell gives the
    # same d2, and seeding the refill with the unchanged running sum
    # before the slice repeats the sequential cumsum bit for bit. The
    # total stays a full pairwise sum.
    m = srt.size
    d2, cs, sq = np.empty((3, m)) if work is None else work
    cent = np.empty(k)
    cent[0] = srt[rng.integers(m)]
    chosen = [float(cent[0])]
    np.subtract(srt, cent[0], out=d2)
    np.square(d2, out=d2)
    np.cumsum(d2, out=cs)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            target = rng.random() * total
            pos = int(np.searchsorted(cs, target))
            pos = min(pos, m - 1)
        else:
            pos = int(rng.integers(m))
        c = float(srt[pos])
        cent[j] = c
        at = bisect.bisect_left(chosen, c)
        lo = _cell_edge(srt, chosen[at - 1], c, "left") if at > 0 else 0
        hi = _cell_edge(srt, c, chosen[at], "right") if at < len(chosen) else m
        chosen.insert(at, c)
        cell, sq_cell = d2[lo:hi], sq[lo:hi]
        np.subtract(srt[lo:hi], c, out=sq_cell)
        np.square(sq_cell, out=sq_cell)
        np.minimum(cell, sq_cell, out=cell)
        if lo == 0:
            np.cumsum(d2, out=cs)
        else:
            keep = d2[lo - 1]
            d2[lo - 1] = cs[lo - 1]
            np.cumsum(d2[lo - 1 :], out=cs[lo - 1 :])
            d2[lo - 1] = keep
    return np.sort(cent)


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


def _exact_contiguous(
    pref: np.ndarray, pref2: np.ndarray, n: int, k: int
) -> tuple[np.ndarray, float]:
    """Globally optimal contiguous partition by O(k n^2) dynamic
    programming over segment sums of squared error. Returns (cuts, sse)."""

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


def _silhouette_of(clusters: list[np.ndarray]) -> float:
    """Mean silhouette of a partition given as sorted, non-empty clusters.

    a(i) is the mean intra-cluster distance excluding the point itself,
    b(i) the smallest mean distance to another cluster; singletons
    contribute 0. Exact, via per-cluster prefix sums.
    """
    prefs = [np.concatenate(([0.0], np.cumsum(c))) for c in clusters]
    total = 0.0
    for j, cl in enumerate(clusters):
        n = cl.size
        if n == 1:
            continue
        # Float ranks give the same products as integer ones (exact below
        # 2**53). In-place steps keep the temporaries few: on a spiky
        # recording one cluster holds nearly every point, and its
        # silhouette sets the peak memory of detect.
        r = np.arange(1.0, n + 1.0)
        s = prefs[j]
        a = (r * cl - s[1:]) + ((s[n] - s[1:]) - (n - r) * cl)
        a /= n - 1
        del r
        b = np.full(n, np.inf)
        for h, other in enumerate(clusters):
            if h == j:
                continue
            so = prefs[h]
            no = other.size
            # Disjoint ranges (every fit that cuts no run of tied values)
            # put all of `other` on one side of `cl`: the general form
            # below then reduces exactly, up to the sign of a zero, to one
            # term.
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
        b -= a  # the score numerator, in place
        scores = np.divide(b, denom, out=np.zeros(n), where=denom > 0.0)
        total += float(scores.sum())
    return total / sum(c.size for c in clusters)


def _sorted_setup(
    arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort order, sorted values and their prefix sums (of x, x^2)."""
    order = np.argsort(arr, kind="stable")
    srt = arr[order]
    pref = np.concatenate(([0.0], np.cumsum(srt)))
    pref2 = np.concatenate(([0.0], np.cumsum(srt * srt)))
    return order, srt, pref, pref2


def _fit_sorted(
    srt: np.ndarray,
    pref: np.ndarray,
    pref2: np.ndarray,
    k: int,
    seed: int,
    restarts: int,
) -> _Fit:
    """Fit k clusters on sorted values with their prefix sums: exact DP up
    to ``EXACT_SIZE_LIMIT`` points, best-of-restarts Lloyd above, then the
    silhouette (None for k = 1)."""
    m = srt.size
    if m <= EXACT_SIZE_LIMIT:
        cuts, inertia = _exact_contiguous(pref, pref2, m, k)
        cent = (pref[cuts[1:]] - pref[cuts[:-1]]) / np.diff(cuts)
    else:
        best: tuple[float, np.ndarray, np.ndarray] | None = None
        work = np.empty((3, m))
        for r in range(restarts):
            rng = np.random.default_rng((seed, r))
            cent0 = _init_centroids(srt, k, rng, work)
            cuts, cent, inertia = _lloyd(srt, pref, pref2, cent0.copy(), k)
            if best is None or inertia < best[0]:
                best = (inertia, cuts, cent)
        del work  # the silhouette below sets the peak memory of detect
        inertia, cuts, cent = best

    inertia = max(inertia, 0.0)  # guard tiny negative cancellation residue
    sil = (
        _silhouette_of([srt[cuts[j] : cuts[j + 1]] for j in range(k)])
        if k >= 2
        else None
    )
    return _Fit(cuts, cent, inertia, sil)


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


def kmeans_1d(
    points,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> ClusterModel:
    """Deterministic 1-D k-means: exact for small inputs, best-of-restarts
    Lloyd above ``EXACT_SIZE_LIMIT`` points.

    Restart r draws its own generator from (seed, r), so the result is
    independent of execution order; the exact path ignores the seed.
    """
    arr = _check_points(points)
    m = arr.size
    if k < 1:
        raise TooFewPointsError("k must be at least 1")
    if m < k:
        raise TooFewPointsError(f"{m} points cannot form {k} clusters")
    order, srt, pref, pref2 = _sorted_setup(arr)
    return _model(order, _fit_sorted(srt, pref, pref2, k, seed, restarts), seed)


def silhouette(points, model: ClusterModel) -> float:
    """Mean silhouette score of a fitted partition (see ``_silhouette_of``)."""
    if model.k < 2:
        raise UndefinedSilhouetteError("silhouette requires at least 2 clusters")
    arr = _check_points(points)
    if arr.size != model.assignment.size:
        raise TooFewPointsError("model does not cover the given points")
    clusters = [np.sort(arr[model.assignment == j]) for j in range(model.k)]
    if any(c.size == 0 for c in clusters):
        raise TooFewPointsError("model has an empty cluster")
    return _silhouette_of(clusters)


def best_model(
    points,
    k_min: int = 2,
    k_max: int = 10,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> ClusterModel:
    """Fit k in [k_min, k_max] and keep the silhouette maximizer.

    Ties go to the smallest k (strictly-greater replacement).
    """
    arr = _check_points(points)
    if not 2 <= k_min <= k_max:
        raise TooFewPointsError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
    if k_max > arr.size:
        raise TooFewPointsError(
            f"k_max={k_max} exceeds the number of points ({arr.size})"
        )
    # Every fit depends on the points only through their stable sort and
    # its prefix sums, so set those up once; scatter only the winner's
    # labels back to caller order.
    order, srt, pref, pref2 = _sorted_setup(arr)
    chosen: _Fit | None = None
    for k in range(k_min, k_max + 1):
        fit = _fit_sorted(srt, pref, pref2, k, seed, restarts)
        if chosen is None or fit.silhouette > chosen.silhouette:
            chosen = fit
    return _model(order, chosen, seed)


def select_k(points, k_min: int = 2, k_max: int = 10, seed: int = 0) -> int:
    """Silhouette-suggested number of clusters."""
    return best_model(points, k_min, k_max, seed).k


def thresholds_from(
    model: ClusterModel, points, factor: float = 0.25
) -> ThresholdSet:
    """One threshold per cluster: mean + factor * (max - min), ascending.

    ``factor`` defaults to the quarter-range rule; it is a knob because
    sensitivity studies need one.
    """
    arr = _check_points(points)
    if arr.size != model.assignment.size:
        raise TooFewPointsError("model does not cover the given points")
    rows = []
    for j in range(model.k):
        members = arr[model.assignment == j]
        if members.size == 0:
            raise TooFewPointsError(f"cluster {j} is empty")
        lo = float(members.min())
        hi = float(members.max())
        mean = float(members.mean())
        rows.append((mean + factor * (hi - lo), (lo, hi, mean)))
    rows.sort(key=lambda t: t[0])
    return ThresholdSet(
        thresholds=tuple(t for t, _ in rows),
        cluster_ranges=tuple(r for _, r in rows),
    )
