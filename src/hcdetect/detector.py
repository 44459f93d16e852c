"""End-to-end detection pipeline: series -> HC profile -> clustered
thresholds -> localized, merged, sorted signal segments.

For each threshold the triggering p-value ranks map back to time indices
through the profile's permutation, every trigger keeps its +-window
neighborhood, and touching or overlapping neighborhoods merge into one
segment (all trigger positions are retained in the segment so nearby
deflections keep distinct peaks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cluster import ClusterModel, best_model, thresholds_from
from .core import (
    HCProfile,
    KurtosisReport,
    TimeSeries,
    _adopt,
    _kurtosis_of,
    hc_profile,
    kurtosis,  # noqa: F401  (perfbench/spans.py wraps it under this name)
    standardize,
)
from .errors import DomainError, IndexOutOfRangeError, NoClustersError


@dataclass(frozen=True)
class DetectionConfig:
    window: int = 50
    k_min: int = 2
    k_max: int = 10
    eq1_factor: float = 0.25
    restricted_rank_range: bool = False
    seed: int = 0
    min_threshold: float | None = None

    def __post_init__(self):
        if self.window < 0:
            raise DomainError("window must be non-negative")
        if not 2 <= self.k_min <= self.k_max:
            raise DomainError(
                f"need 2 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]"
            )
        if not np.isfinite(self.eq1_factor):
            raise DomainError("eq1_factor must be finite")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        if self.min_threshold is not None and not np.isfinite(self.min_threshold):
            raise DomainError("min_threshold must be finite")


@dataclass(frozen=True)
class Segment:
    """A detected stretch of samples: [start, end] inclusive.

    ``triggers`` are the time indices whose HC exceeded the threshold;
    ``peak_index`` is the trigger with the largest HC (ties: smallest
    index).
    """

    start: int
    end: int
    peak_index: int
    peak_hc: float
    triggers: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not 0 <= self.start <= self.peak_index <= self.end:
            raise IndexOutOfRangeError(
                f"segment ordering violated: {self.start} <= {self.peak_index}"
                f" <= {self.end}"
            )

    def __contains__(self, index: int) -> bool:
        return self.start <= index <= self.end


@dataclass(frozen=True)
class ClusterSummary:
    k: int
    centroids: tuple[float, ...]
    silhouette: float | None
    inertia: float
    seed: int

    @classmethod
    def of(cls, model: ClusterModel) -> "ClusterSummary":
        return cls(
            k=model.k,
            centroids=tuple(float(c) for c in model.centroids),
            silhouette=model.silhouette,
            inertia=model.inertia,
            seed=model.seed,
        )


@dataclass(frozen=True)
class DetectionReport:
    m: int
    hc_max: float
    asymptotic_threshold: float
    hc_ratio: float
    kurtosis: KurtosisReport
    reject_normality: bool
    per_threshold: tuple[tuple[float, tuple[Segment, ...]], ...]
    cluster_summary: ClusterSummary


def localize(
    trigger_indices,
    window: int,
    m: int,
    scores: Mapping[int, float] | np.ndarray | None = None,
) -> list[Segment]:
    """Expand each trigger to [i - window, i + window] clipped to the
    series, merging touching or overlapping intervals, sorted by start.

    Two neighbouring triggers share a segment when their gap is at most
    2 * window + 1; clipping at 0 and m - 1 never changes that. ``scores``
    (HC by time index, a mapping or an array indexed by time) picks each
    segment's peak, its first maximum; a NaN first score makes the first
    trigger the peak, and other NaN scores never win. Without scores the
    first trigger is the peak and its value is NaN.
    """
    if window < 0:
        raise DomainError("window must be non-negative")
    idx = np.asarray(sorted(set(int(i) for i in trigger_indices)), dtype=np.int64)
    if idx.size == 0:
        return []
    if idx[0] < 0 or idx[-1] >= m:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise IndexOutOfRangeError(f"trigger index {bad} outside [0, {m})")
    trig = idx.tolist()
    if scores is None:
        vals = np.full(idx.size, np.nan)
    elif isinstance(scores, Mapping):
        vals = np.array([scores[t] for t in trig], dtype=np.float64)
    else:
        vals = np.asarray(scores, dtype=np.float64)[idx]
    nan = np.isnan(vals)
    ranked = np.where(nan, -np.inf, vals).tolist()

    bounds = (np.flatnonzero(np.diff(idx) > 2 * window + 1) + 1).tolist()
    segments: list[Segment] = []
    for a, b in zip([0, *bounds], [*bounds, len(trig)]):
        group = ranked[a:b]
        peak = a if nan[a] else a + group.index(max(group))
        segments.append(Segment(
            start=max(0, trig[a] - window),
            end=min(m - 1, trig[b - 1] + window),
            peak_index=trig[peak],
            peak_hc=float(vals[peak]),
            triggers=tuple(trig[a:b]),
        ))
    return segments


def mask(series: TimeSeries, segments: Sequence[Segment]) -> TimeSeries:
    """Copy samples inside the segments, flatten everything else to 0."""
    m = len(series)
    out = np.zeros(m, dtype=np.float64)
    for seg in segments:
        if seg.start < 0 or seg.end >= m:
            raise IndexOutOfRangeError(
                f"segment [{seg.start}, {seg.end}] outside [0, {m})"
            )
        out[seg.start : seg.end + 1] = series.values[seg.start : seg.end + 1]
    return _adopt(out)


def _effective_thresholds(
    cluster_thresholds: Sequence[float], min_threshold: float | None
) -> list[float]:
    if min_threshold is None:
        return sorted(cluster_thresholds)
    kept = [t for t in cluster_thresholds if t > min_threshold]
    return sorted([min_threshold] + kept)


def summarize(
    series: TimeSeries, restricted_rank_range: bool = False
) -> tuple[HCProfile, KurtosisReport]:
    """The HC profile and the kurtosis of one standardization."""
    std = standardize(series)
    return hc_profile(std, restricted_rank_range), _kurtosis_of(std)


def detect(series: TimeSeries, config: DetectionConfig | None = None) -> DetectionReport:
    """Run the full pipeline and report segments for every threshold.

    Thresholds come from a silhouette-selected k-means partition of the HC
    values; a sample triggers a threshold when the HC component at its
    p-value rank strictly exceeds it. Exceedance sets are nested, so raising
    the threshold never adds a segment sample.
    """
    config = config or DetectionConfig()
    m = len(series)
    profile, kurt = summarize(series, config.restricted_rank_range)
    if profile.max_rank < config.k_max:
        ranks = "ranks <= m/2" if config.restricted_rank_range else "all ranks"
        raise NoClustersError(
            f"{profile.max_rank} HC values to cluster ({ranks} of"
            f" m={m}) cannot support k_max={config.k_max} clusters"
        )

    points = profile.hc_values[: profile.max_rank]
    model = best_model(points, config.k_min, config.k_max, seed=config.seed)
    threshold_set = thresholds_from(model, points, factor=config.eq1_factor)
    thresholds = _effective_thresholds(threshold_set.thresholds, config.min_threshold)

    times = profile.original_indices[: profile.max_rank]
    scores = np.full(m, np.nan)
    scores[times] = points

    per_threshold = []
    for t in thresholds:
        trig = times[points > t]
        segs = localize(trig, config.window, m, scores=scores)
        per_threshold.append((float(t), tuple(segs)))

    reject = profile.hc_max > profile.asymptotic_threshold
    return DetectionReport(
        m=m,
        hc_max=profile.hc_max,
        asymptotic_threshold=profile.asymptotic_threshold,
        hc_ratio=profile.hc_max / profile.asymptotic_threshold,
        kurtosis=kurt,
        reject_normality=reject,
        per_threshold=tuple(per_threshold),
        cluster_summary=ClusterSummary.of(model),
    )
