"""Monte Carlo laboratory: sample generators, replicated HC aggregation,
and the detection-boundary (m*) crossing finder.

One grid runner, ``_curve``, computes every boundary: it aggregates each
(spec, m) cell on one thread pool and reads m* off each spec's trace.
``find_crossing`` is a curve of one spec.

Samples are tested against the standard normal directly (no
standardization: a pure mean shift must remain detectable, and the
standardized version of any i.i.d. normal sample is distribution-free of
its parameters). Replicate r of a run at size m draws its generator from
the entropy tuple (master seed, m, r), so results are independent of
execution order and worker count.

Normal variates are produced by inverse-CDF transform of PCG64 uniforms,
which is reproducible bit-for-bit across platforms for a fixed numpy
stream version.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from . import backend
from .core import (
    MIN_LENGTH,
    TimeSeries,
    _adopt,
    _hc_statistic,
    asymptotic_threshold,
    hc_test_statistic,  # noqa: F401  (perfbench/spans.py wraps it under this name)
)
from .errors import DomainError

KINDS = ("null", "shifted_mean", "sparse_mixture", "sparse_sum")
AGGREGATORS = ("mean", "median")
SCHEMES = ("fresh", "bootstrap")


def default_m_grid(
    start: int = 100, stop: int = 1_000_000, points: int = 16
) -> tuple[int, ...]:
    """Geometric grid of sample sizes (deduplicated after rounding)."""
    if start < 1 or stop < 1 or points < 1:
        raise DomainError(
            f"geometric grid needs START, STOP and POINTS >= 1, got"
            f" {start}:{stop}:{points}"
        )
    grid = np.unique(np.geomspace(start, stop, points).round().astype(np.int64))
    return tuple(int(g) for g in grid)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to draw: pure noise, a shifted mean, the sparse two-component
    mixture, or the single normal obtained by summing independently scaled
    signal and noise components (mean mu, variance (1-eps)^2 + eps^2)."""

    kind: str
    mu: float = 0.0
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown generator kind {self.kind!r}")
        if not np.isfinite(self.mu):
            raise DomainError("mu must be finite")
        if self.kind in ("sparse_mixture", "sparse_sum"):
            if self.eps is None or not 0.0 < self.eps < 1.0:
                raise DomainError(f"eps must lie in (0, 1), got {self.eps}")
        elif self.eps is not None:
            raise DomainError(f"{self.kind} takes no eps")

    @classmethod
    def null(cls) -> "GeneratorSpec":
        return cls(kind="null")

    @classmethod
    def shifted_mean(cls, mu: float) -> "GeneratorSpec":
        return cls(kind="shifted_mean", mu=mu)

    @classmethod
    def sparse_mixture(cls, eps: float, mu: float) -> "GeneratorSpec":
        return cls(kind="sparse_mixture", mu=mu, eps=eps)

    @classmethod
    def sparse_sum(cls, eps: float, mu: float) -> "GeneratorSpec":
        return cls(kind="sparse_sum", mu=mu, eps=eps)


@dataclass(frozen=True)
class SimConfig:
    replicates: int = 100
    m_grid: tuple[int, ...] = field(default_factory=default_m_grid)
    seed: int = 0
    aggregator: str = "mean"
    scheme: str = "fresh"
    hysteresis: int = 2
    workers: int = 1

    def __post_init__(self):
        if self.replicates < 1:
            raise DomainError("replicates must be at least 1")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        grid = tuple(int(m) for m in self.m_grid)
        if len(grid) == 0:
            raise DomainError("m_grid must be non-empty")
        if any(m < MIN_LENGTH for m in grid):
            raise DomainError(f"every m must be >= {MIN_LENGTH}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("m_grid must be strictly ascending")
        if self.aggregator not in AGGREGATORS:
            raise DomainError(f"aggregator must be one of {AGGREGATORS}")
        if self.scheme not in SCHEMES:
            raise DomainError(f"scheme must be one of {SCHEMES}")
        if self.hysteresis < 0:
            raise DomainError("hysteresis must be non-negative")
        if self.workers < 1:
            raise DomainError("workers must be at least 1")
        object.__setattr__(self, "m_grid", grid)


class TracePoint(NamedTuple):
    m: int
    aggregated_hc: float
    threshold: float


@dataclass(frozen=True)
class BoundaryPoint:
    params: dict
    m_star: int | None
    trace: tuple[TracePoint, ...]


@dataclass(frozen=True)
class BoundaryCurve:
    kind: str
    points: tuple[BoundaryPoint, ...]


def _standard_normals(m: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(m)
    np.maximum(u, 2.0**-54, out=u)  # u = 0 occurs with probability 2**-53
    return np.asarray(backend.ndtri(u))


def sample(spec: GeneratorSpec, m: int, seed) -> TimeSeries:
    """Draw m samples; deterministic in (spec, m, seed).

    For the mixture, the normal block is drawn first and the Bernoulli
    selector second, so all kinds consume the uniform stream in a fixed
    documented order.
    """
    if m < MIN_LENGTH:
        raise DomainError(f"m must be >= {MIN_LENGTH}")
    rng = np.random.default_rng(seed)
    # z is a fresh array: combine into it in place (the same IEEE
    # operations as z + mu * signal and mu + scale * z)
    z = _standard_normals(m, rng)
    if spec.kind == "shifted_mean":
        z += spec.mu
    elif spec.kind == "sparse_mixture":
        signal = rng.random(m) < spec.eps
        z += spec.mu * signal
    elif spec.kind == "sparse_sum":
        z *= np.sqrt((1.0 - spec.eps) ** 2 + spec.eps**2)
        z += spec.mu
    return _adopt(z)


def _replicate_hcs(spec: GeneratorSpec, m: int, config: SimConfig) -> np.ndarray:
    # sample() has checked every draw, so the statistic skips its checks
    out = np.empty(config.replicates)
    if config.scheme == "fresh":
        for r in range(config.replicates):
            x = sample(spec, m, (config.seed, m, r))
            out[r] = _hc_statistic(x.values)
    else:  # bootstrap: resample one base draw with replacement
        base = sample(spec, m, (config.seed, m)).values
        for r in range(config.replicates):
            rng = np.random.default_rng((config.seed, m, r))
            out[r] = _hc_statistic(base[rng.integers(0, m, m)])
    return out


def _aggregate(values: np.ndarray, how: str) -> float:
    return float(np.mean(values) if how == "mean" else np.median(values))


def mc_hc(
    spec: GeneratorSpec, m: int, config: SimConfig
) -> tuple[float, np.ndarray]:
    """Aggregate the HC statistic over seeded replicates at size m."""
    reps = _replicate_hcs(spec, m, config)
    return _aggregate(reps, config.aggregator), reps


def _first_crossing(trace: tuple[TracePoint, ...], hysteresis: int) -> int | None:
    ok = [t.aggregated_hc >= t.threshold for t in trace]
    for j, t in enumerate(trace):
        if all(ok[j : j + hysteresis + 1]):
            return t.m
    return None


def find_crossing(
    spec: GeneratorSpec, config: SimConfig
) -> tuple[int | None, list[TracePoint]]:
    """Smallest grid m where the aggregated HC stays at or above
    sqrt(2 ln ln m) for `hysteresis` further grid points (clipped at the
    grid end); None when no such m exists."""
    point = _curve(spec.kind, [({}, spec)], config).points[0]
    return point.m_star, list(point.trace)


def _curve(
    kind: str, specs: list[tuple[dict, GeneratorSpec]], config: SimConfig
) -> BoundaryCurve:
    """The grid runner: every (spec, m) cell in spec-major order on one
    thread pool, each cell's aggregate independent of the others."""
    grid = config.m_grid
    thresholds = [asymptotic_threshold(m) for m in grid]
    tasks = [(spec, m) for _, spec in specs for m in grid]

    def run(task):
        spec, m = task
        return mc_hc(spec, m, config)[0]

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        aggs = list(pool.map(run, tasks))

    points = []
    for i, (params, _) in enumerate(specs):
        row = aggs[i * len(grid) : (i + 1) * len(grid)]
        trace = tuple(map(TracePoint, grid, row, thresholds))
        m_star = _first_crossing(trace, config.hysteresis)
        points.append(BoundaryPoint(params=params, m_star=m_star, trace=trace))
    return BoundaryCurve(kind=kind, points=tuple(points))


def boundary_grid_mean(mu_values: Iterable[float], config: SimConfig) -> BoundaryCurve:
    """Sweep the shifted-mean generator over mu (the first figure's sweep)."""
    specs = [({"mu": float(mu)}, GeneratorSpec.shifted_mean(mu)) for mu in mu_values]
    if not specs:
        raise DomainError("mu grid must be non-empty")
    return _curve("mean", specs, config)


def boundary_grid_sparse(
    eps_values: Iterable[float],
    mu_values: Iterable[float],
    config: SimConfig,
    variants: tuple[str, ...] = ("sparse_mixture", "sparse_sum"),
) -> BoundaryCurve:
    """Sweep (eps, mu) pairs for the mixture and/or summed-normal variants
    (the second figure's sweep)."""
    eps_values = [float(e) for e in eps_values]
    mu_values = [float(u) for u in mu_values]
    if not eps_values or not mu_values:
        raise DomainError("eps and mu grids must be non-empty")
    for v in variants:
        if v not in ("sparse_mixture", "sparse_sum"):
            raise DomainError(f"unknown variant {v!r}")
    specs = []
    for variant in variants:
        for eps in eps_values:
            for mu in mu_values:
                spec = GeneratorSpec(kind=variant, mu=mu, eps=eps)
                specs.append(
                    ({"variant": variant, "eps": eps, "mu": mu}, spec)
                )
    return _curve("sparse", specs, config)
