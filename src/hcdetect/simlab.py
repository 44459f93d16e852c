"""Monte Carlo laboratory: sample generators, replicated HC aggregation,
and the detection-boundary (m*) crossing finder.

One grid runner, ``_curve``, computes every boundary: it runs one task
per (m, r) replicate on one thread pool, aggregates each (spec, m) cell
and reads m* off each spec's trace. ``find_crossing`` is a curve of one
spec, and ``mc_hc`` one cell.

Samples are tested against the standard normal directly (no
standardization: a pure mean shift must remain detectable, and the
standardized version of any i.i.d. normal sample is distribution-free of
its parameters). Replicate r of a run at size m draws its generator from
the entropy tuple (master seed, m, r), whatever the spec, so results are
independent of execution order and worker count, and one draw serves
every spec of a sweep (common random numbers).

Each pool thread draws, combines and ranks its replicates in one
workspace of three max(m)-long rows, made once per grid run, so the
replicate loop reuses the same resident memory from task to task instead
of allocating and freeing m-sized arrays per replicate.

Normal variates are produced by inverse-CDF transform of PCG64 uniforms,
which is reproducible bit-for-bit across platforms for a fixed numpy
stream version.
"""

from __future__ import annotations

import os
import threading
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


def _standard_normals(
    m: int, rng: np.random.Generator, scratch: np.ndarray | None = None
) -> np.ndarray:
    u = rng.random(m, out=scratch)
    np.maximum(u, 2.0**-54, out=u)  # u = 0 occurs with probability 2**-53
    return np.asarray(backend.ndtri(u))


def _draw(
    m: int,
    rng: np.random.Generator,
    mixture: bool,
    rows: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
) -> tuple[np.ndarray, np.ndarray | None]:
    """The normal block z, then the Bernoulli selector's uniforms when a
    mixture needs them: every kind reads the stream in this order. The
    uniforms go into the m-element rows when given (the first is scratch
    for z's uniforms, the second holds the selector) and into new arrays
    otherwise; either way the stream is read the same."""
    z = _standard_normals(m, rng, rows[0])
    return z, (rng.random(m, out=rows[1]) if mixture else None)


def _combine(
    spec: GeneratorSpec, z: np.ndarray, sel: np.ndarray | None, out: np.ndarray
) -> np.ndarray:
    """spec's samples from the draws, written into out: z + mu,
    z + mu * (sel < eps), or z * scale + mu. out may be the one draw the
    spec reads last (z, or sel for the mixture), or memory of its own."""
    if spec.kind == "null":
        np.copyto(out, z)
    elif spec.kind == "shifted_mean":
        np.add(z, spec.mu, out=out)
    elif spec.kind == "sparse_mixture":
        np.multiply(spec.mu, sel < spec.eps, out=out)
        out += z
    else:  # sparse_sum
        np.multiply(z, np.sqrt((1.0 - spec.eps) ** 2 + spec.eps**2), out=out)
        out += spec.mu
    return out


def sample(spec: GeneratorSpec, m: int, seed) -> TimeSeries:
    """Draw m samples; deterministic in (spec, m, seed).

    For the mixture, the normal block is drawn first and the Bernoulli
    selector second, so all kinds consume the uniform stream in a fixed
    documented order.
    """
    if m < MIN_LENGTH:
        raise DomainError(f"m must be >= {MIN_LENGTH}")
    rng = np.random.default_rng(seed)
    z, sel = _draw(m, rng, spec.kind == "sparse_mixture")
    # the draws are fresh: combine into the last one read
    return _adopt(_combine(spec, z, sel, z if sel is None else sel))


def _hc_table(
    specs: list[GeneratorSpec], config: SimConfig, grid: tuple[int, ...]
) -> np.ndarray:
    """The [spec, m, replicate] table of HC statistics.

    One task per (m, r) replicate makes its draws once and combines them
    per spec in one scratch buffer; a bootstrap replicate gathers from
    its size's base draw at (seed, m), as the gather commutes with the
    element-wise combine. Each task writes only its own slots. |z| < 9
    and mu is finite, so every sample is finite and the statistic skips
    its checks.

    Each pool thread keeps one workspace for the whole call: three rows
    of max(grid) float64, of which a task at size m uses the first m
    columns. They hold z's uniforms (or the bootstrap's gathered z), the
    selector, and the combined x, which the statistic then overwrites
    with its reordered |x|. Reusing them keeps the replicate loop's
    memory resident instead of freeing and faulting it in again per
    replicate; the workspaces are dropped when the call returns.
    """
    mixture = any(spec.kind == "sparse_mixture" for spec in specs)
    hcs = np.empty((len(specs), len(grid), config.replicates))
    # bootstrap: size j's base draw, made by the first replicate that
    # needs it and dropped once the last one has it
    bases = [None] * len(grid)
    left = [config.replicates] * len(grid)
    locks = [threading.Lock() for _ in grid]
    workspace = threading.local()

    def base(j):
        with locks[j]:
            if bases[j] is None:
                rng = np.random.default_rng((config.seed, grid[j]))
                bases[j] = _draw(grid[j], rng, mixture)
            drawn, left[j] = bases[j], left[j] - 1
            if not left[j]:
                bases[j] = None
            return drawn

    def run(task):
        j, r = task
        m = grid[j]
        if not hasattr(workspace, "rows"):
            workspace.rows = np.empty((3, max(grid)))
        draws, selector, x = workspace.rows[:, :m]
        rng = np.random.default_rng((config.seed, m, r))
        if config.scheme == "fresh":
            z, sel = _draw(m, rng, mixture, (draws, selector))
        else:  # resample the base draw with replacement
            idx = rng.integers(0, m, m)
            z, sel = (
                None if a is None else np.take(a, idx, out=row)
                for a, row in zip(base(j), (draws, selector))
            )
        for s, spec in enumerate(specs):
            hcs[s, j, r] = _hc_statistic(_combine(spec, z, sel, x), x)

    tasks = [(j, r) for j in range(len(grid)) for r in range(config.replicates)]
    workers = min(config.workers, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, tasks))
    return hcs


def _aggregate(values: np.ndarray, how: str) -> float:
    return float(np.mean(values) if how == "mean" else np.median(values))


def mc_hc(
    spec: GeneratorSpec, m: int, config: SimConfig
) -> tuple[float, np.ndarray]:
    """Aggregate the HC statistic over seeded replicates at size m."""
    if m < MIN_LENGTH:
        raise DomainError(f"m must be >= {MIN_LENGTH}")
    reps = _hc_table([spec], config, (m,))[0, 0]
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
    """The grid runner: the (m, r) replicates on one thread pool, each
    drawn once for every spec, then each (spec, m) cell aggregated and
    m* read off each spec's trace."""
    grid = config.m_grid
    thresholds = [asymptotic_threshold(m) for m in grid]
    hcs = _hc_table([spec for _, spec in specs], config, grid)

    points = []
    for (params, _), cells in zip(specs, hcs):
        row = [_aggregate(reps, config.aggregator) for reps in cells]
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
