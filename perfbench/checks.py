"""Output checks made apart from the program.

Nothing here imports ``hcdetect``. Moments come from ``math.fsum``,
p-values from ``scipy.special``, and the HC statistic, the segments and
the crossing scan are recomputed from their documented definitions. Each
check raises ``CheckError`` on the first mismatch. The checks run outside
the timed interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

P_FLOOR = 2.0**-54  # documented clamp of two-sided p-values
P_CEIL = 0.99999  # an exact p = 1 maps here
HC_RTOL = 1e-9  # scipy's erfc and the program's agree to a few ulp
MOMENT_RTOL = 1e-12  # compensated sums against np.mean / np.std


class CheckError(AssertionError):
    pass


def _close(name: str, got: float, want: float, rtol: float) -> None:
    if not math.isclose(got, want, rel_tol=rtol, abs_tol=0.0):
        raise CheckError(f"{name}: program {got!r}, recomputed {want!r}")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{name}: program {got!r}, expected {want!r}")


def payload(text: str) -> str:
    """An artifact without its manifest comment lines."""
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))


def json_payload(doc: dict) -> str:
    """A JSON artifact without its volatile ``created_utc`` stamp."""
    manifest = {k: v for k, v in doc["manifest"].items() if k != "created_utc"}
    return json.dumps({**doc, "manifest": manifest}, sort_keys=True)


def clamped_p(x: np.ndarray) -> np.ndarray:
    p = special.erfc(np.abs(x) / math.sqrt(2.0))
    p[p >= 1.0] = P_CEIL
    return np.maximum(p, P_FLOOR)


def hc_components(p_sorted: np.ndarray) -> np.ndarray:
    m = p_sorted.size
    i = np.arange(1, m + 1) / m
    return math.sqrt(m) * (i - p_sorted) / np.sqrt(p_sorted * (1.0 - p_sorted))


def threshold(m: int) -> float:
    return math.sqrt(2.0 * math.log(math.log(m)))


@dataclass(frozen=True)
class Moments:
    mean: float
    sd: float
    kurtosis_raw: float


def moments(x: np.ndarray) -> Moments:
    values = x.tolist()
    mean = math.fsum(values) / len(values)
    centred = [v - mean for v in values]
    sd = math.sqrt(math.fsum(c * c for c in centred) / len(values))
    kurt = math.fsum((c / sd) ** 4 for c in centred) / len(values)
    return Moments(mean, sd, kurt)


@dataclass(frozen=True)
class Profile:
    """Full-rank HC of a standardized recording, indexed by time."""

    hc_by_time: np.ndarray
    hc_max: float


def profile(x: np.ndarray, mom: Moments) -> Profile:
    z = (x - mom.mean) / mom.sd
    p = clamped_p(z)
    # p ascending; clamped ties by larger |z|, then by time
    order = np.lexsort((np.arange(z.size), -np.abs(z), p))
    hc = hc_components(p[order])
    hc_by_time = np.empty_like(hc)
    hc_by_time[order] = hc
    return Profile(hc_by_time, float(hc.max()))


def check_stats(doc: dict, x: np.ndarray, mom: Moments, prof: Profile, data_lines: int) -> None:
    _equal("m", doc["m"], data_lines)
    _equal("m", doc["m"], x.size)
    _close("mean", doc["mean"], mom.mean, MOMENT_RTOL)
    _close("sd", doc["sd"], mom.sd, MOMENT_RTOL)
    _close("kurtosis_raw", doc["kurtosis_raw"], mom.kurtosis_raw, MOMENT_RTOL)
    _close("hc_max", doc["hc_max"], prof.hc_max, HC_RTOL)
    _close("asymptotic_threshold", doc["asymptotic_threshold"], threshold(x.size), 1e-15)


def _merge(triggers: np.ndarray, window: int, m: int) -> list[tuple[int, int]]:
    out: list[list[int]] = []
    for t in np.sort(triggers).tolist():
        lo, hi = max(0, t - window), min(m - 1, t + window)
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(a, b) for a, b in out]


def _check_segments(segs, thr, prof: Profile, window: int, m: int) -> None:
    spans = [(s["start"], s["end"]) for s in segs]
    for j, (start, end) in enumerate(spans):
        if not 0 <= start <= end < m:
            raise CheckError(f"segment [{start}, {end}] outside [0, {m})")
        if j and start <= spans[j - 1][1] + 1:
            raise CheckError(f"segments {spans[j - 1]} and {(start, end)} not sorted and disjoint")
    hc = prof.hc_by_time
    margin = HC_RTOL * max(abs(thr), 1.0)
    sure = np.flatnonzero(hc > thr + margin)
    maybe = np.flatnonzero(hc > thr - margin)
    if sure.size != maybe.size:
        # A sample sits within rounding of the threshold: only containment
        # of the certain triggers can be asserted.
        starts = np.array([a for a, _ in spans])
        pos = np.searchsorted(starts, sure, side="right") - 1
        ends = np.array([b for _, b in spans])
        if sure.size and (pos.min() < 0 or (sure > ends[pos]).any()):
            raise CheckError(f"threshold {thr}: a trigger lies outside every segment")
        return
    want = _merge(sure, window, m)
    _equal(f"threshold {thr} segments", spans, want)
    for seg, (start, end) in zip(segs, want):
        inside = sure[(sure >= start) & (sure <= end)]
        peak = int(inside[np.argmax(hc[inside])])  # ties: smallest index
        _equal(f"segment [{start}, {end}] peak_index", seg["peak_index"], peak)
        _close(f"segment [{start}, {end}] peak_hc", seg["peak_hc"], float(hc[peak]), HC_RTOL)


def _sample_mask(segs, m: int) -> np.ndarray:
    keep = np.zeros(m, dtype=bool)
    for s in segs:
        keep[s["start"] : s["end"] + 1] = True
    return keep


def check_detect(
    doc: dict,
    masked_texts: list[str],
    x: np.ndarray,
    mom: Moments,
    prof: Profile,
    spikes: np.ndarray,
    width: int,
    window: int,
) -> None:
    m = x.size
    _equal("stats.m", doc["stats"]["m"], m)
    _close("stats.mean", doc["stats"]["mean"], mom.mean, MOMENT_RTOL)
    _close("stats.sd", doc["stats"]["sd"], mom.sd, MOMENT_RTOL)
    _close("stats.kurtosis_raw", doc["stats"]["kurtosis_raw"], mom.kurtosis_raw, MOMENT_RTOL)
    _close("hc_max", doc["hc"]["hc_max"], prof.hc_max, HC_RTOL)
    _close("asymptotic_threshold", doc["hc"]["asymptotic_threshold"], threshold(m), 1e-15)
    levels = doc["thresholds"]
    if not levels:
        raise CheckError("no thresholds reported")
    values = [lvl["value"] for lvl in levels]
    _equal("thresholds ascending", values, sorted(values))
    for lvl in levels:
        _check_segments(lvl["segments"], lvl["value"], prof, window, m)

    lowest = levels[0]["segments"]
    for loc in spikes.tolist():
        if not any(s["start"] <= loc and loc + width - 1 <= s["end"] for s in lowest):
            raise CheckError(f"spike at {loc} is not inside a segment of the smallest threshold")
    for s in lowest:
        if not ((spikes + width - 1 >= s["start"]) & (spikes <= s["end"])).any():
            raise CheckError(f"segment [{s['start']}, {s['end']}] holds no spike")

    masks = [_sample_mask(lvl["segments"], m) for lvl in levels]
    for lo, hi in zip(masks, masks[1:]):
        if (hi & ~lo).any():
            raise CheckError("a higher threshold adds segment samples")

    # Byte-exact: each row is the sample in 17 significant digits, or "0".
    _equal("masked CSV files", len(masked_texts), len(levels))
    for i, (text, keep) in enumerate(zip(masked_texts, masks)):
        lines = payload(text).splitlines()
        _equal(f"masked CSV {i} header", lines[0], "value")
        _equal(f"masked CSV {i} rows", len(lines) - 1, m)
        rows = np.array(lines[1:])
        outside = np.flatnonzero(~keep & (rows != "0"))
        if outside.size:
            raise CheckError(f"masked CSV {i} row {outside[0]}: {str(rows[outside[0]])!r} outside the segments")
        for j in np.flatnonzero(keep).tolist():
            _equal(f"masked CSV {i} row {j}", str(rows[j]), format(x[j], ".17g"))


def sweep_statistic(kind: str, eps: float, mu: float, m: int, seed: int, replicate: int) -> float:
    """The documented generator and the restricted-rank HC, from scratch.

    PCG64 uniforms floored at 2**-54, normals by scipy's ndtri, then for the
    mixture a second block of uniforms as the Bernoulli(eps) selector.
    """
    rng = np.random.default_rng((seed, m, replicate))
    z = special.ndtri(np.maximum(rng.random(m), P_FLOOR))
    if kind == "sparse_mixture":
        x = z + mu * (rng.random(m) < eps)
    else:
        x = mu + math.sqrt((1.0 - eps) ** 2 + eps**2) * z
    p = np.sort(clamped_p(x))
    hc = hc_components(p)
    half = max(m // 2, 1)
    keep = p[:half] > 1.0 / m
    return float(hc[:half][keep].max() if keep.any() else hc.max())


def crossing(trace: list[dict], hysteresis: int):
    ok = [pt["aggregated_hc"] >= threshold(pt["m"]) for pt in trace]
    for j in range(len(ok)):
        if all(ok[j : j + hysteresis + 1]):
            return trace[j]["m"]
    return None


def check_sweep(
    csv_text: str,
    doc: dict,
    specs: list[tuple[str, float, float]],
    grid: list[int],
    expected_cells: dict[int, tuple[int, float]],
    hysteresis: int,
) -> None:
    """``expected_cells`` maps a spec index to (grid index, aggregate)."""
    points = doc["points"]
    _equal("curve points", len(points), len(specs))
    rows = payload(csv_text).splitlines()
    _equal("CSV header", rows[0], "variant,eps,mu,m_star,found")
    _equal("CSV rows", len(rows) - 1, len(specs))
    for i, ((kind, eps, mu), point, row) in enumerate(zip(specs, points, rows[1:])):
        _equal(f"point {i} params", point["params"], {"variant": kind, "eps": eps, "mu": mu})
        trace = point["trace"]
        _equal(f"point {i} grid", [pt["m"] for pt in trace], grid)
        for pt in trace:
            _close(f"point {i} threshold at m={pt['m']}", pt["threshold"], threshold(pt["m"]), 1e-15)
        cell, agg = expected_cells[i]
        _close(f"point {i} aggregated_hc at m={grid[cell]}", trace[cell]["aggregated_hc"], agg, HC_RTOL)
        m_star = crossing(trace, hysteresis)
        _equal(f"point {i} m_star", point["m_star"], m_star)
        cells = row.split(",")
        _equal(f"CSV row {i} params", (cells[0], float(cells[1]), float(cells[2])), (kind, eps, mu))
        _equal(f"CSV row {i} m_star", cells[3], "" if m_star is None else str(m_star))
        _equal(f"CSV row {i} found", cells[4], "false" if m_star is None else "true")
