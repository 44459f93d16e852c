"""Data ingestion and artifact persistence.

Input formats: single-column CSV (optional auto-detected header line),
time/value CSV (the value column is kept), and headerless little-endian
64-bit floats. Every written artifact embeds a run manifest; for CSV the
manifest rides in leading ``#`` comment lines so the payload below it is a
pure function of configuration + seed + input, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import TimeSeries
from .detector import DetectionReport
from .errors import NonFiniteError, ParseError, ValidationError
from .simlab import BoundaryCurve

FORMATS = ("csv_single_column", "csv_time_value", "raw_f64_le")
TOOL_NAME = "hcdetect"
REPORT_SCHEMA = "hcdetect/report/v1"
CURVE_SCHEMA = "hcdetect/curve/v1"
_HASH_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class InputSpec:
    path: Path
    format: str = "csv_single_column"
    channel: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "path", Path(self.path))
        if self.format not in FORMATS:
            raise ValidationError(
                f"unknown input format {self.format!r}; expected one of {FORMATS}"
            )
        if self.channel is not None and self.channel < 0:
            raise ValidationError("channel must be non-negative")


def _parse_csv(text: str, column: int) -> np.ndarray:
    values: list[float] = []
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        # float() ignores surrounding whitespace itself, so only the
        # messages strip the chosen cell.
        cells = line.split(",")
        if column >= len(cells):
            raise ParseError(
                f"line {lineno}: expected at least {column + 1} columns,"
                f" found {len(cells)}",
                line=lineno,
            )
        try:
            value = float(cells[column])
        except ValueError:
            if first_data_line:
                # single optional header line
                first_data_line = False
                continue
            raise ParseError(
                f"line {lineno}: cannot parse {cells[column].strip()!r} as a number",
                line=lineno,
            ) from None
        if not math.isfinite(value):
            raise NonFiniteError(
                f"line {lineno}: non-finite value {cells[column].strip()!r}",
                index=lineno,
            )
        values.append(value)
        first_data_line = False
    return np.asarray(values, dtype=np.float64)


def ingest(spec: InputSpec, sample_rate_hz: float | None = None) -> TimeSeries:
    """Decode the input file into a validated series."""
    if spec.format == "raw_f64_le":
        with open(spec.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size % 8:
                raise ParseError(
                    f"raw_f64_le input has {size} bytes, not a multiple of 8"
                )
            data = np.fromfile(fh, dtype="<f8").astype(np.float64, copy=False)
        # TimeSeries rejects non-finite samples, naming the first index.
        return TimeSeries(values=data, sample_rate_hz=sample_rate_hz)
    text = spec.path.read_text(encoding="utf-8")
    column = spec.channel
    if column is None:
        column = 1 if spec.format == "csv_time_value" else 0
    values = _parse_csv(text, column)
    return TimeSeries(values=values, sample_rate_hz=sample_rate_hz)


def write_raw_f64(path: Path | str, values: np.ndarray) -> None:
    np.asarray(values, dtype=np.float64).astype("<f8").tofile(path)


def sha256_of(path: Path | str) -> str:
    """Hex SHA-256 of a file, read in fixed-size chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK_BYTES), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance stamp embedded in every artifact.

    Two artifacts with equal manifests apart from ``created_utc`` carry
    byte-identical payloads.
    """

    tool: str
    version: str
    command: str
    config: dict
    seed: int
    input_sha256: str | None
    created_utc: str

    @classmethod
    def create(
        cls,
        command: str,
        config: dict,
        seed: int,
        input_path: Path | str | None = None,
    ) -> "RunManifest":
        return cls(
            tool=TOOL_NAME,
            version=__version__,
            command=command,
            config=config,
            seed=seed,
            input_sha256=sha256_of(input_path) if input_path is not None else None,
            created_utc=datetime.now(timezone.utc).isoformat(),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def fmt17(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def report_to_dict(report: DetectionReport, manifest: RunManifest) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "manifest": manifest.to_dict(),
        "stats": {
            "m": report.m,
            "mean": report.kurtosis.mean,
            "sd": report.kurtosis.sd,
            "kurtosis_raw": report.kurtosis.raw,
            "kurtosis_excess": report.kurtosis.excess,
        },
        "hc": {
            "hc_max": report.hc_max,
            "asymptotic_threshold": report.asymptotic_threshold,
            "ratio": report.hc_ratio,
            "reject_normality": report.reject_normality,
        },
        "clusters": {
            "k": report.cluster_summary.k,
            "centroids": list(report.cluster_summary.centroids),
            "silhouette": report.cluster_summary.silhouette,
            "inertia": report.cluster_summary.inertia,
            "seed": report.cluster_summary.seed,
        },
        "thresholds": [
            {
                "value": threshold,
                "segments": [
                    {
                        "start": seg.start,
                        "end": seg.end,
                        "peak_index": seg.peak_index,
                        "peak_hc": seg.peak_hc,
                    }
                    for seg in segments
                ],
            }
            for threshold, segments in report.per_threshold
        ],
    }


def curve_to_dict(curve: BoundaryCurve, manifest: RunManifest) -> dict:
    return {
        "schema": CURVE_SCHEMA,
        "manifest": manifest.to_dict(),
        "kind": curve.kind,
        "points": [
            {
                "params": point.params,
                "m_star": point.m_star,
                "found": point.m_star is not None,
                "trace": [
                    {"m": tp.m, "aggregated_hc": tp.aggregated_hc,
                     "threshold": tp.threshold}
                    for tp in point.trace
                ],
            }
            for point in curve.points
        ],
    }


def _manifest_comment(manifest: RunManifest) -> str:
    return "# manifest: " + json.dumps(manifest.to_dict(), sort_keys=True) + "\n"


def write_curve_csv(path: Path | str, curve: BoundaryCurve, manifest: RunManifest) -> None:
    """Manifest comment lines, then one row per parameter point."""
    param_names: list[str] = []
    for point in curve.points:
        for name in point.params:
            if name not in param_names:
                param_names.append(name)
    lines = [_manifest_comment(manifest)]
    lines.append(",".join(param_names + ["m_star", "found"]) + "\n")
    for point in curve.points:
        cells = []
        for name in param_names:
            v = point.params.get(name, "")
            cells.append(fmt17(v) if isinstance(v, float) else str(v))
        cells.append("" if point.m_star is None else str(point.m_star))
        cells.append("true" if point.m_star is not None else "false")
        lines.append(",".join(cells) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def write_masked_csv(path: Path | str, masked: TimeSeries, manifest: RunManifest) -> None:
    """Manifest comment lines, a ``value`` header, then one row per sample.

    Every sample is written as ``fmt17`` would write it. Only the samples
    that are not +0.0 (``-0.0`` prints as ``-0``) go through ``fmt17``;
    each run of +0.0 between them, nearly all of a masked series, is
    written as one block of ``"0"`` rows.
    """
    v = masked.values
    keep = np.flatnonzero((v != 0.0) | np.signbit(v))
    parts = [_manifest_comment(manifest), "value\n"]
    prev = 0
    for i, x in zip(keep.tolist(), v[keep].tolist()):
        parts.append("0\n" * (i - prev))
        parts.append(fmt17(x) + "\n")
        prev = i + 1
    parts.append("0\n" * (v.size - prev))
    Path(path).write_text("".join(parts), encoding="utf-8")


def csv_payload(path: Path | str) -> bytes:
    """Artifact bytes with the manifest comment block stripped: the part
    that must be identical across reruns with equal configuration."""
    out = []
    for line in Path(path).read_bytes().splitlines(keepends=True):
        if not line.startswith(b"#"):
            out.append(line)
    return b"".join(out)


def json_payload(path: Path | str) -> bytes:
    """Canonical JSON bytes with volatile manifest fields removed."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc.get("manifest"), dict):
        doc["manifest"].pop("created_utc", None)
    return json.dumps(doc, sort_keys=True).encode()
