"""Command-line front end.

Subcommands: ``detect`` (series -> JSON report, optional masked-series
CSVs), ``simulate-mean`` / ``simulate-sparse`` (boundary curves -> CSV +
JSON trace), and ``stats`` (summary quantities to stdout).

Exit codes: 0 success, 2 validation error (bad parameters or degenerate
input), 1 runtime error (I/O and everything else). With
``HCDETECT_DEBUG=1`` in the environment, an unexpected error also prints
its traceback to stderr, ahead of the one-line message.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .core import kurtosis, profile_series  # noqa: F401  (wrapped by perfbench/spans.py)
from .detector import DetectionConfig, detect, mask, summarize
from .errors import ValidationError
from .io import (
    InputSpec,
    RunManifest,
    curve_to_dict,
    dump_json,
    ingest,
    report_to_dict,
    write_curve_csv,
    write_masked_csv,
)
from .simlab import (
    SimConfig,
    boundary_grid_mean,
    boundary_grid_sparse,
    default_m_grid,
)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse float list {text!r}") from exc


def _parse_m_grid(text: str) -> tuple[int, ...]:
    if text.startswith("geom:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValidationError("geometric grid syntax is geom:START:STOP:POINTS")
        try:
            start, stop, points = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ValidationError(f"cannot parse m-grid {text!r}") from exc
        return default_m_grid(start, stop, points)
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValidationError(f"cannot parse m-grid {text!r}") from exc


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input file path")
    p.add_argument(
        "--format",
        default="csv_single_column",
        choices=["csv_single_column", "csv_time_value", "raw_f64_le"],
        help="input encoding (default csv_single_column)",
    )
    p.add_argument("--channel", type=int, default=None,
                   help="column index for multi-column CSV")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m-grid", default="geom:100:1000000:16",
                   help='comma list or "geom:START:STOP:POINTS"')
    p.add_argument("--aggregator", default="mean", choices=["mean", "median"])
    p.add_argument("--scheme", default="fresh", choices=["fresh", "bootstrap"])
    p.add_argument("--hysteresis", type=int, default=2)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads; results are identical for any count")
    p.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcdetect",
        description="Higher-criticism signal detection and simulation lab",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect and sort signal segments")
    _add_input_flags(p)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--eq1-factor", type=float, default=0.25)
    p.add_argument("--restricted-ranks", action="store_true",
                   help="restrict HC maximization to ranks <= m/2")
    p.add_argument("--min-threshold", type=float, default=None,
                   help="drop cluster thresholds at or below this value and "
                        "analyze this value as the smallest threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.add_argument("--masked-csv", default=None,
                   help="prefix for per-threshold masked-series CSV files")

    p = sub.add_parser("simulate-mean", help="shifted-mean boundary sweep")
    p.add_argument("--mu", required=True, help="comma list of means")
    _add_sim_flags(p)

    p = sub.add_parser("simulate-sparse", help="sparse-signal boundary sweep")
    p.add_argument("--eps", required=True, help="comma list of sparsity values")
    p.add_argument("--mu", required=True, help="comma list of intensities")
    p.add_argument("--variant", default="both",
                   choices=["both", "mixture", "sum"])
    _add_sim_flags(p)

    p = sub.add_parser("stats", help="print summary quantities as JSON")
    _add_input_flags(p)

    return parser


def _require_parent_dirs(*paths: str | None) -> None:
    # Fail before the ingest or the sweep, not after it: an output whose
    # directory is missing would otherwise cost the whole run, or leave a
    # partial result behind.
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "no such directory for output", path)


def _cmd_detect(args) -> int:
    masked_csv = None if args.masked_csv is None else f"{args.masked_csv}_t0.csv"
    _require_parent_dirs(args.out, masked_csv)
    spec = InputSpec(path=Path(args.input), format=args.format, channel=args.channel)
    series = ingest(spec)
    config = DetectionConfig(
        window=args.window,
        k_min=args.k_min,
        k_max=args.k_max,
        eq1_factor=args.eq1_factor,
        restricted_rank_range=args.restricted_ranks,
        seed=args.seed,
        min_threshold=args.min_threshold,
    )
    report = detect(series, config)
    manifest = RunManifest.create(
        command="detect",
        config={**asdict(config), "input_format": args.format,
                "channel": args.channel},
        seed=args.seed,
        input_path=args.input,
    )
    doc = dump_json(report_to_dict(report, manifest))
    if args.out is None:
        sys.stdout.write(doc)
    else:
        Path(args.out).write_text(doc, encoding="utf-8")
    if args.masked_csv is not None:
        for i, (_, segments) in enumerate(report.per_threshold):
            masked = mask(series, segments)
            write_masked_csv(f"{args.masked_csv}_t{i}.csv", masked, manifest)
    return 0


def _sim_config(args) -> SimConfig:
    return SimConfig(
        replicates=args.replicates,
        m_grid=_parse_m_grid(args.m_grid),
        seed=args.seed,
        aggregator=args.aggregator,
        scheme=args.scheme,
        hysteresis=args.hysteresis,
        workers=args.threads,
    )


def _write_curve(
    out: str, config: SimConfig, curve, command: str, extra_config: dict
) -> int:
    manifest_config = {
        "replicates": config.replicates,
        "m_grid": list(config.m_grid),
        "aggregator": config.aggregator,
        "scheme": config.scheme,
        "hysteresis": config.hysteresis,
        **extra_config,
    }
    manifest = RunManifest.create(
        command=command, config=manifest_config, seed=config.seed
    )
    path = Path(out)
    write_curve_csv(path, curve, manifest)
    path.with_suffix(".json").write_text(
        dump_json(curve_to_dict(curve, manifest)), encoding="utf-8"
    )
    return 0


def _cmd_simulate_mean(args) -> int:
    _require_parent_dirs(args.out)
    mu = _parse_floats(args.mu)
    config = _sim_config(args)
    curve = boundary_grid_mean(mu, config)
    return _write_curve(args.out, config, curve, "simulate-mean", {"mu": mu})


def _cmd_simulate_sparse(args) -> int:
    _require_parent_dirs(args.out)
    eps = _parse_floats(args.eps)
    mu = _parse_floats(args.mu)
    variants = {
        "both": ("sparse_mixture", "sparse_sum"),
        "mixture": ("sparse_mixture",),
        "sum": ("sparse_sum",),
    }[args.variant]
    config = _sim_config(args)
    curve = boundary_grid_sparse(eps, mu, config, variants=variants)
    return _write_curve(
        args.out, config, curve, "simulate-sparse",
        {"eps": eps, "mu": mu, "variant": args.variant},
    )


def _cmd_stats(args) -> int:
    spec = InputSpec(path=Path(args.input), format=args.format, channel=args.channel)
    series = ingest(spec)
    profile, kurt = summarize(series)
    manifest = RunManifest.create(
        command="stats",
        config={"input_format": args.format, "channel": args.channel},
        seed=0,
        input_path=args.input,
    )
    doc = {
        "manifest": manifest.to_dict(),
        "m": len(series),
        "mean": kurt.mean,
        "sd": kurt.sd,
        "kurtosis_raw": kurt.raw,
        "kurtosis_excess": kurt.excess,
        "hc_max": profile.hc_max,
        "asymptotic_threshold": profile.asymptotic_threshold,
        "ratio": profile.hc_max / profile.asymptotic_threshold,
    }
    sys.stdout.write(dump_json(doc))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "detect": _cmd_detect,
        "simulate-mean": _cmd_simulate_mean,
        "simulate-sparse": _cmd_simulate_sparse,
        "stats": _cmd_stats,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"hcdetect: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hcdetect: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        if os.environ.get("HCDETECT_DEBUG") == "1":
            traceback.print_exc(file=sys.stderr)
        print(f"hcdetect: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
