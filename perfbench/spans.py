"""Span recorder for the traced benchmark run.

The benchmark wraps public functions of each ``hcdetect`` module at the
names their callers look up, so no program code changes: for example
``hcdetect.detector.best_model`` (what ``detect`` calls) and
``hcdetect.backend.two_sided_p`` (what ``core`` and ``simlab`` call).
Each wrapper records one span: call number, name, start, end, parent span
and an optional count. Spans stay in memory and are written out when the
run ends. A span's self time is its duration minus the time its child
spans cover; every workload runs single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time


def _input_bytes(args, result):
    return os.path.getsize(args[0].path)


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _array_size(args, result):
    return len(args[0])


def _replicates(args, result):
    return args[2].replicates


def _length(args, result):
    return len(result)


# (module, attribute the caller looks up, span name, count of the span)
WRAPS = (
    ("hcdetect.cli", "main", "cli.main", None),
    ("hcdetect.cli", "ingest", "io.ingest", _input_bytes),
    ("hcdetect.io", "sha256_of", "io.sha256", None),
    ("hcdetect.cli", "report_to_dict", "io.report_to_dict", None),
    ("hcdetect.cli", "curve_to_dict", "io.curve_to_dict", None),
    ("hcdetect.cli", "dump_json", "io.dump_json", _text_bytes),
    ("hcdetect.cli", "write_masked_csv", "io.write_masked_csv", _file_bytes),
    ("hcdetect.cli", "write_curve_csv", "io.write_curve_csv", _file_bytes),
    ("hcdetect.cli", "profile_series", "core.profile_series", None),
    ("hcdetect.cli", "kurtosis", "core.kurtosis", None),
    ("hcdetect.core", "standardize", "core.standardize", None),
    ("hcdetect.core", "hc_profile", "core.hc_profile", None),
    ("hcdetect.detector", "standardize", "core.standardize", None),
    ("hcdetect.detector", "hc_profile", "core.hc_profile", None),
    ("hcdetect.detector", "kurtosis", "core.kurtosis", None),
    ("hcdetect.simlab", "hc_test_statistic", "core.hc_test_statistic", None),
    ("hcdetect.backend", "two_sided_p", "backend.two_sided_p", _array_size),
    ("hcdetect.backend", "ndtri", "backend.ndtri", _array_size),
    ("hcdetect.detector", "best_model", "cluster.best_model", None),
    ("hcdetect.cluster", "kmeans_1d", "cluster.kmeans_1d", None),
    ("hcdetect.detector", "thresholds_from", "cluster.thresholds_from", None),
    ("hcdetect.cli", "detect", "detector.detect", None),
    ("hcdetect.detector", "localize", "detector.localize", _length),
    ("hcdetect.cli", "mask", "detector.mask", None),
    ("hcdetect.cli", "boundary_grid_sparse", "simlab.boundary_grid_sparse", None),
    ("hcdetect.simlab", "mc_hc", "simlab.mc_hc", _replicates),
    ("hcdetect.simlab", "sample", "simlab.sample", None),
)


class Tracer:
    """Installs the wrappers around one call at a time and keeps the spans.

    A span is the tuple (call, name, start, end, parent, count); ``parent``
    is the index of the enclosing span in ``spans`` or -1.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._call = -1
        self._originals = []
        for module_name, attr, span_name, count in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn, self._wrap(fn, span_name, count)))

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self._call, name, start, end, parent, 0)
            if count is not None:
                spans[index] = spans[index][:5] + (count(args, result),)
            return result

        return traced

    def __enter__(self):
        self._call += 1
        self._first = len(self.spans)
        for module, attr, _, wrapper in self._originals:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, fn, _ in self._originals:
            setattr(module, attr, fn)
        return False

    def last_call_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded by the last call."""
        metrics = layer_metrics(self.spans[self._first:], self._first)
        metrics["trace.spans"] = float(len(self.spans) - self._first)
        return metrics

    def write(self, path) -> None:
        keys = ("call", "name", "start", "end", "parent", "count")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"keys": keys, "spans": self.spans}, fh)


def _sum(rows, names, field):
    if field == "calls":
        return float(sum(1 for r in rows if r["name"] in names))
    return float(sum(r[field] for r in rows if r["name"] in names))


def _self_time(rows, layer):
    return float(sum(r["self"] for r in rows if r["name"].startswith(layer + ".")))


# metric -> (unit, span names, field summed over them); field "self" sums
# the self time of every span whose name starts with the layer.
LAYER_METRICS = {
    "cli.self_s": ("s", "cli", "self"),
    "io.ingest_s": ("s", ("io.ingest",), "dur"),
    "io.ingest_bytes": ("bytes", ("io.ingest",), "count"),
    "io.sha256_s": ("s", ("io.sha256",), "dur"),
    "io.report_s": ("s", ("io.report_to_dict", "io.curve_to_dict", "io.dump_json"), "dur"),
    "io.write_masked_csv_s": ("s", ("io.write_masked_csv",), "dur"),
    "io.write_curve_s": ("s", ("io.write_curve_csv",), "dur"),
    "io.bytes_written": ("bytes", ("io.dump_json", "io.write_masked_csv", "io.write_curve_csv"), "count"),
    "core.standardize_s": ("s", ("core.standardize",), "dur"),
    "core.kurtosis_s": ("s", ("core.kurtosis",), "dur"),
    "core.hc_profile_s": ("s", ("core.hc_profile",), "dur"),
    "core.hc_test_statistic_s": ("s", ("core.hc_test_statistic",), "dur"),
    "core.self_s": ("s", "core", "self"),
    "backend.two_sided_p_s": ("s", ("backend.two_sided_p",), "dur"),
    "backend.two_sided_p_samples": ("count", ("backend.two_sided_p",), "count"),
    "backend.ndtri_s": ("s", ("backend.ndtri",), "dur"),
    "backend.ndtri_samples": ("count", ("backend.ndtri",), "count"),
    "cluster.best_model_s": ("s", ("cluster.best_model",), "dur"),
    "cluster.kmeans_1d_s": ("s", ("cluster.kmeans_1d",), "dur"),
    "cluster.kmeans_1d_calls": ("count", ("cluster.kmeans_1d",), "calls"),
    "cluster.thresholds_from_s": ("s", ("cluster.thresholds_from",), "dur"),
    "detector.detect_s": ("s", ("detector.detect",), "dur"),
    "detector.self_s": ("s", "detector", "self"),
    "detector.localize_s": ("s", ("detector.localize",), "dur"),
    "detector.localize_calls": ("count", ("detector.localize",), "calls"),
    "detector.segments": ("count", ("detector.localize",), "count"),
    "detector.mask_s": ("s", ("detector.mask",), "dur"),
    "simlab.mc_hc_s": ("s", ("simlab.mc_hc",), "dur"),
    "simlab.sample_s": ("s", ("simlab.sample",), "dur"),
    "simlab.self_s": ("s", "simlab", "self"),
    "simlab.replicates": ("count", ("simlab.mc_hc",), "count"),
}


def layer_metrics(spans, offset: int = 0) -> dict[str, float]:
    """Sum each layer metric over the spans of one call.

    ``offset`` is the index of ``spans[0]`` in the full span list, so that
    parent indices can be resolved within the slice.
    """
    rows = [
        {"name": s[1], "dur": s[3] - s[2], "count": s[5], "self": s[3] - s[2]}
        for s in spans
    ]
    for s, row in zip(spans, rows):
        if s[4] >= offset:
            rows[s[4] - offset]["self"] -= row["dur"]
    out = {}
    for metric, (_, names, field) in LAYER_METRICS.items():
        if field == "self":
            out[metric] = _self_time(rows, names)
        else:
            out[metric] = _sum(rows, names, field)
    return out
