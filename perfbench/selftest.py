#!/usr/bin/env python3
"""Self-test of the output checks: each accepts the program's own output
and rejects a perturbed copy of it.

    python3 perfbench/selftest.py

Runs small versions of the three workloads through ``hcdetect.cli.main``
(about ten seconds), then perturbs one thing at a time: a shifted segment,
an altered statistic, one changed payload byte. Exits non-zero if a check
rejects a genuine output or accepts a perturbed one.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from hcdetect.cli import main as cli  # noqa: E402
from workloads import DetectRaw, SimulateSparse, StatsCsv  # noqa: E402

SEED = 0
failures = []


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli(argv)
    if rc != 0:
        raise SystemExit(f"selftest: hcdetect {argv[0]} exited {rc}")
    return out.getvalue()


def expect(label: str, accept: bool, check) -> None:
    try:
        check()
        rejected = None
    except checks.CheckError as exc:
        rejected = exc
    if accept == (rejected is None):
        print(f"PASS {label}" + (f" ({rejected})" if rejected else ""))
    else:
        print(f"FAIL {label}" + (f" ({rejected})" if rejected else ""))
        failures.append(label)


def edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def change_byte(path: Path, row: int) -> None:
    """Change the last digit of payload row ``row`` (0 = the header)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    at = [i for i, ln in enumerate(lines) if not ln.startswith("#")][row]
    text = lines[at].rstrip("\n")
    lines[at] = text[:-1] + ("1" if text[-1] != "1" else "2") + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def detect_cases(work: Path) -> None:
    w = DetectRaw()
    w.m, w.inputs, w.spikes = 100_000, 1, 10
    w.prepare(SEED, work)
    report = work / "report.json"
    genuine = {}

    def fresh():
        for path, text in genuine.items():
            path.write_text(text, encoding="utf-8")

    run_cli(w.call(0))
    for path in [report, *sorted(work.glob("masked_t*.csv"))]:
        genuine[path] = path.read_text(encoding="utf-8")
    check = lambda: w.check(0, {})  # noqa: E731
    expect("detect: genuine output accepted", True, check)

    def shift(doc):
        seg = doc["thresholds"][0]["segments"][0]
        seg["start"] += 1
        seg["end"] += 1

    for label, edit in [
        ("detect: shifted segment", shift),
        ("detect: altered hc_max", lambda d: d["hc"].update(hc_max=d["hc"]["hc_max"] * (1 + 1e-6))),
        ("detect: altered peak_index", lambda d: d["thresholds"][0]["segments"][0].update(
            peak_index=d["thresholds"][0]["segments"][0]["peak_index"] + 1)),
        ("detect: dropped segment", lambda d: d["thresholds"][0]["segments"].pop()),
        ("detect: altered mean", lambda d: d["stats"].update(mean=d["stats"]["mean"] + 1e-6)),
    ]:
        fresh()
        edit_json(report, edit)
        expect(label, False, check)

    fresh()
    start = json.loads(genuine[report])["thresholds"][0]["segments"][0]["start"]
    change_byte(work / "masked_t0.csv", 1 + start)
    expect("detect: one changed masked-CSV byte inside a segment", False, check)
    fresh()
    change_byte(work / "masked_t0.csv", 1)
    expect("detect: one changed masked-CSV byte outside the segments", False, check)


def stats_cases(work: Path) -> None:
    w = StatsCsv()
    w.m, w.inputs = 20_000, 1
    w.prepare(SEED, work)
    genuine = run_cli(w.call(0))
    expect("stats: genuine output accepted", True, lambda: w.check(0, {"stdout": genuine}))
    for label, key, value in [
        ("stats: altered hc_max", "hc_max", lambda v: v * (1 + 1e-6)),
        ("stats: altered mean", "mean", lambda v: v * (1 + 1e-9)),
        ("stats: altered kurtosis_raw", "kurtosis_raw", lambda v: v * (1 + 1e-9)),
        ("stats: altered m", "m", lambda v: v - 1),
    ]:
        doc = json.loads(genuine)
        doc[key] = value(doc[key])
        expect(label, False, lambda: w.check(0, {"stdout": json.dumps(doc)}))


def sweep_cases(work: Path) -> None:
    w = SimulateSparse()
    w.eps, w.mu, w.grid_spec, w.replicates = (0.05, 0.2), (3.0,), (100, 5000, 5), 4
    w.prepare(SEED, work)
    curve_csv, curve_json = work / "curve.csv", work / "curve.json"
    run_cli(w.call(0))
    genuine = {p: p.read_text(encoding="utf-8") for p in (curve_csv, curve_json)}

    def fresh():
        for path, text in genuine.items():
            path.write_text(text, encoding="utf-8")

    check = lambda: w.check(0, {})  # noqa: E731
    expect("simulate: genuine output accepted", True, check)
    expect("simulate: identical second sweep accepted", True, check)

    def bump_cell(doc):
        cell = w.expected[0][0]
        doc["points"][0]["trace"][cell]["aggregated_hc"] *= 1 + 1e-6

    def move_m_star(doc):
        point = doc["points"][0]
        grid = [pt["m"] for pt in point["trace"]]
        point["m_star"] = grid[-1] if point["m_star"] != grid[-1] else grid[0]

    for label, edit in [
        ("simulate: altered aggregated_hc", bump_cell),
        ("simulate: altered m_star", move_m_star),
    ]:
        fresh()
        edit_json(curve_json, edit)
        expect(label, False, check)
    fresh()
    change_byte(curve_csv, 1)
    expect("simulate: one changed CSV payload byte", False, check)
    fresh()
    lines = genuine[curve_csv].splitlines(keepends=True)
    lines.insert(1, "# a comment line is not payload\n")
    curve_csv.write_text("".join(lines), encoding="utf-8")
    expect("simulate: manifest-only change accepted", True, check)


def main() -> int:
    work = HERE / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    for name, cases in (("detect", detect_cases), ("stats", stats_cases), ("simulate", sweep_cases)):
        (work / name).mkdir(parents=True)
        cases(work / name)
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
