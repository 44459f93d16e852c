"""The three workloads: how their inputs are made from the seed, which CLI
calls they time, and how each call's outputs are checked.

Every call of a workload does the same amount of work, so the median call
time does not depend on which inputs a seed happens to pick.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import checks


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def spike_onsets(rng: np.random.Generator, m: int, count: int, spacing: int = 220) -> np.ndarray:
    """Onsets of ``count`` spikes, more than ``spacing`` samples apart."""
    slots = m // spacing - 2
    onsets = rng.permutation(slots)[:count] * spacing + 300
    onsets.sort()
    return onsets


def recording(rng: np.random.Generator, m: int, spikes: int, amplitude: float, width: int):
    """Unit Gaussian noise with constant-amplitude ``width``-sample spikes."""
    x = rng.standard_normal(m)
    onsets = spike_onsets(rng, m, spikes)
    for loc in onsets:
        x[loc : loc + width] += amplitude
    return x, onsets


class DetectRaw:
    """``detect`` on raw float64 recordings, writing report and masked CSVs."""

    name = "detect-raw-1e6"
    m = 1_000_000
    inputs = 2
    spikes, amplitude, width, window = 20, 12.0, 5, 50

    def prepare(self, seed: int, work: Path) -> None:
        self.work = work
        self.recordings = []
        for i in range(self.inputs):
            x, onsets = recording(_rng(seed, 1, i), self.m, self.spikes, self.amplitude, self.width)
            path = work / f"in{i}.bin"
            x.astype("<f8").tofile(path)
            mom = checks.moments(x)
            self.recordings.append((path, x, onsets, mom, checks.profile(x, mom)))
        warm, _ = recording(_rng(seed, 1, 99), self.m // 10, 2, self.amplitude, self.width)
        warm.astype("<f8").tofile(work / "warm.bin")

    def _argv(self, path: Path) -> list[str]:
        return [
            "detect", "--input", str(path), "--format", "raw_f64_le",
            "--window", str(self.window), "--seed", "0",
            "--out", str(self.work / "report.json"),
            "--masked-csv", str(self.work / "masked"),
        ]

    def warmup(self) -> list[list[str]]:
        return [self._argv(self.work / "warm.bin")]

    def call(self, i: int) -> list[str]:
        for old in self.work.glob("masked_t*.csv"):
            old.unlink()
        return self._argv(self.recordings[i % self.inputs][0])

    def samples_per_call(self) -> int:
        return self.m

    def check(self, i: int, reply: dict) -> None:
        _, x, onsets, mom, prof = self.recordings[i % self.inputs]
        doc = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
        masked = [
            (self.work / f"masked_t{t}.csv").read_text(encoding="utf-8")
            for t in range(len(list(self.work.glob("masked_t*.csv"))))
        ]
        checks.check_detect(doc, masked, x, mom, prof, onsets, self.width, self.window)


class StatsCsv:
    """``stats`` on time/value CSV recordings of a fixed length."""

    name = "stats-csv-1e5"
    m = 100_000
    inputs = 4
    rate_hz = 30_000.0
    spikes, amplitude, width = 5, 12.0, 5
    offset, scale = 1e4, 3.0
    warmup_calls = 8

    def prepare(self, seed: int, work: Path) -> None:
        self.recordings = []
        t = (np.arange(self.m) / self.rate_hz).tolist()
        for i in range(self.inputs):
            x, _ = recording(_rng(seed, 2, i), self.m, self.spikes, self.amplitude, self.width)
            x = self.offset + self.scale * x
            path = work / f"in{i}.csv"
            path.write_text(
                "time,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t, x.tolist())),
                encoding="utf-8",
            )
            data_lines = len(path.read_text(encoding="utf-8").splitlines()) - 1
            mom = checks.moments(x)
            self.recordings.append((path, x, mom, checks.profile(x, mom), data_lines))

    def call(self, i: int) -> list[str]:
        path = self.recordings[i % self.inputs][0]
        return ["stats", "--input", str(path), "--format", "csv_time_value"]

    def warmup(self) -> list[list[str]]:
        return [self.call(i) for i in range(self.warmup_calls)]

    def samples_per_call(self) -> int:
        return self.m

    def check(self, i: int, reply: dict) -> None:
        _, x, mom, prof, data_lines = self.recordings[i % self.inputs]
        checks.check_stats(json.loads(reply["stdout"]), x, mom, prof, data_lines)


class SimulateSparse:
    """Whole ``simulate-sparse`` sweeps with a master seed fixed per run."""

    name = "simulate-sparse-sweep"
    eps = (0.01, 0.05)
    mu = (1.5, 3.0)
    kinds = ("sparse_mixture", "sparse_sum")
    grid_spec = (100, 100_000, 8)
    replicates = 10
    hysteresis = 2

    def prepare(self, seed: int, work: Path) -> None:
        self.work = work
        self.seed = seed
        start, stop, points = self.grid_spec
        self.grid = sorted({int(round(g)) for g in np.geomspace(start, stop, points)})
        self.specs = [(k, e, u) for k in self.kinds for e in self.eps for u in self.mu]
        # one grid cell per spec, a different cell for each spec
        self.expected = {}
        for s, (kind, eps, mu) in enumerate(self.specs):
            cell = s % len(self.grid)
            m = self.grid[cell]
            stats = [
                checks.sweep_statistic(kind, eps, mu, m, seed, r) for r in range(self.replicates)
            ]
            self.expected[s] = (cell, math.fsum(stats) / len(stats))
        self.first_payload = None

    def _argv(self, replicates: int) -> list[str]:
        start, stop, points = self.grid_spec
        return [
            "simulate-sparse", "--variant", "both",
            "--eps", ",".join(map(str, self.eps)), "--mu", ",".join(map(str, self.mu)),
            "--m-grid", f"geom:{start}:{stop}:{points}",
            "--replicates", str(replicates), "--hysteresis", str(self.hysteresis),
            "--seed", str(self.seed), "--threads", "1",
            "--out", str(self.work / "curve.csv"),
        ]

    def warmup(self) -> list[list[str]]:
        return [self._argv(2)]

    def call(self, i: int) -> list[str]:
        return self._argv(self.replicates)

    def samples_per_call(self) -> int:
        return self.replicates * len(self.specs) * sum(self.grid)

    def replicates_per_call(self) -> int:
        return self.replicates * len(self.specs) * len(self.grid)

    def check(self, i: int, reply: dict) -> None:
        csv_text = (self.work / "curve.csv").read_text(encoding="utf-8")
        doc = json.loads((self.work / "curve.json").read_text(encoding="utf-8"))
        checks.check_sweep(csv_text, doc, self.specs, self.grid, self.expected, self.hysteresis)
        current = (checks.payload(csv_text), checks.json_payload(doc))
        if self.first_payload is None:
            self.first_payload = current
        elif current != self.first_payload:
            raise checks.CheckError("sweep payload differs from the first sweep with the same seed")


WORKLOADS = {w.name: w for w in (DetectRaw, StatsCsv, SimulateSparse)}
