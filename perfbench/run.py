#!/usr/bin/env python3
"""hcdetect benchmark: one workload per run, driven through the CLI.

    python3 perfbench/run.py --workload detect-raw-1e6 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from the
checkout's ``src`` directory; nothing needs to be built or installed.

One closed-loop client (this process) sends one call at a time to one
workload process (``worker.py``), which runs ``hcdetect.cli.main``
in-process with ``--threads 1`` and times only the call. Inputs are made
from ``--seed``. After each call this process checks the outputs against
computations made apart from the program (``checks.py``); the checks are
not timed. Calls run until their summed time reaches ``--seconds``.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` every other call runs with spans recorded
(``spans.py``) and the metrics are the per-layer ones, plus the tracing
overhead. Each run writes a record of its environment and call times to
``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_FIRST = 3  # set-up samples before the warm-up
SETUP_EVERY_S = 2.5  # then one more per this much call time, spread over the run
WALL_LIMIT_S = 150.0  # stop starting calls so that a run ends well within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


def setup_sample() -> float:
    """Wall time of a fresh interpreter that imports hcdetect and chooses
    its backend, as every CLI invocation does."""
    argv = [sys.executable, "-c", "import hcdetect; hcdetect.backend_name()"]
    start = time.perf_counter()
    subprocess.run(argv, env=_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


class Worker:
    """The workload process and its line protocol."""

    def __init__(self, traced: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC), "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
        )

    def request(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run(workload, seed: int, seconds: float, traced: bool, work: Path, record: dict) -> dict:
    started = time.perf_counter()
    setup_sample()  # the first start compiles the bytecode cache
    setup = [setup_sample() for _ in range(SETUP_FIRST)]
    workload.prepare(seed, work)
    worker = Worker(traced)
    try:
        for argv in workload.warmup():
            reply = worker.request(argv=argv)
            if reply["rc"] != 0:
                raise RuntimeError(f"warm-up call failed ({reply['rc']}): {reply['stderr']}")
        calls, failures, layers = [], [], []
        elapsed = 0.0
        while True:
            i = len(calls)
            trace_this = traced and i % 2 == 0
            reply = worker.request(argv=workload.call(i), traced=trace_this)
            ok = reply["rc"] == 0
            if ok:
                try:
                    workload.check(i, reply)
                except checks.CheckError as exc:
                    ok = False
                    failures.append(f"call {i}: check failed: {exc}")
                except Exception as exc:  # malformed output: a failed call, not a crash
                    ok = False
                    failures.append(f"call {i}: unreadable output: {exc!r}")
            else:
                failures.append(f"call {i}: exit {reply['rc']}: {reply['stderr'].strip()}")
            calls.append({"seconds": reply["seconds"], "traced": trace_this, "ok": ok})
            if trace_this:
                layers.append(reply["layers"])
            elapsed += reply["seconds"]
            while len(setup) < SETUP_FIRST + elapsed // SETUP_EVERY_S:
                setup.append(setup_sample())
            typical = statistics.median(c["seconds"] for c in calls)
            wall = time.perf_counter() - started
            if traced and len(calls) < 2:
                continue
            if elapsed + 0.5 * typical >= seconds or wall + 2 * typical > WALL_LIMIT_S:
                break
        trace_path = HERE / "_runs" / f"spans-{workload.name}-seed{seed}.json"
        final = worker.request(finish=True, trace_path=str(trace_path))
    finally:
        worker.close()

    record["env"] = {**final["env"], "nproc": os.cpu_count(), "seed": seed,
                     "workload": workload.name, "trace": int(traced)}
    record["calls"] = calls
    record["setup_samples"] = setup
    record["failures"] = failures
    plain = [c["seconds"] for c in calls if not c["traced"]]
    if traced:
        spans = [c["seconds"] for c in calls if c["traced"]]
        metrics = {
            name: (unit, statistics.fmean(call[name] for call in layers))
            for name, (unit, _, _) in LAYER_METRICS.items()
        }
        metrics["trace.spans"] = ("count", statistics.fmean(call["trace.spans"] for call in layers))
        metrics["trace.overhead_s"] = ("s", statistics.median(spans) - statistics.median(plain))
        record["spans_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": ("s", statistics.median(setup)),
            "call_s": ("s", statistics.median(plain)),
            "samples_per_s": ("1/s", workload.samples_per_call() * len(plain) / sum(plain)),
            "peak_rss_mb": ("MB", final["peak_rss_mb"]),
        }
        if len(plain) >= 100:
            record["call_p90_s"] = statistics.quantiles(plain, n=10)[-1]
        if hasattr(workload, "replicates_per_call"):
            record["replicates_per_s"] = workload.replicates_per_call() * len(plain) / sum(plain)
    return {
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "hcdetect" / "__init__.py").is_file():
        print(f"run.py: no hcdetect sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    (HERE / "_runs").mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    record = {"args": vars(args)}
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["result"] = result
    out = HERE / "_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("# env " + json.dumps(record["env"]))
    extra = {k: record[k] for k in ("call_p90_s", "replicates_per_s") if k in record}
    if extra:
        print("# also " + json.dumps(extra))
    for failure in record["failures"]:
        print("# " + failure)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
