"""The workload process: runs ``hcdetect.cli.main`` in-process on request.

Started by ``run.py`` with the checkout's ``src`` directory. It reads one
JSON request per line on stdin and answers with one JSON line on stdout:

    {"argv": [...], "traced": false}  ->  {"rc", "seconds", "stdout", "stderr", "layers"}
    {"finish": true, "trace_path": ...} ->  {"peak_rss_mb", "env"}

The CLI's own stdout and stderr are captured per call, so the protocol
stream carries nothing else. Only the call itself is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    import hcdetect
    import hcdetect.cli

    if not Path(hcdetect.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"hcdetect was imported from {hcdetect.__file__}, not {src}")
    return hcdetect


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue()


def main() -> int:
    src = Path(sys.argv[1])
    traced = sys.argv[2] == "1"
    hcdetect = _import_program(src)
    cli = hcdetect.cli
    tracer = Tracer() if traced else None
    proto = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("finish"):
            if tracer is not None:
                tracer.write(request["trace_path"])
            import numpy

            reply = {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "env": {
                    "backend": hcdetect.backend_name(),
                    "hcdetect": hcdetect.__version__,
                    "numpy": numpy.__version__,
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                },
            }
            proto.write(json.dumps(reply) + "\n")
            proto.flush()
            return 0
        layers = None
        if request.get("traced"):
            with tracer:
                rc, seconds, out, err = _run(cli, request["argv"])
            layers = tracer.last_call_metrics()
        else:
            rc, seconds, out, err = _run(cli, request["argv"])
        reply = {"rc": rc, "seconds": seconds, "stdout": out, "stderr": err, "layers": layers}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
