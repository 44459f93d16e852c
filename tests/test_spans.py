"""The traced benchmark run wraps library names by module attribute
(``perfbench/spans.py`` ``WRAPS``); each of them must keep resolving."""

import importlib
import importlib.util

from conftest import REPO


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = _load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.WRAPS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
    # Constructing the tracer looks every name up and patches nothing.
    before = [getattr(importlib.import_module(m), a) for m, a, _, _ in spans.WRAPS]
    spans.Tracer()
    after = [getattr(importlib.import_module(m), a) for m, a, _, _ in spans.WRAPS]
    assert all(x is y for x, y in zip(before, after))
