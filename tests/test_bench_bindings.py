"""Every binding the benchmark's tracer wraps still exists in `src`.

`perfbench/tracing.py` wraps functions by (module, attribute) name when a
run is traced, so a renamed function or a dropped `from .x import name`
would otherwise surface only as a crash under `--trace 1`. The file is
loaded read-only here, exactly as the tracer looks names up. ROADMAP
Direction H (spans emitted from inside `src`) replaces this check together
with the `WRAPPED` table.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_binding_resolves():
    missing = []
    for module_name, attr, _ in _wrapped():
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if not callable(owner.__dict__.get(leaf)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"wrapped bindings not found: {missing}"
