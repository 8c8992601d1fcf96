"""perfbench's tracing wraps library attributes by dotted path; each must
resolve, or a traced run fails only when the benchmark starts."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_site_resolves():
    tracing = _load_tracing()
    assert tracing.SITES
    for module_name, path, _layer, _hook in tracing.SITES:
        owner, attr = tracing._resolve(module_name, path)
        assert callable(getattr(owner, attr, None)), (module_name, path)
