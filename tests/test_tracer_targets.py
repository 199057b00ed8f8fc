"""Every function the benchmark's layer tracer wraps still exists.

``perfbench/tracer.py`` resolves each ``TARGETS`` entry at its defining
module with ``vars(owner)[name]``, so deleting or renaming one of those
functions makes every traced benchmark run fail with a ``KeyError``.
The tracer imports only the standard library, so it is loaded here from
its file.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("orthoate_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module_name, attr, span", tracer.TARGETS, ids=[t[2] for t in tracer.TARGETS])
def test_target_resolves_at_its_defining_module(module_name, attr, span):
    importlib.import_module(module_name)
    owner, leaf = tracer._resolve(module_name, attr)
    assert leaf in vars(owner), f"{module_name}.{attr} is gone; the tracer would raise KeyError"
    assert callable(vars(owner)[leaf])
