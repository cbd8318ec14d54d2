"""The benchmark's tracer must find every function it traces.

`bench/tracer.py` leaves a traced name that the library no longer defines
out of its report, so a deleted or renamed function would go unnoticed
there; this test fails instead.
"""

import importlib.util
import sys
from pathlib import Path

from voicing import analysis, dsp, segmentation, synthesis

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined():
    modules = (analysis, dsp, segmentation, synthesis)
    before = [dict(vars(mod)) for mod in modules]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    for mod, names in zip(modules, before):
        assert all(vars(mod)[name] is value for name, value in names.items())
