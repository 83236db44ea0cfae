"""The benchmark's tracer wraps library functions by name; every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` would raise."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_traced_name_resolves():
    patches = _patches()
    assert patches
    for module_name, cls_name, attr, _, _ in patches:
        module = importlib.import_module(f"planarbox.{module_name}")
        if cls_name is None:
            assert callable(getattr(module, attr, None)), f"planarbox.{module_name}.{attr}"
        else:
            # the tracer reads the class's own namespace, not an inherited one
            cls = getattr(module, cls_name, None)
            assert cls is not None and attr in cls.__dict__, f"{cls_name}.{attr}"
