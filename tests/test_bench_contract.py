"""The benchmark's tracer (bench/tracing.py) patches package functions by
name. Renaming one of them must fail here, in the unit suite, rather than in
a traced benchmark run."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _traced_functions(tracing):
    return {(module, func): getattr(
                importlib.import_module(f"multiscreen.{module}"), func)
            for module, funcs in tracing.TARGETS.items() for func in funcs}


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    originals = _traced_functions(tracing)
    uninstall = tracing.Tracer().install()
    try:
        wrapped = _traced_functions(tracing)
        for key, fn in originals.items():
            assert wrapped[key] is not fn, f"{key} was not wrapped"
            assert wrapped[key].__wrapped__ is fn
    finally:
        uninstall()
    assert _traced_functions(tracing) == originals
