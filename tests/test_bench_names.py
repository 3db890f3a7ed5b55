"""The names the benchmark tracer wraps must exist in the package.

`bench/tracer.py` patches each (module, attribute) of its `SPANS` and `HOT`
tables by name.  A renamed function would leave its metric silently empty, so
every entry must resolve to a callable in `src/dp6`.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tables():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for _, module, attr in tracer.SPANS + tracer.HOT]


ENTRIES = _tables()


@pytest.mark.parametrize("module,attr", ENTRIES,
                         ids=[f"{m}:{a}" for m, a in ENTRIES])
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(obj, part), f"{module} has no {attr}"
        obj = getattr(obj, part)
    assert callable(obj)
