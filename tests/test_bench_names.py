"""The names the benchmark tracer wraps must exist in the package.

`bench/tracer.py` patches each (module, attribute) of its `SPANS` and `HOT`
tables by name.  A renamed function would leave its metric silently empty, so
every entry must resolve to a callable in `src/dp6`, and the tracer's own
self-check must pass on the package as it is.
"""

import importlib
import importlib.util
import pathlib

import pytest

import dp6.cli  # noqa: F401  (loads every dp6 module the tracer patches)
from dp6._ratfunc import QOmega
from dp6.fieldtower import GaloisTower, VarAutomorphism

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = _tracer()
ENTRIES = [(module, attr) for _, module, attr in
           TRACER_MODULE.SPANS + TRACER_MODULE.HOT]


@pytest.mark.parametrize("module,attr", ENTRIES,
                         ids=[f"{m}:{a}" for m, a in ENTRIES])
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(obj, part), f"{module} has no {attr}"
        obj = getattr(obj, part)
    assert callable(obj)


def test_tracer_self_check_passes():
    """The traced benchmark run ends with the tracer's self-check: apply,
    norm and cancel_pair each bound in at least two dp6 modules, and every
    call through every binding counted.  A refactor that drops a binding
    fails here, not only in a traced run."""
    one = QOmega.one()
    g = VarAutomorphism([1, 2, 0, 3], [one] * 4)
    h = VarAutomorphism([0, 1, 2, 3], [one] * 3 + [-one])
    tower = GaloisTower(["x1", "x2", "x3", "y"], {"g": g, "h": h}, name="FZ")
    tracer = TRACER_MODULE.Tracer()
    tracer.install()
    try:
        problems = tracer.self_check(tower)
    finally:
        tracer.uninstall()
    assert problems == []
