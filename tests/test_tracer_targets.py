"""perfbench/tracer.py wraps qsmc entry points by module and attribute name
from outside the package.  These checks keep every name it wraps in place
and make sure that installing and removing its wrappers leaves qsmc as it
was, so that a refactor under src/ cannot silently break the traced
benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(tracer):
    """Every qsmc module and every class whose attributes the tracer may
    replace."""
    wrapped = [(importlib.import_module(modname), clsname)
               for _, modname, _, clsname, _ in tracer.LAYERS]
    owners = [mod for name, mod in list(sys.modules.items())
              if name == "qsmc" or name.startswith("qsmc.")]
    owners += [getattr(mod, clsname) for mod, clsname in wrapped if clsname]
    return list({id(o): o for o in owners}.values())


def _snapshot(owners):
    return {(id(o), key): value for o in owners for key, value in vars(o).items()}


def test_every_wrapped_target_exists(tracer):
    for layer, modname, attr, clsname, _ in tracer.LAYERS:
        mod = importlib.import_module(modname)
        if clsname is None:
            assert callable(getattr(mod, attr, None)), layer
        else:
            cls = getattr(mod, clsname, None)
            assert inspect.isclass(cls), layer
            assert callable(cls.__dict__.get(attr)), layer
    assert callable(importlib.import_module("qsmc.experiments").shared_sampler)


def test_install_and_uninstall_restore_every_original(tracer):
    owners = _owners(tracer)
    before = _snapshot(owners)
    t = tracer.Tracer()
    t.install()
    try:
        import qsmc.simulate
        assert qsmc.simulate.run is not before[(id(qsmc.simulate), "run")]
        changed = {key for key, value in _snapshot(owners).items()
                   if before.get(key) is not value}
        assert changed, "install wrapped nothing"
    finally:
        t.uninstall()
    assert _snapshot(owners).keys() == before.keys()
    assert all(value is before[key] for key, value in _snapshot(owners).items())


def test_traced_benchmark_runs(tracer):
    import qsmc
    import qsmc.cli  # noqa: F401  the tracer wraps it; its worker imports it too
    t = tracer.Tracer()
    t.install()
    try:
        rep = qsmc.aircraft_benchmark(noise=True, seeds=(1, 2))
    finally:
        t.uninstall()
    metrics = t.layer_metrics()
    assert set(rep.runs) == {"m1", "m2", "mm1", "mm2"}
    assert t.calls["experiments.benchmark"] == 1
    assert metrics["experiments.benchmark_self_s"] > 0.0
