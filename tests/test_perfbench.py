"""The benchmark's tracer wraps pref2d functions by name; these tests keep
every wrapped name alive, so deleting or renaming one fails here and not
only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pref2d.cli as cli
from pref2d import embedding, geometry, heuristic, profiles

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    """A `perfbench` script loaded by path, registered while the test runs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_wrapped_and_restored(monkeypatch):
    tracer_module, workloads = load("tracer", monkeypatch), load("workloads", monkeypatch)
    modules = (cli, embedding, geometry, heuristic, profiles)
    before = {m: dict(vars(m)) for m in modules}
    tracer = tracer_module.Tracer()
    try:
        workloads.trace_search(tracer)
        workloads.trace_batch(tracer)
        workloads.trace_audit(tracer)
        wrapped = {
            (m.__name__, k) for m in modules for k, v in vars(m).items() if v is not before[m][k]
        }
    finally:
        tracer.close()
    assert ("pref2d.geometry", "circle_intersections") in wrapped
    assert ("pref2d.heuristic", "sample_free_area") in wrapped
    for m in modules:
        after = vars(m)
        assert after.keys() == before[m].keys()
        assert all(after[k] is v for k, v in before[m].items())
