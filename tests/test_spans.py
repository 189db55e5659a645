"""The benchmark's layer tracer (perfbench/spans.py) wraps fedcost functions
by name: each one it names must exist, or a traced benchmark run fails."""

import importlib
import importlib.util
import os

import fedcost.cli  # the tracer patches the fedcost modules already loaded

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_fedcost():
    spans = load_spans()
    missing = [
        f"{module}.{name}"
        for module, name in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"fedcost.{module}"), name, None))
    ]
    assert not missing, missing


def test_tracer_installs_and_uninstalls():
    tracer = load_spans().Tracer()
    original = fedcost.cli.optimizer.grid_search
    tracer.install()
    try:
        assert fedcost.cli.optimizer.grid_search is not original
    finally:
        tracer.uninstall()
    assert fedcost.cli.optimizer.grid_search is original
