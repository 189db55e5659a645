"""The benchmark's layer tracer (perfbench/spans.py) wraps fedcost functions
by name and reads some of their arguments and results: each one it names
must exist and keep its shape, or a traced benchmark run fails."""

import csv
import importlib
import importlib.util
import json
import os

import fedcost.cli  # the tracer patches the fedcost modules already loaded
from conftest import usable_cpus

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def load_perfbench(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_fedcost():
    spans = load_perfbench("spans")
    missing = [
        f"{module}.{name}"
        for module, name in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"fedcost.{module}"), name, None))
    ]
    assert not missing, missing


def test_tracer_installs_and_uninstalls():
    tracer = load_perfbench("spans").Tracer()
    original = fedcost.cli.optimizer.grid_search
    tracer.install()
    try:
        assert fedcost.cli.optimizer.grid_search is not original
    finally:
        tracer.uninstall()
    assert fedcost.cli.optimizer.grid_search is original


# a 6-client fleet: two pilots, the final run and two sweep points
TRACED_CONFIG = """
seed = 5
gamma = 0.5
mode = optimize
dataset.kind = synthetic
dataset.n_clients = 6
dataset.size_mean = 40
dataset.size_std = 10
system.t_p_mean = 0.5
system.t_p_std = 0.1
system.jitter = 0.1
train.max_rounds = 40
train.batch_size = 32
train.target_loss = 1.9
estimate.pairs = 1:2 3:8
estimate.loss_a = 1.6
estimate.loss_b = 1.2
estimate.round_cap = 300
sweep.variable = k
sweep.values = 2 6
sweep.e = 5
"""


def test_a_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 1)  # the pilots and sweep points train in this process
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TRACED_CONFIG)
    tracer = load_perfbench("spans").Tracer()
    tracer.install()
    try:
        codes = [
            fedcost.cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
            for command in ("run", "compare-schedulers")
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]

    report = tracer.report()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(report) == listed - set(load_perfbench("run").RUN_LAYER_METRICS)

    with open(tmp_path / "run" / "estimation.csv", newline="") as fh:
        pilots = list(csv.DictReader(fh))
    assert report["optimizer.acs_optimize.sweeps"] >= 1
    assert report["learner.run_fedavg.calls"] == len(pilots) + 1 + 2  # + final run + sweep
    assert report["optimizer.pilot_steps"] == sum(
        int(p["pilot_k"]) * int(p["pilot_e"]) * int(p["rounds_to_loss_b"]) for p in pilots
    )
