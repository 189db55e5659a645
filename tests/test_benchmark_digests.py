"""The benchmark's workloads (perfbench/run.py), run in-process at its
reference seed: each artifact must match perfbench/reference_digests.json, so
a change that moves a benchmark artifact fails here, not only in the
benchmark.  Neither workload's rho, if it estimates one, leaves out a pilot
pair, so stderr holds at most the R* warning."""

import importlib.util
import json
import os

import pytest

from fedcost.cli import main

RUN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = load_run()


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_workload_artifacts_match_the_reference_digests(tmp_path, monkeypatch, capsys, name):
    with open(RUN.REFERENCE_PATH) as fh:
        reference = json.load(fh)
    workload = RUN.WORKLOADS[name]
    cfg = tmp_path / f"{name}.cfg"
    if workload["config"] is not None:
        cfg.write_text(workload["config"])
    monkeypatch.chdir(RUN.ROOT)  # the shipped configs are named relative to the checkout
    out = tmp_path / "out"
    for argv in workload["commands"]:
        argv = [arg.replace("{cfg}", str(cfg)) for arg in argv]
        assert main(argv + ["--seed", str(reference["seed"]), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(workload["artifacts"])
    digests = {artifact: RUN.sha256(out / artifact) for artifact in workload["artifacts"]}
    assert digests == reference["workloads"][name]
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if not line.startswith("warning: R*=")] == []
