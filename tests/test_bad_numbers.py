"""The bad-number contract, swept over every numeric config key: a command
either succeeds with finite artifacts, or exits 1 with one diagnostic and
creates nothing."""

import csv
import math
import shutil

from conftest import usable_cpus
from fedcost.cli import main
from fedcost.config import SCHEMA


def _numeric(parse):
    for text in ("1", "2"):  # gamma takes only [0, 1], dataset.classes only >= 2
        try:
            return isinstance(parse(text), (int, float))
        except ValueError:
            pass
    return False


NUMERIC_KEYS = [key for key, (parse, _) in SCHEMA.items() if _numeric(parse)]
BAD_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "5e-324"]

BASE = {
    "seed": "5",
    "gamma": "0.5",
    "dataset.kind": "synthetic",
    "dataset.n_clients": "4",
    "dataset.size_mean": "40",
    "dataset.size_std": "10",
    "train.max_rounds": "3",
    "train.batch_size": "32",
    "train.target_loss": "0.5",
    "control.e_max": "20",
}
PLAN = {
    "estimate.pairs": "1:2 2:4 4:8",
    "estimate.loss_a": "2.0",
    "estimate.loss_b": "1.5",
    "estimate.round_cap": "3",
}
# (command, config keys beyond BASE, the artifacts a success writes)
CASES = [
    ("run", {"mode": "fixed", "control.k": "2", "control.e": "2"}, ["traces.csv"]),
    ("run", {"mode": "grid", "rho": "500"}, ["solution.csv", "traces.csv"]),
    ("run", {"mode": "optimize", **PLAN}, ["estimation.csv", "solution.csv", "traces.csv"]),
    ("optimize", {"rho": "500"}, ["solution.csv"]),
    ("estimate", PLAN, ["estimation.csv", "solution.csv"]),
    ("compare-schedulers", {"sweep.variable": "k", "sweep.values": "1 2 4", "sweep.e": "2"},
     ["schedulers.csv"]),
    ("validate-properties", {"rho": "500"}, ["properties.csv"]),
    ("cost-surface", {"rho": "500"}, ["cost_surface.csv"]),
]


def _non_finite_cells(path):
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    number = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(number):
                    yield cell


def _violation(code, err, out, artifacts):
    """Why one command run breaks the contract, or None."""
    lines = err.splitlines()
    if code == 0:
        stray = [line for line in lines if not line.startswith("warning: R*=")]
        files = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if stray or files != sorted(artifacts):
            return f"exit 0, stderr {stray}, files {files}"
        bad = [c for name in artifacts for c in _non_finite_cells(out / name)]
        return f"exit 0 with cells {sorted(set(bad))}" if bad else None
    one_line = lines and lines[0].startswith("error: ") and all(
        line.startswith("  - ") for line in lines[1:]
    )
    if code != 1 or not one_line or out.exists():
        return f"exit {code}, stderr {lines}, output directory {out.exists()}"
    return None


def test_every_bad_number_ends_in_success_or_one_error_line(tmp_path, capsys, monkeypatch):
    usable_cpus(monkeypatch, 1)  # no pilot or sweep point forks
    cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
    failures = []
    for key in NUMERIC_KEYS:
        for value in BAD_VALUES:
            for command, extra, artifacts in CASES:
                config = {**BASE, **extra, key: value}
                if "rho" in config and command != "estimate":  # rho replaces the pilots
                    artifacts = [a for a in artifacts if a != "estimation.csv"]
                cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
                try:
                    code = main([command, "--config", str(cfg), "--out", str(out)])
                except Exception as exc:  # a RuntimeWarning, as pytest raises it
                    code = f"{type(exc).__name__}: {exc}"
                err = capsys.readouterr().err
                why = _violation(code, err, out, artifacts)
                if why is not None:
                    failures.append(f"{command} {extra.get('mode', '')} {key} = {value}: {why}")
                shutil.rmtree(out, ignore_errors=True)
    assert failures == []
