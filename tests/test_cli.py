import ast
import dataclasses
import hashlib
import inspect
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import usable_cpus, write_idx, write_oversized_idx
import fedcost
from fedcost import learner
from fedcost.cli import build_dataset, main, needs_for_command
from fedcost.config import SCHEMA, ConfigError, parse_config
from fedcost.datagen import gen_synthetic
from fedcost.learner import TrainConfig
from fedcost.optimizer import EstimationPlan
from fedcost.system import averaged_costs, sample_profile


BASE = """
seed = 5
gamma = {gamma}
dataset.kind = synthetic
dataset.n_clients = 8
dataset.size_mean = 40
dataset.size_std = 10
system.t_p_mean = 0.5
system.t_p_std = 0.1
system.jitter = 0.1
train.max_rounds = 40
train.batch_size = 32
"""

FIXED = "mode = fixed\ncontrol.k = 4\ncontrol.e = 10\ntrain.target_loss = 1.9\n"
SWEEP_K = "train.target_loss = 1.9\nsweep.variable = k\nsweep.values = 1 2 4 8\nsweep.e = 10\n"

PLAN = (
    "estimate.pairs = 2:5 4:10 8:20\nestimate.loss_a = 1.6\nestimate.loss_b = 1.2\n"
    "estimate.round_cap = 300\n"
)


def write_config(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def read(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return fh.read()


def test_unknown_key_is_a_hard_error(tmp_path):
    cfg = write_config(tmp_path, "gamma = 0.5\nbogus.key = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(cfg)


def test_all_violations_are_listed(tmp_path):
    cfg = write_config(tmp_path, "gamma = 1.5\nmode = sideways\n\nrho = -2\ncontrol.k = 0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.problems == [
        "line 1: bad value for gamma: must lie in [0, 1]",
        "line 2: bad value for mode: must be one of: fixed, optimize, grid",
        "line 4: bad value for rho: must be > 0",
        "line 5: bad value for control.k: must be >= 1",
    ]


def test_missing_keys_reported_per_command(tmp_path):
    cfg = parse_config(write_config(tmp_path, "gamma = 0.5\ndataset.kind = synthetic\n"
                                              "dataset.n_clients = 4\n"))
    problems = needs_for_command(cfg, "run")
    assert any("mode" in p for p in problems)
    problems = needs_for_command(cfg, "compare-schedulers")
    assert any("sweep.variable" in p for p in problems)
    # gamma is needed exactly where a cost is priced, and then reported first
    no_gamma = {**cfg, "gamma": None, "rho": 100.0}
    for command in ("optimize", "estimate", "validate-properties", "cost-surface"):
        assert needs_for_command(no_gamma, command)[0] == "missing required key: gamma"
    assert needs_for_command({**no_gamma, "mode": "grid"}, "run")[0] == (
        "missing required key: gamma"
    )
    for command, mode in (("compare-schedulers", None), ("run", "fixed")):
        problems = needs_for_command({**no_gamma, "mode": mode}, command)
        assert "missing required key: gamma" not in problems


def test_run_fixed_mode_reaches_target(tmp_path):
    body = BASE.format(gamma=0.5) + FIXED + f"out = {tmp_path/'out'}\n"
    cfg = write_config(tmp_path, body)
    assert main(["run", "--config", cfg]) == 0
    lines = read(tmp_path / "out", "traces.csv").splitlines()
    last_loss = float(lines[-1].split(",")[1])
    assert last_loss <= 1.9


def test_optimize_gamma_one_reports_k_star_one(tmp_path):
    body = BASE.format(gamma=1.0) + f"rho = 1850\nout = {tmp_path/'out'}\n"
    cfg = write_config(tmp_path, body)
    assert main(["optimize", "--config", cfg]) == 0
    lines = read(tmp_path / "out", "solution.csv").splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert row[header.index("k_star")] == "1"


def test_reruns_are_byte_identical(tmp_path):
    body = BASE.format(gamma=0.0) + "mode = fixed\ncontrol.k = 3\ncontrol.e = 5\n"
    cfg = write_config(tmp_path, body)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", out_a]) == 0
    assert main(["run", "--config", cfg, "--out", out_b]) == 0
    assert read(out_a, "traces.csv") == read(out_b, "traces.csv")


def test_seed_override_changes_output(tmp_path):
    body = BASE.format(gamma=0.0) + "mode = fixed\ncontrol.k = 3\ncontrol.e = 5\n"
    cfg = write_config(tmp_path, body)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", out_a]) == 0
    assert main(["run", "--config", cfg, "--out", out_b, "--seed", "99"]) == 0
    assert read(out_a, "traces.csv") != read(out_b, "traces.csv")


def test_compare_schedulers_dominance_and_k1_equality(tmp_path):
    body = BASE.format(gamma=0.0) + SWEEP_K + f"out = {tmp_path/'out'}\n"
    cfg = write_config(tmp_path, body)
    assert main(["compare-schedulers", "--config", cfg]) == 0
    lines = read(tmp_path / "out", "schedulers.csv").splitlines()
    assert lines[0] == "strategy,sweep_variable,sweep_value,total_time_s,rounds,reached"
    table = {}
    for line in lines[1:]:
        strategy, _, value, total, _, reached = line.split(",")
        table[(strategy, int(value))] = float(total)
        assert reached == "true"
    for value in (1, 2, 4, 8):
        assert table[("optimal-ts", value)] <= table[("wait-all-ts", value)] + 1e-9
        assert table[("optimal-ts", value)] <= table[("static-fs", value)] + 1e-9
    assert table[("optimal-ts", 1)] == pytest.approx(table[("wait-all-ts", 1)])
    assert table[("optimal-ts", 1)] == pytest.approx(table[("static-fs", 1)])


def sha256(out_dir, name):
    with open(os.path.join(out_dir, name), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_artifacts_match_recorded_digests(tmp_path):
    # digests of the artifacts as written when every strategy retrained its own
    # trajectory: pricing one shared trajectory must not change a byte
    run_cfg = write_config(tmp_path, BASE.format(gamma=0.5) + FIXED, "run.cfg")
    cmp_cfg = write_config(tmp_path, BASE.format(gamma=0.0) + SWEEP_K, "cmp.cfg")
    out = str(tmp_path / "out")
    assert main(["run", "--config", run_cfg, "--out", out]) == 0
    assert main(["compare-schedulers", "--config", cmp_cfg, "--out", out]) == 0
    assert sha256(out, "traces.csv") == (
        "5756a553320a3a464b03a887cfd9982015c3e12a915418ec2cb9ba715c454f9d"
    )
    assert sha256(out, "schedulers.csv") == (
        "9edebfa995d89f94bcfc0b916f39fdba3736aa5c60f300713154a10cbbac5b80"
    )


def test_pilot_artifacts_match_recorded_digests(tmp_path):
    # digests recorded when the pilots took their own batch size, step size
    # and seed, not the run's training settings
    est_cfg = write_config(tmp_path, BASE.format(gamma=0.5) + PLAN, "est.cfg")
    grid_cfg = write_config(tmp_path, BASE.format(gamma=0.0) + PLAN + "mode = grid\n", "grid.cfg")
    est, grid = str(tmp_path / "est"), str(tmp_path / "grid")
    assert main(["estimate", "--config", est_cfg, "--out", est]) == 0
    assert main(["run", "--config", grid_cfg, "--out", grid]) == 0
    pilots = "017cf81fa40f81519aca730bfce09d54bf1f583bf0ace56d46cd4d7849a4efb6"
    assert sha256(est, "estimation.csv") == pilots
    assert sha256(grid, "estimation.csv") == pilots
    # re-recorded when predicted_cost became cost_report's total_cost: only
    # its last digits moved, 178.16778848538203 -> 178.16778848538206
    assert sha256(est, "solution.csv") == (
        "40976fe1ce61ca9d8f27e7a77c56b147456057c8840594e0129714bb5a6ee8d1"
    )
    assert sha256(grid, "solution.csv") == (
        "20f2ec1cba1d72880892cd8ce09e84935f9582e7d9636c6cbb5db0483934aa9f"
    )


def test_overhead_ratio_divides_by_the_written_solution(tmp_path):
    # e_max = 3 keeps the grid off ACS's (1, 4, 162): the ratio must use the
    # grid's row, pilot steps / (K* E* R*)
    cfg = BASE.format(gamma=0.0) + PLAN + "mode = grid\ncontrol.e_max = 3\n"
    out = str(tmp_path / "out")
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    pilots = [[int(v) for v in line.split(",")] for line in read(out, "estimation.csv").split()[1:]]
    header, row = (line.split(",") for line in read(out, "solution.csv").split())
    sol = dict(zip(header, row))
    assert (sol["k_star"], sol["e_star"]) == ("1", "3")
    steps = sum(k * e * r_b for k, e, _, r_b in pilots)
    k, e, r = (int(sol[name]) for name in ("k_star", "e_star", "r_star"))
    assert float(sol["overhead_ratio"]) == steps / (k * e * r)


FLEET = """
seed = 11
gamma = 0.3
dataset.kind = synthetic
dataset.size_mean = 30
dataset.size_std = 10
system.t_p_std = 0.2
control.e_max = 60
"""
N12 = "dataset.n_clients = 12\nrho = 900\n"
N3 = "dataset.n_clients = 3\nrho = 2\nsystem.t_m_mean = 0.05\n"


@pytest.mark.parametrize(
    "fleet, digests",
    [
        # N = 12: every property passes; ACS rounds E between 4 and 5 at K = 1.
        # solution.csv was re-recorded when predicted_cost became cost_report's
        # total_cost: 368.6200995278382 -> 368.62009952783814, the objective
        # cost_surface.csv writes at (1, 4)
        (
            N12,
            (
                "158ac3cfa889c43f70ba741eb59bf0c4564ce933c424a3eba226ca57d42d7d1e",
                "36ddae758c584409533b6f7d35893e2110cce678e76e55779030c2ad3d121ae8",
                "f57f35c8ee0090095986c41f4744162894768b2496c547feebfaaeffe323e96f",
            ),
        ),
        # N = 3: the unimodality check skips K = 5 and 10, E* is solved at
        # K = 3, and ACS rounds K between 2 and 3.  K* clamps at N and E* at 1,
        # so nine properties fail on the clamp, not on the model: comparing
        # the unclamped optima will re-record this properties.csv digest as a
        # named bugfix.
        (
            N3,
            (
                "6b3da81d0495f347fcc463bbc14ff9bee3fffa45a7ece80ed2f23544c92d00b3",
                "286f0f10b0a5cad20f396df701014caf4098334ab62946d5c962ab3801f2b41b",
                "ab090b94fafba93b60ec6271a9e62ff9e98116d053676e35f6b61f8bbc04255d",
            ),
        ),
    ],
    ids=["n12", "n3"],
)
def test_optimizer_artifacts_match_recorded_digests(tmp_path, fleet, digests):
    # digests recorded while ACS rounded through its own candidate loop and
    # verify_properties checked each property in its own block
    cfg = write_config(tmp_path, FLEET + fleet)
    out = str(tmp_path / "out")
    for command in ("validate-properties", "cost-surface", "optimize"):
        assert main([command, "--config", cfg, "--out", out]) == 0
    names = ("properties.csv", "cost_surface.csv", "solution.csv")
    assert tuple(sha256(out, name) for name in names) == digests


@pytest.mark.parametrize("fleet", [N12, N3], ids=["n12", "n3"])
@pytest.mark.parametrize("command, mode", [
    ("optimize", ""), ("run", "mode = grid\ntrain.max_rounds = 2\n"),
], ids=["optimize", "run-grid"])
def test_predicted_cost_is_the_cost_surface_objective(tmp_path, fleet, command, mode):
    # one blended-cost formula: solution.csv and cost_surface.csv write the
    # same text for the chosen cell
    cfg = write_config(tmp_path, FLEET + fleet + mode)
    out = str(tmp_path / "out")
    for name in ("cost-surface", command):
        assert main([name, "--config", cfg, "--out", out]) == 0
    header, row = (line.split(",") for line in read(out, "solution.csv").split())
    sol = dict(zip(header, row))
    cells = [line.split(",") for line in read(out, "cost_surface.csv").split()[1:]]
    objective = {(k, e): cost for k, e, cost, _, _ in cells}
    assert sol["predicted_cost"] == objective[sol["k_star"], sol["e_star"]]


IDX = """
seed = 3
gamma = 0.5
mode = fixed
dataset.kind = idx
dataset.images = {images}
dataset.labels = {labels}
dataset.n_clients = 10
dataset.labels_per_client = 2
dataset.samples_per_client = 40
train.max_rounds = 15
control.k = 4
control.e = 3
"""


def test_idx_run_matches_recorded_digests(tmp_path):
    # digests recorded when load_idx returned one object per image
    rng = np.random.default_rng(5)
    images, labels = write_idx(
        tmp_path, rng.integers(0, 256, (600, 4, 5)), rng.integers(0, 10, 600)
    )
    cfg = write_config(tmp_path, IDX.format(images=images, labels=labels))
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert sha256(out, "traces.csv") == (
        "e7e6d3e4994bdc639de2fcc8e21dbf26ac2211589b7d93a9c6cf14df77976289"
    )
    # the packed rows' bytes, recorded before the dataset CSV export went:
    # they fix every float the export wrote as its round-trip repr
    dataset = build_dataset(parse_config(cfg))
    packed = hashlib.sha256()
    for array in (dataset.features, dataset.labels, dataset.sizes):
        packed.update(array.tobytes())
    assert packed.hexdigest() == (
        "df8d6f3fec51a85c63a5aafd3d9144559d64e6e6d86b8234de3af66d829db106"
    )


def test_run_reports_an_oversized_idx_header_in_one_line(tmp_path, capsys):
    images, labels = write_oversized_idx(tmp_path)
    cfg = write_config(tmp_path, IDX.format(images=images, labels=labels))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "huge-imgs.idx" in err[0]


def test_failed_run_leaves_no_output_directory(tmp_path):
    images, labels = write_oversized_idx(tmp_path)
    cfg = write_config(tmp_path, IDX.format(images=images, labels=labels))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not os.path.exists(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "new" / "out")]) == 1
    assert not os.path.exists(tmp_path / "new")


def test_failed_run_keeps_an_existing_output_directory(tmp_path):
    images, labels = write_oversized_idx(tmp_path)
    cfg = write_config(tmp_path, IDX.format(images=images, labels=labels))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert out.is_dir()


def test_idx_dataset_build_peaks_near_the_raw_pixel_bytes(tmp_path):
    # 20,000 14x14 images, of which the partition keeps 400 rows: scaling
    # every pixel to float64 before the partition would peak at 9x the file
    rng = np.random.default_rng(6)
    images, labels = write_idx(
        tmp_path, rng.integers(0, 256, (20000, 14, 14), dtype=np.uint8),
        rng.integers(0, 10, 20000),
    )
    config = parse_config(write_config(tmp_path, IDX.format(images=images, labels=labels)))
    tracemalloc.start()
    try:
        dataset = build_dataset(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dataset.n == 400
    assert peak < 2 * 20000 * 14 * 14


@pytest.mark.parametrize("n_clients, size_mean, size_std", [(1, 40, 10), (6, 1, 0)])
def test_run_single_client_and_single_sample_shards(tmp_path, n_clients, size_mean, size_std):
    # K = N; size-1 shards take the full-batch path
    body = (
        BASE.format(gamma=0.5)
        .replace("n_clients = 8", f"n_clients = {n_clients}")
        .replace("size_mean = 40", f"size_mean = {size_mean}")
        .replace("size_std = 10", f"size_std = {size_std}")
        + f"mode = fixed\ncontrol.k = {n_clients}\ncontrol.e = 5\n"
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", write_config(tmp_path, body), "--out", out]) == 0
    rows = read(out, "traces.csv").splitlines()[1:]
    assert len(rows) == 40
    ids = ";".join(str(i) for i in range(n_clients))
    assert all(row.split(",")[4] == ids for row in rows)


def test_scheduler_only_prices_the_rounds(tmp_path):
    outs = {}
    for name in ("optimal-ts", "wait-all-ts", "static-fs"):
        body = BASE.format(gamma=0.5) + (
            f"mode = fixed\ncontrol.k = 4\ncontrol.e = 10\nscheduler = {name}\n" + PLAN
        )
        cfg = write_config(tmp_path, body, f"{name}.cfg")
        outs[name] = str(tmp_path / name)
        assert main(["run", "--config", cfg, "--out", outs[name]]) == 0
        assert main(["estimate", "--config", cfg, "--out", outs[name]]) == 0
    for name in ("estimation.csv", "solution.csv"):
        assert read(outs["optimal-ts"], name) == read(outs["wait-all-ts"], name)
        assert read(outs["optimal-ts"], name) == read(outs["static-fs"], name)
    opt = read(outs["optimal-ts"], "traces.csv").splitlines()
    wait = read(outs["wait-all-ts"], "traces.csv").splitlines()
    assert len(opt) == len(wait) == 41
    assert opt[0] == wait[0]
    for a, b in zip(opt[1:], wait[1:]):
        a, b = a.split(","), b.split(",")
        assert a[:2] + a[3:] == b[:2] + b[3:]  # round, loss, energy, ids
        assert float(a[2]) <= float(b[2])
    assert opt != wait


_IDX_FILES = {f"missing required key: dataset.{key}"
              for key in ("images", "labels", "samples_per_client")}


def test_cost_model_commands_need_no_idx_paths(tmp_path):
    body = "gamma = 0.5\nrho = 300\ndataset.kind = idx\ndataset.n_clients = 5\n"
    cfg = write_config(tmp_path, body)
    for cmd in ("validate-properties", "cost-surface", "optimize"):
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / cmd)]) == 0
    # N, the profile and the costs come from the config alone: the synthetic
    # twin solves to the same bytes
    twin = write_config(tmp_path, body.replace("= idx", "= synthetic"), "twin.cfg")
    assert main(["optimize", "--config", twin, "--out", str(tmp_path / "twin")]) == 0
    assert read(tmp_path / "optimize", "solution.csv") == read(tmp_path / "twin", "solution.csv")
    config = parse_config(cfg)
    for cmd in ("run", "estimate", "compare-schedulers"):
        assert _IDX_FILES <= set(needs_for_command(config, cmd)), cmd
    assert _IDX_FILES <= set(needs_for_command({**config, "rho": None}, "optimize"))


@pytest.mark.parametrize("command, body", [
    ("run", FIXED),
    ("run", "mode = optimize\nrho = 500\n"),
    ("run", PLAN + "mode = optimize\n"),
    ("run", "mode = grid\nrho = 500\ncontrol.e_max = 20\n"),
    ("optimize", "rho = 500\n"),
    ("optimize", PLAN),
    ("estimate", PLAN),
    ("compare-schedulers", SWEEP_K),
    ("validate-properties", "rho = 500\n"),
    ("cost-surface", "rho = 500\ncontrol.e_max = 20\n"),
], ids=["run-fixed", "run-optimize-rho", "run-optimize-plan", "run-grid", "optimize-rho",
        "optimize-plan", "estimate", "compare-schedulers", "validate-properties",
        "cost-surface"])
def test_dataset_is_built_exactly_when_an_idx_config_must_name_its_files(
        tmp_path, monkeypatch, command, body):
    # and the averaged costs exactly when a gamma-less config must name gamma
    builds, prices = [], []

    def recording_build(config):
        builds.append(command)
        return build_dataset(config)

    def recording_costs(profile, gamma):
        prices.append(command)
        return averaged_costs(profile, gamma)

    monkeypatch.setattr("fedcost.cli.build_dataset", recording_build)
    monkeypatch.setattr("fedcost.system.averaged_costs", recording_costs)
    body = BASE.format(gamma=0.5) + body
    cfg = write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    twin = parse_config(write_config(tmp_path, body.replace("= synthetic", "= idx"), "idx.cfg"))
    asks = "missing required key: dataset.images" in needs_for_command(twin, command)
    assert len(builds) == int(asks)
    asks = "missing required key: gamma" in needs_for_command({**twin, "gamma": None}, command)
    assert len(prices) == int(asks)


@pytest.mark.parametrize("command, body, artifact", [
    ("compare-schedulers", SWEEP_K, "schedulers.csv"),
    ("run", FIXED, "traces.csv"),
], ids=["compare-schedulers", "run-fixed"])
def test_commands_that_price_nothing_need_no_gamma(tmp_path, command, body, artifact):
    with_gamma = BASE.format(gamma=0.5) + body
    without = with_gamma.replace("gamma = 0.5\n", "")
    assert "gamma" not in without
    outs = {}
    for name, text in (("with", with_gamma), ("without", without)):
        outs[name] = str(tmp_path / name)
        cfg = write_config(tmp_path, text, f"{name}.cfg")
        assert main([command, "--config", cfg, "--out", outs[name]]) == 0
    assert sha256(outs["without"], artifact) == sha256(outs["with"], artifact)


@pytest.mark.parametrize("command, body", [
    ("run", FIXED),
    ("validate-properties", "rho = 500\n"),
], ids=["run-fixed", "validate-properties"])
def test_out_under_a_regular_file_is_one_error_line(
        tmp_path, capsys, monkeypatch, command, body):
    # the output directory is created with the first artifact, so the
    # command runs and then fails there, creating nothing; the error names
    # the path as given
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep me\n")
    cfg = write_config(tmp_path, BASE.format(gamma=0.5) + body)
    before = sorted(os.listdir(tmp_path))
    assert main([command, "--config", cfg, "--out", os.path.join("blocker", "out")]) == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert err == ["error: [Errno 20] Not a directory: 'blocker/out'"]
    assert sorted(os.listdir(tmp_path)) == before
    assert blocker.read_text() == "keep me\n"


@pytest.mark.parametrize("command", ["optimize", "run"])
def test_r_star_above_the_round_cap_is_one_warning(tmp_path, capsys, command):
    # rho = 500 on BASE gives R* = 133: above the cap of 40, below one of 200
    body = BASE.format(gamma=0.5) + "mode = optimize\nrho = 500\n"
    outs = {}
    for cap in (40, 200):
        cfg = write_config(tmp_path, body.replace("max_rounds = 40", f"max_rounds = {cap}"))
        outs[cap] = str(tmp_path / str(cap))
        assert main([command, "--config", cfg, "--out", outs[cap]]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == (["warning: R*=133 exceeds train.max_rounds=40"] if cap == 40 else [])
    assert read(outs[40], "solution.csv") == read(outs[200], "solution.csv")


def test_empty_sweep_values_fails_before_any_output(tmp_path, capsys):
    body = BASE.format(gamma=0.0) + SWEEP_K.replace("sweep.values = 1 2 4 8", "sweep.values =")
    out = tmp_path / "out"
    assert main(["compare-schedulers", "--config", write_config(tmp_path, body),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: invalid configuration:"
    ]
    assert "line 15: bad value for sweep.values: needs at least one value" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, body, key", [
    ("compare-schedulers", SWEEP_K.replace("1 2 4 8", "2 4 9"), "sweep.values"),
    ("compare-schedulers", "train.target_loss = 1.9\nsweep.variable = e\nsweep.values = 5\n"
                           "sweep.k = 9\n", "sweep.k"),
    ("run", FIXED.replace("control.k = 4", "control.k = 9"), "control.k"),
    ("estimate", PLAN.replace("8:20", "9:20"), "estimate.pairs"),
    ("run", PLAN.replace("8:20", "9:20") + "mode = grid\n", "estimate.pairs"),
], ids=["sweep-values", "sweep-k", "control-k", "estimate", "run-grid"])
def test_k_above_n_fails_before_any_training(tmp_path, capsys, monkeypatch, command, body, key):
    # N = 8: each of these configs trains at K = 9 somewhere
    calls = []
    for module in ("cli", "learner"):
        monkeypatch.setattr(f"fedcost.{module}.run_fedavg", lambda *a, **kw: calls.append(a))
    cfg = write_config(tmp_path, BASE.format(gamma=0.5) + body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert f"{key}: K = 9 exceeds dataset.n_clients = 8" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command, body, problem", [
    ("run", "mode = optimize\n", "mode=optimize needs rho or a complete estimation plan"),
    ("run", "mode = grid\nestimate.pairs = 1:2 3:4\n", "mode=grid needs rho"),
    ("optimize", "", "optimize needs rho or a complete estimation plan"),
    ("estimate", "rho = 100\n", "estimate needs estimate.pairs, estimate.loss_a"),
    ("validate-properties", "", "validate-properties needs rho"),
    ("cost-surface", PLAN, "cost-surface needs rho"),
])
def test_commands_reject_a_missing_rho_or_plan(tmp_path, command, body, problem):
    cfg = write_config(tmp_path, BASE.format(gamma=0.5) + body)
    problems = needs_for_command(parse_config(cfg), command)
    assert len(problems) == 1 and problems[0].startswith(problem)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not os.path.exists(tmp_path / "out")


def write_profile(tmp_path, n_clients):
    """A homogeneous, jitter-free profile: every round's costs are exact."""
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({
        "n_clients": n_clients, "t_comp": [0.5] * n_clients, "e_comp": [0.01] * n_clients,
        "comm_time_mean": [0.2] * n_clients, "comm_energy_mean": [0.02] * n_clients,
        "jitter": 0.0,
    }))
    return str(path)


def test_run_prices_rounds_from_a_profile_file(tmp_path):
    body = BASE.format(gamma=0.5) + FIXED + f"system.profile = {write_profile(tmp_path, 8)}\n"
    out = str(tmp_path / "out")
    assert main(["run", "--config", write_config(tmp_path, body), "--out", out]) == 0
    rows = [line.split(",") for line in read(out, "traces.csv").splitlines()[1:]]
    assert rows
    for row in rows:
        # K = 4 clients compute E = 10 steps of 0.5 s, then upload 0.2 s each in turn
        assert float(row[2]) == pytest.approx(10 * 0.5 + 4 * 0.2)
        assert float(row[3]) == pytest.approx(4 * (10 * 0.01 + 0.02))


def test_profile_file_of_another_fleet_size_is_a_config_error(tmp_path, capsys):
    body = BASE.format(gamma=0.5) + FIXED + f"system.profile = {write_profile(tmp_path, 5)}\n"
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, body), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "system.profile has 5 clients, dataset has 8" in err
    assert not os.path.exists(out)


def test_compare_schedulers_sweeps_e(tmp_path):
    # the shipped compare_schedulers.cfg sweeps E at a fixed K; the variable
    # is lowercased once, when the config is parsed
    body = BASE.format(gamma=0.0) + (
        "train.target_loss = 1.9\nsweep.variable = E\nsweep.values = 2, 5\nsweep.k = 3\n"
    )
    out = str(tmp_path / "out")
    assert main(["compare-schedulers", "--config", write_config(tmp_path, body), "--out", out]) == 0
    rows = [line.split(",") for line in read(out, "schedulers.csv").splitlines()[1:]]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        (s, "e", v) for v in ("2", "5") for s in ("optimal-ts", "wait-all-ts", "static-fs")
    ]
    for point in (rows[:3], rows[3:]):
        totals = [float(r[3]) for r in point]
        assert totals[0] <= min(totals[1:]) + 1e-9
        assert len({r[4] for r in point}) == 1  # one trajectory per point


def test_validate_properties_writes_findings(tmp_path):
    body = BASE.format(gamma=0.5) + f"rho = 1850\nout = {tmp_path/'out'}\n"
    cfg = write_config(tmp_path, body)
    assert main(["validate-properties", "--config", cfg]) == 0
    lines = read(tmp_path / "out", "properties.csv").splitlines()
    assert lines[0] == "property,passed,detail"
    assert len(lines) > 5
    assert all(line.split(",")[1] in ("true", "false") for line in lines[1:])


def test_cost_surface_grid(tmp_path):
    body = BASE.format(gamma=0.5) + (
        f"rho = 500\ncontrol.k_max = 6\ncontrol.e_max = 7\nout = {tmp_path/'out'}\n"
    )
    cfg = write_config(tmp_path, body)
    assert main(["cost-surface", "--config", cfg]) == 0
    lines = read(tmp_path / "out", "cost_surface.csv").splitlines()
    assert len(lines) == 1 + 6 * 7
    assert all(len(line.split(",")) == len(lines[0].split(",")) for line in lines[1:])


def test_estimate_command(tmp_path):
    body = BASE.format(gamma=0.5) + PLAN + f"out = {tmp_path/'out'}\n"
    cfg = write_config(tmp_path, body)
    assert main(["estimate", "--config", cfg]) == 0
    est = read(tmp_path / "out", "estimation.csv").splitlines()
    assert est[0] == "pilot_k,pilot_e,rounds_to_loss_a,rounds_to_loss_b"
    assert len(est) == 4
    sol = read(tmp_path / "out", "solution.csv").splitlines()
    assert "overhead_ratio" in sol[0]


def test_optimize_estimate_and_run_write_the_same_solution(tmp_path):
    cfg = write_config(tmp_path, BASE.format(gamma=0.5) + PLAN + "mode = optimize\n")
    outs = {cmd: str(tmp_path / cmd) for cmd in ("optimize", "estimate", "run")}
    for cmd, out in outs.items():
        assert main([cmd, "--config", cfg, "--out", out]) == 0
    for name in ("estimation.csv", "solution.csv"):
        assert read(outs["optimize"], name) == read(outs["estimate"], name)
        assert read(outs["optimize"], name) == read(outs["run"], name)


_VALUES = st.one_of(
    st.integers(-5, 50).map(str),
    st.floats().map(repr),
    st.text(),
    st.lists(st.tuples(st.integers(-3, 30), st.integers(-3, 30)), max_size=4).map(
        lambda pairs: " ".join(f"{k}:{e}" for k, e in pairs)
    ),
)
_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(SCHEMA)), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_LINES, max_size=20))
def test_parse_config_raises_only_config_error(tmp_path, lines):
    path = tmp_path / "fuzz.cfg"
    path.write_text("\n".join(lines))
    try:
        parse_config(str(path))
    except ConfigError:
        pass


@pytest.mark.parametrize("mode", [
    FIXED, "mode = optimize\nrho = 500\n", "mode = grid\nrho = 500\n",
], ids=["fixed", "optimize-rho", "grid-rho"])
def test_huge_step_size_ends_in_divergence(tmp_path, capsys, mode):
    # solution.csv is written only once training has succeeded
    body = BASE.format(gamma=0.5) + mode + "train.eta0 = 1e300\n"
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, body), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_step_size_is_one_divergence_line(tmp_path, capsys):
    # at eta0 = 1e308 the first update overflows; numpy must not warn, and the
    # non-finite models must end in the divergence diagnostic
    body = BASE.format(gamma=0.5) + FIXED + "train.eta0 = 1e308\n"
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, body), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: diverged at round")
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, named", [
    ("size_std = 10", "size_std = 10\nsystem.comm_spread = 1e308",
     "line 8: bad value for system.comm_spread: its square must be finite"),
    ("size_std = 10", "size_std = 1e308",
     "dataset.size_std / dataset.size_mean = 2.5e+306: its square must be finite"),
    ("size_mean = 40", "size_mean = 1e-308",
     "dataset.size_std / dataset.size_mean = inf: its square must be finite"),
    ("size_mean = 40", "size_mean = 1e308",
     "size_mean = 1e+308 with size_std = 10 draws a shard of 1e+308 rows"),
], ids=["comm_spread-1e308", "size_std-1e308", "size_mean-1e-308", "size_mean-1e308"])
def test_overflowing_spreads_and_sizes_are_one_error_line(tmp_path, capsys, old, new, named):
    # each once ended in an OverflowError traceback, or trained on shard sizes
    # cast from nan or from past the int64 range after a RuntimeWarning
    body = BASE.format(gamma=0.5).replace("n_clients = 8", "n_clients = 4").replace(old, new)
    body += SWEEP_K.replace("1 2 4 8", "1 2 4")
    out = tmp_path / "out"
    assert main(["compare-schedulers", "--config", write_config(tmp_path, body),
                 "--out", str(out)]) == 1
    first, *rest = capsys.readouterr().err.splitlines()
    assert first.startswith("error: ") and all(line.startswith("  - ") for line in rest)
    assert named in "\n".join([first] + rest)
    assert not os.path.exists(out)


# 4 clients, 5 rounds, a K sweep of 1 2 4 at E = 2, and fixed-mode K = 2, E = 2
TINY = """
gamma = 0.5
rho = 500
dataset.kind = synthetic
dataset.n_clients = 4
dataset.size_mean = 40
dataset.size_std = 10
train.max_rounds = 5
train.target_loss = 0.5
sweep.variable = k
sweep.values = 1 2 4
sweep.e = 2
mode = fixed
control.k = 2
control.e = 2
"""


@pytest.mark.parametrize("command, line", [
    # exited 0 and wrote inf into total_time_s, after RuntimeWarnings
    ("compare-schedulers", "system.jitter = 1e308"),
    ("compare-schedulers", "system.t_m_mean = 1e308"),
    # exited 0 after RuntimeWarnings
    ("compare-schedulers", "system.e_p_mean = 1e308"),
    ("compare-schedulers", "system.e_m_mean = 1e308"),
    # exited 1 with a RuntimeWarning before the error line
    *[(command, f"system.{key} = 1e308")
      for command in ("validate-properties", "optimize", "cost-surface")
      for key in ("t_m_mean", "e_m_mean", "e_p_mean")],
    # exited 0 after overflow warnings; cost_surface.csv held inf
    ("validate-properties", "system.t_p_mean = 1e-308"),
    ("cost-surface", "system.t_p_mean = 1e-308"),
    # left traces.csv with inf round times
    ("run", "system.t_m_mean = 1e308"),
])
def test_an_overflowing_fleet_is_one_error_line(tmp_path, capsys, command, line):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, TINY + line + "\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: overflow encountered in "), err
    assert not os.path.exists(out)


def test_unallocatable_dataset_is_one_error_line(tmp_path, capsys):
    # 3 x 1e15 rows of 60 features: numpy refuses the 1.25 EiB at once
    body = (
        BASE.format(gamma=0.5)
        .replace("n_clients = 8", "n_clients = 3")
        .replace("size_mean = 40", "size_mean = 1e15")
        .replace("size_std = 10", "size_std = 0")
        + FIXED.replace("control.k = 4", "control.k = 3")
    )
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, body), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
    assert not os.path.exists(out)


def readme_section(title):
    """The text of README's "## title" section."""
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path) as fh:
        return fh.read().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_config_rows():
    """(key, default cell) of each row of README's config table."""
    table = readme_section("Config format")
    cells = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `")]
    return [(key.strip().strip("`"), default.strip().strip("`")) for key, default in cells]


def readme_config_defaults():
    """key -> default cell of README's config table."""
    return dict(readme_config_rows())


def test_readme_config_table_lists_each_key_once():
    # README says all defaults live in that one table; test_defaults_agree
    # checks each default cell against SCHEMA
    keys = [key for key, _ in readme_config_rows()]
    assert sorted(keys) == sorted(SCHEMA)


def test_readme_quick_start_compiles_and_imports_names_that_exist():
    # later renames in the library must reach README's example
    source = readme_section("Library quick start").split("```python\n", 1)[1].split("```", 1)[0]
    compile(source, "README quick start", "exec")
    imported = [alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "fedcost"
                for alias in node.names]
    assert imported and [name for name in imported if not hasattr(fedcost, name)] == []


def test_readme_module_table_names_every_module_once():
    table = readme_section("What is in the box")
    named = [line.split("|")[1].strip().strip("`") for line in table.splitlines()
             if line.startswith("| `fedcost.")]
    package = os.path.dirname(fedcost.__file__)
    modules = [f"fedcost.{name[:-3]}" for name in os.listdir(package)
               if name.endswith(".py") and name != "__init__.py"]
    assert sorted(named) == sorted(modules)


def test_defaults_agree(tmp_path):
    # the resolved config holds every SCHEMA key; each one BASE leaves unset
    # reads its default
    config = parse_config(write_config(tmp_path, BASE.format(gamma=0.5)))
    assert list(config) == list(SCHEMA)
    set_keys = {line.split("=")[0].strip() for line in BASE.splitlines() if "=" in line}
    for key, (parser, default) in SCHEMA.items():
        if key not in set_keys:
            assert config[key] == default, key
        if default is not None:
            assert parser(str(default)) == default, key

    # the library defaults that mirror a config key
    train = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    plan = {f.name: f.default for f in dataclasses.fields(EstimationPlan)}
    synthetic = inspect.signature(gen_synthetic).parameters
    profile = inspect.signature(sample_profile).parameters
    mirrors = {
        "train.batch_size": train["batch_size"],
        "train.eta0": train["eta0"],
        "train.max_rounds": train["max_rounds"],
        "estimate.round_cap": plan["round_cap"],
        "dataset.dim": synthetic["n_features"].default,
        "dataset.classes": synthetic["n_classes"].default,
        "system.comm_spread": profile["comm_spread"].default,
    }
    for key, value in mirrors.items():
        assert SCHEMA[key][1] == value, key

    readme = readme_config_defaults()
    assert set(readme) == set(SCHEMA)
    for key, (_, default) in SCHEMA.items():
        if key == "control.k_max":
            assert readme[key] == "N"
        elif default is None:
            assert readme[key] in ("required", "none"), key
        else:
            assert readme[key] == str(default), key


def test_cli_reports_config_errors_and_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, "gamma = 0.5\nwhat = 1\n")
    assert main(["run", "--config", cfg]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_missing_mode_fails(tmp_path):
    cfg = write_config(tmp_path, BASE.format(gamma=0.5))
    assert main(["run", "--config", cfg]) == 1


def test_shipped_configs_parse():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    opt = parse_config(os.path.join(root, "synthetic_optimize.cfg"))
    assert needs_for_command(opt, "run") == []
    assert needs_for_command(opt, "optimize") == []
    cmp_cfg = parse_config(os.path.join(root, "compare_schedulers.cfg"))
    assert needs_for_command(cmp_cfg, "compare-schedulers") == []


def compensated_sum(values, start=0):
    """Neumaier's compensated sum, as the builtin sum() adds floats from
    Python 3.12 on."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def test_scheduler_totals_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    # the totals are summed left to right in round order, so a compensated
    # builtin sum() (Python >= 3.12) leaves schedulers.csv unchanged
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "compare_schedulers.cfg")
    plain, shadowed = str(tmp_path / "plain"), str(tmp_path / "shadowed")
    assert main(["compare-schedulers", "--config", cfg, "--out", plain]) == 0
    monkeypatch.setattr("fedcost.cli.sum", compensated_sum, raising=False)
    assert main(["compare-schedulers", "--config", cfg, "--out", shadowed]) == 0
    assert read(shadowed, "schedulers.csv") == read(plain, "schedulers.csv")


_COUNT_AND_JITTER = "profile n_clients must be an integer and jitter a number, got"


@pytest.mark.parametrize("payload, problem", [
    ([1, 2, 3], "profile file must hold a JSON object"),
    ({"n_clients": None}, f"{_COUNT_AND_JITTER} None and 0.0"),
    ({"jitter": None}, f"{_COUNT_AND_JITTER} 8 and None"),
    ({"n_clients": float("inf")}, f"{_COUNT_AND_JITTER} inf"),
    ({"t_comp": {"a": 1}}, "t_comp must be an array of numbers"),
    ({"n_clients": 8.7}, f"{_COUNT_AND_JITTER} 8.7 and 0.0"),
    ({"n_clients": True}, f"{_COUNT_AND_JITTER} True and 0.0"),
    ({"n_clients": "8"}, f"{_COUNT_AND_JITTER} '8' and 0.0"),
    ({"jitter": True}, f"{_COUNT_AND_JITTER} 8 and True"),
    ({"jitter": "0.1"}, f"{_COUNT_AND_JITTER} 8 and '0.1'"),
    ({"t_comp": [True] * 8}, "t_comp must be an array of numbers"),
    ({"e_comp": ["1"] * 8}, "e_comp must be an array of numbers"),
    ({"comm_time_mean": [10**400] * 8}, "comm_time_mean must be an array of numbers"),
    ({"n_clients": 0, "t_comp": [], "e_comp": [], "comm_time_mean": [],
      "comm_energy_mean": []}, "t_comp must be a non-empty 1-d array"),
], ids=["list", "null-n-clients", "null-jitter", "infinite-n-clients", "object-array",
        "fractional-n-clients", "bool-n-clients", "string-n-clients", "bool-jitter",
        "string-jitter", "bool-entries", "string-entries", "overflowing-entries",
        "no-clients"])
def test_malformed_profile_file_is_one_error_line(tmp_path, capsys, payload, problem):
    if isinstance(payload, dict):
        write_profile(tmp_path, 8)
        payload = {**json.loads((tmp_path / "profile.json").read_text()), **payload}
    path = tmp_path / "bad_profile.json"
    path.write_text(json.dumps(payload))
    body = BASE.format(gamma=0.5) + f"rho = 500\nsystem.profile = {path}\n"
    out = tmp_path / "out"
    assert main(["validate-properties", "--config", write_config(tmp_path, body),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {problem}")
    assert not os.path.exists(out)


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(gamma=0.5) + FIXED)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: invalid configuration:"
    ]
    assert "bad value for --seed: must be >= 0, got -1" in err
    assert not os.path.exists(out)


# three lines, so a value on the next line is on line 4
_PILOT_HEAD = "gamma = 0.5\ndataset.kind = synthetic\ndataset.n_clients = 8\n"


@pytest.mark.parametrize("line, problem", [
    ("seed = -1", "line 4: bad value for seed: must be >= 0"),
    ("dataset.dim = 0", "line 4: bad value for dataset.dim: must be >= 1"),
    ("dataset.labels_per_client = 0",
     "line 4: bad value for dataset.labels_per_client: must be >= 1"),
    ("dataset.samples_per_client = 0",
     "line 4: bad value for dataset.samples_per_client: must be >= 1"),
    ("dataset.classes = 1", "line 4: bad value for dataset.classes: must be >= 2"),
    ("dataset.alpha = -1", "line 4: bad value for dataset.alpha: must be >= 0"),
    ("dataset.beta = nan", "line 4: bad value for dataset.beta: must be finite"),
    ("dataset.size_std = -0.5", "line 4: bad value for dataset.size_std: must be >= 0"),
    ("system.t_p_std = -1", "line 4: bad value for system.t_p_std: must be >= 0"),
    ("system.jitter = -1", "line 4: bad value for system.jitter: must be >= 0"),
    ("system.comm_spread = inf", "line 4: bad value for system.comm_spread: must be finite"),
    ("dataset.size_mean = 0", "line 4: bad value for dataset.size_mean: must be > 0"),
    ("system.t_p_mean = -1", "line 4: bad value for system.t_p_mean: must be > 0"),
    ("system.e_p_mean = 0", "line 4: bad value for system.e_p_mean: must be > 0"),
    ("system.t_m_mean = inf", "line 4: bad value for system.t_m_mean: must be finite"),
    ("system.e_m_mean = -inf", "line 4: bad value for system.e_m_mean: must be finite"),
    ("train.eta0 = -1", "line 4: bad value for train.eta0: must be >= 0"),
    ("train.eta0 = nan", "line 4: bad value for train.eta0: must be finite"),
    ("train.eta0 = inf", "line 4: bad value for train.eta0: must be finite"),
    ("rho = inf", "line 4: bad value for rho: must be finite"),
    ("train.target_loss = nan", "line 4: bad value for train.target_loss: must be finite"),
    ("train.target_loss = inf", "line 4: bad value for train.target_loss: must be finite"),
    ("estimate.loss_a = inf", "line 4: bad value for estimate.loss_a: must be finite"),
    ("estimate.loss_a = nan", "line 4: bad value for estimate.loss_a: must be finite"),
    ("estimate.loss_b = -inf", "line 4: bad value for estimate.loss_b: must be finite"),
    ("estimate.pairs = 2:5 2:5",
     "line 4: bad value for estimate.pairs: needs at least two distinct K:E pairs"),
    ("estimate.pairs = 2:5 4:10\nestimate.loss_a = 1.2\nestimate.loss_b = 1.2",
     "estimate.loss_a = 1.2 must exceed estimate.loss_b = 1.2"),
])
def test_out_of_range_values_are_reported_by_key(tmp_path, capsys, monkeypatch, line, problem):
    # each is reported before any dataset is built, naming its config key
    builds = []
    monkeypatch.setattr("fedcost.cli.build_dataset", lambda *a: builds.append(a))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, _PILOT_HEAD + line + "\n")
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: invalid configuration:"
    ]
    assert f"  - {problem}" in err.splitlines()
    assert builds == [] and not os.path.exists(out)


# two of the three pilots, (2, 5) and (4, 10), miss loss 1.1 within 3 rounds
TIMED_OUT_PLAN = PLAN.replace("round_cap = 300", "round_cap = 3").replace("b = 1.2", "b = 1.1")


def run_at_cpus(tmp_path, capsys, monkeypatch, argv, cpus):
    """Exit code, stdout, stderr and artifact digests of one command run with
    `cpus` usable CPUs."""
    usable_cpus(monkeypatch, cpus)
    out = tmp_path / f"out-{cpus}"
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    files = sorted(out.iterdir()) if out.exists() else []
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    return code, captured.out, captured.err, digests


# a fixed run whose rounds carry enough local steps for a stepping partner,
# with a batch size past every int64
HUGE_BATCH_SPLIT_RUN = BASE.format(gamma=0.5).replace(
    "batch_size = 32", f"batch_size = {2**63}"
) + f"mode = fixed\ncontrol.k = 8\ncontrol.e = {-(-learner._SPLIT_STEPS // 8)}\n"


@pytest.mark.parametrize("command, body", [
    ("run", BASE.format(gamma=0.5) + "mode = optimize\n" + PLAN),
    ("compare-schedulers", BASE.format(gamma=0.5) + SWEEP_K),
    ("estimate", BASE.format(gamma=0.5) + TIMED_OUT_PLAN),
    ("run", HUGE_BATCH_SPLIT_RUN),
], ids=["run-pilots", "compare-schedulers", "pilots-time-out", "huge-batch-split-run"])
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch, command, body):
    argv = [command, "--config", write_config(tmp_path, body)]
    serial = run_at_cpus(tmp_path, capsys, monkeypatch, argv, 1)
    assert run_at_cpus(tmp_path, capsys, monkeypatch, argv, 2) == serial
    code, _, _, digests = serial
    assert (code, bool(digests)) == ((1, False) if command == "estimate" else (0, True))


def test_the_first_failing_pilot_in_plan_order_is_reported(tmp_path, capsys, monkeypatch):
    # the heaviest pilot, (8, 20), is submitted first and succeeds
    cfg = write_config(tmp_path, BASE.format(gamma=0.5) + TIMED_OUT_PLAN)
    argv = ["estimate", "--config", cfg]
    code, out, err, files = run_at_cpus(tmp_path, capsys, monkeypatch, argv, 2)
    assert (code, out, files) == (1, "", {})
    assert err == "error: pilot (K=2, E=5) did not reach loss 1.1 within 3 rounds\n"


def test_a_worker_that_dies_is_one_error_line(tmp_path, capsys, monkeypatch):
    run_fedavg = learner.run_fedavg

    def dies_at_k_4(dataset, profile, train):
        if train.k == 4:
            os._exit(1)
        return run_fedavg(dataset, profile, train)

    monkeypatch.setattr(learner, "run_fedavg", dies_at_k_4)
    cfg = write_config(tmp_path, BASE.format(gamma=0.5) + SWEEP_K)
    argv = ["compare-schedulers", "--config", cfg]
    code, out, err, files = run_at_cpus(tmp_path, capsys, monkeypatch, argv, 2)
    assert (code, out, files) == (1, "", {})
    assert len(err.splitlines()) == 1 and err.startswith("error: A process in the process pool")
