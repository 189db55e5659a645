import dataclasses
import hashlib
import inspect
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_idx, write_oversized_idx
from fedcost.cli import build_dataset, main
from fedcost.config import SCHEMA, ConfigError, needs_for_command, parse_config
from fedcost.datagen import gen_synthetic
from fedcost.learner import TrainConfig
from fedcost.optimizer import EstimationPlan
from fedcost.system import sample_profile


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
    cfg = write_config(tmp_path, "gamma = 1.5\nmode = sideways\nrho = -2\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    text = str(err.value)
    assert "gamma" in text and "mode" in text and "rho" in text


def test_missing_keys_reported_per_command(tmp_path):
    cfg = parse_config(write_config(tmp_path, "gamma = 0.5\ndataset.kind = synthetic\n"
                                              "dataset.n_clients = 4\n"))
    problems = needs_for_command(cfg, "run")
    assert any("mode" in p for p in problems)
    problems = needs_for_command(cfg, "compare-schedulers")
    assert any("sweep.variable" in p for p in problems)


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
    assert sha256(est, "solution.csv") == (
        "81db83de0f529b2be05bf9b21a8987c590220e2298e6ede111295fb3fa2f4fc3"
    )
    assert sha256(grid, "solution.csv") == (
        "20f2ec1cba1d72880892cd8ce09e84935f9582e7d9636c6cbb5db0483934aa9f"
    )


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


def test_cost_model_commands_need_no_idx_paths(tmp_path):
    body = "gamma = 0.5\nrho = 300\ndataset.kind = idx\ndataset.n_clients = 5\n"
    cfg = write_config(tmp_path, body)
    for cmd in ("validate-properties", "cost-surface"):
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / cmd)]) == 0
    problems = needs_for_command(parse_config(cfg), "run")
    assert {"missing required key: dataset.images",
            "missing required key: dataset.samples_per_client"} <= set(problems)


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


def test_huge_step_size_ends_in_divergence(tmp_path, capsys):
    body = BASE.format(gamma=0.5) + FIXED + "train.eta0 = 1e300\n"
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, body), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not os.path.exists(out)


def readme_config_defaults():
    """key -> default cell of README's config table."""
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path) as fh:
        table = fh.read().split("## Config format", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `")]
    return {key.strip().strip("`"): default.strip().strip("`") for key, default in cells}


def test_defaults_agree(tmp_path):
    config = parse_config(write_config(tmp_path, BASE.format(gamma=0.5)))
    for key, (parser, default) in SCHEMA.items():
        if key not in config.raw:
            assert config.get(key) == default, key
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
