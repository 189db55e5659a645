"""Batch experiment driver.

Subcommands: run, optimize, estimate, compare-schedulers,
validate-properties, cost-surface.  Every command reads one config file
(--config), honors --seed and --out overrides, writes CSV artifacts into the
output directory, and exits non-zero with a diagnostic line on failure.
Identical config + seed reruns produce byte-identical files; all reported
times are simulated, never host wall-clock.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import costmodel, datagen, learner, optimizer, system
from .config import ConfigError, needs_for_command, parse_config
from .costmodel import ConvergenceCoeffs
from .csvio import write_csv
from .learner import TrainConfig, run_fedavg, sub_seed
from .optimizer import EstimationPlan
from .scheduler import Strategy, round_time

_DATA_KEY, _PROFILE_KEY, _TRAIN_KEY, _PILOT_KEY = ((100, domain) for domain in range(4))


def build_dataset(config):
    seed = sub_seed(config.seed, *_DATA_KEY)
    kind = config.require("dataset.kind")
    if kind == "synthetic":
        return datagen.gen_synthetic(
            alpha=config.get("dataset.alpha"),
            beta=config.get("dataset.beta"),
            n_clients=config.require("dataset.n_clients"),
            size_mean=config.get("dataset.size_mean"),
            size_std=config.get("dataset.size_std"),
            seed=seed,
            n_features=config.get("dataset.dim"),
            n_classes=config.get("dataset.classes"),
        )
    return datagen.partition_by_label(
        *datagen.load_idx(config.require("dataset.images"), config.require("dataset.labels")),
        n_clients=config.require("dataset.n_clients"),
        labels_per_client=config.get("dataset.labels_per_client"),
        samples_per_client=config.require("dataset.samples_per_client"),
        seed=seed,
    )


def build_profile(config, n_clients):
    path = config.get("system.profile")
    if path is not None:
        profile = system.load_profile(path)
        if profile.n_clients != n_clients:
            raise ConfigError(
                [f"system.profile has {profile.n_clients} clients, dataset has {n_clients}"]
            )
        return profile
    return system.sample_profile(
        n_clients=n_clients,
        t_p_mean=config.get("system.t_p_mean"),
        t_p_std=config.get("system.t_p_std"),
        e_p_mean=config.get("system.e_p_mean"),
        t_m_mean=config.get("system.t_m_mean"),
        e_m_mean=config.get("system.e_m_mean"),
        jitter=config.get("system.jitter"),
        seed=sub_seed(config.seed, *_PROFILE_KEY),
        comm_spread=config.get("system.comm_spread"),
    )


def build_train_config(config, k, e):
    return TrainConfig(
        k=k,
        e=e,
        batch_size=config.get("train.batch_size"),
        eta0=config.get("train.eta0"),
        max_rounds=config.get("train.max_rounds"),
        target_loss=config.get("train.target_loss"),
        seed=sub_seed(config.seed, *_TRAIN_KEY),
    )


def _build(config):
    """The dataset, its fleet's profile and the fleet-averaged costs."""
    dataset = build_dataset(config)
    profile = build_profile(config, dataset.n_clients)
    return dataset, profile, system.averaged_costs(profile, config.gamma)


def _fleet_costs(config):
    """Averaged costs of the configured fleet, without building the dataset:
    every dataset kind has exactly dataset.n_clients shards."""
    profile = build_profile(config, config.require("dataset.n_clients"))
    return system.averaged_costs(profile, config.gamma)


def _grid_ranges(config, n_clients):
    k_max = min(config.get("control.k_max") or n_clients, n_clients)  # k_max defaults to N
    return range(1, k_max + 1), range(1, config.get("control.e_max") + 1)


def _solve(config, dataset, profile, costs, out_dir, rho, grid=False):
    """Pick (K*, E*) by ACS, or by grid search when `grid`, and write
    solution.csv.  With rho None, rho is estimated from the pilot runs, which
    also write estimation.csv.  Returns (solution, estimate or None)."""
    estimate = None
    if rho is None:
        # the run's training settings, seeded apart; each pilot sets its own
        # K, E, round cap, target loss and seed from them
        pilot_train = replace(
            build_train_config(config, None, None), seed=sub_seed(config.seed, *_PILOT_KEY)
        )
        estimate = optimizer.estimate_rho(
            EstimationPlan(
                pairs=config.require("estimate.pairs"),
                loss_a=config.require("estimate.loss_a"),
                loss_b=config.require("estimate.loss_b"),
                round_cap=config.get("estimate.round_cap"),
            ),
            dataset,
            profile,
            costs,
            pilot_train,
        )
        optimizer.write_estimation_csv(estimate.records, os.path.join(out_dir, "estimation.csv"))
        rho = estimate.rho
    coeffs = ConvergenceCoeffs(rho=rho, n_clients=dataset.n_clients)
    if grid:
        solution = optimizer.grid_search(costs, coeffs, *_grid_ranges(config, dataset.n_clients))
    elif estimate is not None:
        solution = estimate.solution
    else:
        solution = optimizer.acs_optimize(costs, coeffs)
    optimizer.write_solution_csv(
        solution,
        os.path.join(out_dir, "solution.csv"),
        rho,
        overhead=None if estimate is None else estimate.overhead,
    )
    return solution, estimate


def cmd_run(config, out_dir):
    dataset, profile, costs = _build(config)
    mode = config.require("mode")
    if mode == "fixed":
        k, e = config.require("control.k"), config.require("control.e")
    else:
        solution, _ = _solve(
            config, dataset, profile, costs, out_dir, config.get("rho"), grid=mode == "grid"
        )
        k, e = solution.k_star, solution.e_star

    _, traces = run_fedavg(dataset, profile, build_train_config(config, k, e))
    learner.export_traces(traces, os.path.join(out_dir, "traces.csv"), config.strategy)
    print(f"run: K={k} E={e} rounds={len(traces)} final_loss={traces[-1].loss:.6f}")
    return 0


def cmd_optimize(config, out_dir):
    solution, _ = _solve(config, *_build(config), out_dir, config.get("rho"))
    print(
        f"optimize: K*={solution.k_star} E*={solution.e_star} R*={solution.r_star} "
        f"cost={solution.predicted_cost:.6g}"
    )
    return 0


def cmd_estimate(config, out_dir):
    _, estimate = _solve(config, *_build(config), out_dir, rho=None)
    print(f"estimate: rho={estimate.rho:.6g} overhead_ratio={estimate.overhead:.4f}")
    return 0


def cmd_compare_schedulers(config, out_dir):
    dataset, profile, _ = _build(config)
    target = config.require("train.target_loss")
    variable = config.require("sweep.variable").lower()
    values = config.require("sweep.values")

    rows = []
    for value in values:
        if variable == "e":
            k, e = config.require("sweep.k"), value
        else:
            k, e = value, config.require("sweep.e")
        _, traces = run_fedavg(dataset, profile, build_train_config(config, k, e))
        reached = traces[-1].loss <= target
        for strategy in Strategy:
            total = sum(round_time(t.job, strategy) for t in traces)
            rows.append([strategy.value, variable, value, total, len(traces), reached])
    write_csv(
        os.path.join(out_dir, "schedulers.csv"),
        ["strategy", "sweep_variable", "sweep_value", "total_time_s", "rounds", "reached"],
        rows,
    )
    print(f"compare-schedulers: {len(values)} sweep points x {len(Strategy)} strategies")
    return 0


def cmd_validate_properties(config, out_dir):
    costs = _fleet_costs(config)
    coeffs = ConvergenceCoeffs(rho=config.require("rho"), n_clients=costs.n_clients)
    findings = optimizer.verify_properties(costs, coeffs)
    optimizer.write_properties_csv(findings, os.path.join(out_dir, "properties.csv"))
    failed = [f.name for f in findings if not f.passed]
    print(
        f"validate-properties: {len(findings) - len(failed)}/{len(findings)} passed"
        + (f"; failed: {', '.join(failed)}" if failed else "")
    )
    return 0


def cmd_cost_surface(config, out_dir):
    costs = _fleet_costs(config)
    coeffs = ConvergenceCoeffs(rho=config.require("rho"), n_clients=costs.n_clients)
    k_range, e_range = _grid_ranges(config, costs.n_clients)
    costmodel.dump_cost_surface(
        os.path.join(out_dir, "cost_surface.csv"), costs, coeffs, k_range, e_range
    )
    print(f"cost-surface: {len(k_range)} x {len(e_range)} grid written")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "optimize": cmd_optimize,
    "estimate": cmd_estimate,
    "compare-schedulers": cmd_compare_schedulers,
    "validate-properties": cmd_validate_properties,
    "cost-surface": cmd_cost_surface,
}


def _missing_dirs(path):
    """`path` and those of its parents that do not exist yet, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _remove_empty(dirs):
    """Remove the directories a failed command created, deepest first, while
    they are empty; one that holds a file stays, with its parents."""
    for path in dirs:
        try:
            os.rmdir(path)
        except OSError:
            return


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fedcost",
        description="Federated-learning cost simulation and control-variable optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    created = []
    try:
        config = parse_config(args.config)
        if args.seed is not None:
            config.raw["seed"] = args.seed
        if args.out is not None:
            config.raw["out"] = args.out
        problems = needs_for_command(config, args.command)
        if problems:
            raise ConfigError(problems)
        out_dir = config.out
        created = _missing_dirs(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](config, out_dir)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        _remove_empty(created)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
