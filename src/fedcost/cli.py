"""Batch experiment driver.

Subcommands: run, optimize, estimate, compare-schedulers,
validate-properties, cost-surface.  Every command reads one config file
(--config), honors --seed and --out overrides, writes CSV artifacts into the
output directory (created with the first of them), and exits non-zero with a
diagnostic line on failure.  Identical config + seed reruns produce
byte-identical files; all reported times are simulated, never host wall-clock.
"""

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import costmodel, datagen, learner, optimizer, system
from .config import ConfigError, parse_config
from .costmodel import ConvergenceCoeffs
from .csvio import write_csv
from .learner import TrainConfig, run_fedavg
from .optimizer import EstimationPlan
from .scheduler import Strategy, round_time
from .seeding import DATA, PILOTS, PROFILE, TRAIN, sub_seed


def build_dataset(config):
    seed = sub_seed(config["seed"], *DATA)
    if config["dataset.kind"] == "synthetic":
        return datagen.gen_synthetic(
            alpha=config["dataset.alpha"],
            beta=config["dataset.beta"],
            n_clients=config["dataset.n_clients"],
            size_mean=config["dataset.size_mean"],
            size_std=config["dataset.size_std"],
            seed=seed,
            n_features=config["dataset.dim"],
            n_classes=config["dataset.classes"],
        )
    return datagen.partition_by_label(
        *datagen.load_idx(config["dataset.images"], config["dataset.labels"]),
        n_clients=config["dataset.n_clients"],
        labels_per_client=config["dataset.labels_per_client"],
        samples_per_client=config["dataset.samples_per_client"],
        seed=seed,
    )


def build_profile(config):
    n_clients = config["dataset.n_clients"]
    path = config["system.profile"]
    if path is not None:
        profile = system.load_profile(path)
        if profile.n_clients != n_clients:
            raise ConfigError(
                [f"system.profile has {profile.n_clients} clients, dataset has {n_clients}"]
            )
        return profile
    return system.sample_profile(
        n_clients=n_clients,
        t_p_mean=config["system.t_p_mean"],
        t_p_std=config["system.t_p_std"],
        e_p_mean=config["system.e_p_mean"],
        t_m_mean=config["system.t_m_mean"],
        e_m_mean=config["system.e_m_mean"],
        jitter=config["system.jitter"],
        seed=sub_seed(config["seed"], *PROFILE),
        comm_spread=config["system.comm_spread"],
    )


def build_train_config(config, k, e):
    return TrainConfig(
        k=k,
        e=e,
        batch_size=config["train.batch_size"],
        eta0=config["train.eta0"],
        max_rounds=config["train.max_rounds"],
        target_loss=config["train.target_loss"],
        seed=sub_seed(config["seed"], *TRAIN),
    )


def _grid_ranges(config, n_clients):
    k_max = min(config["control.k_max"] or n_clients, n_clients)  # k_max defaults to N
    return range(1, k_max + 1), range(1, config["control.e_max"] + 1)


def _solve(config, dataset, profile, rho, grid=False):
    """Pick (K*, E*) by ACS, or by grid search when `grid`, at the profile's
    averaged costs priced by gamma; with rho None, estimate rho from pilot
    runs on `dataset` first.  Writes nothing.  Returns (solution, rho, pilot
    records, overhead ratio), the last two None when rho was given; the
    overhead ratio is the pilots' local steps over the solution's K* E* R*."""
    costs = system.averaged_costs(profile, config["gamma"])
    records = overhead = None
    if rho is None:
        # the run's training settings, seeded apart; each pilot sets its own
        # K, E, round cap, target loss and seed from them
        pilot_train = replace(
            build_train_config(config, None, None), seed=sub_seed(config["seed"], *PILOTS)
        )
        estimate = optimizer.estimate_rho(
            EstimationPlan(
                pairs=config["estimate.pairs"],
                loss_a=config["estimate.loss_a"],
                loss_b=config["estimate.loss_b"],
                round_cap=config["estimate.round_cap"],
            ),
            dataset,
            profile,
            pilot_train,
        )
        rho, records = estimate.rho, estimate.records
    coeffs = ConvergenceCoeffs(rho=rho)
    if grid:
        solution = optimizer.grid_search(costs, coeffs, *_grid_ranges(config, costs.n_clients))
    else:
        solution = optimizer.acs_optimize(costs, coeffs)
    if records is not None:
        overhead = estimate.pilot_steps / (solution.k_star * solution.e_star * solution.r_star)
    return solution, rho, records, overhead


def _write_solution(config, solution, rho, records, overhead):
    """Write _solve's result: solution.csv, and estimation.csv after pilots;
    warn on stderr when R* exceeds the round cap."""
    out_dir, cap = config["out"], config["train.max_rounds"]
    if records is not None:
        optimizer.write_estimation_csv(records, os.path.join(out_dir, "estimation.csv"))
    optimizer.write_solution_csv(solution, os.path.join(out_dir, "solution.csv"), rho, overhead)
    if solution.r_star > cap:
        print(f"warning: R*={solution.r_star} exceeds train.max_rounds={cap}", file=sys.stderr)


def cmd_run(config):
    dataset, profile = build_dataset(config), build_profile(config)
    mode = config["mode"]
    solved = None
    if mode == "fixed":
        k, e = config["control.k"], config["control.e"]
    else:
        solved = _solve(config, dataset, profile, config["rho"], grid=mode == "grid")
        k, e = solved[0].k_star, solved[0].e_star

    _, traces = run_fedavg(dataset, profile, build_train_config(config, k, e))
    if solved is not None:  # only once training has succeeded
        _write_solution(config, *solved)
    learner.export_traces(
        traces, os.path.join(config["out"], "traces.csv"), Strategy(config["scheduler"])
    )
    print(f"run: K={k} E={e} rounds={len(traces)} final_loss={traces[-1].loss:.6f}")
    return 0


def cmd_optimize(config):
    dataset = build_dataset(config) if config["rho"] is None else None  # only pilots train
    solved = _solve(config, dataset, build_profile(config), config["rho"])
    _write_solution(config, *solved)
    solution = solved[0]
    print(
        f"optimize: K*={solution.k_star} E*={solution.e_star} R*={solution.r_star} "
        f"cost={solution.predicted_cost:.6g}"
    )
    return 0


def cmd_estimate(config):
    solved = _solve(config, build_dataset(config), build_profile(config), rho=None)
    _write_solution(config, *solved)
    _, rho, _, overhead = solved
    print(f"estimate: rho={rho:.6g} overhead_ratio={overhead:.4f}")
    return 0


def cmd_compare_schedulers(config):
    dataset, profile = build_dataset(config), build_profile(config)
    target = config["train.target_loss"]
    variable = config["sweep.variable"]
    values = config["sweep.values"]

    if variable == "e":
        points = [(config["sweep.k"], value) for value in values]
    else:
        points = [(value, config["sweep.e"]) for value in values]

    configs = [build_train_config(config, k, e) for k, e in points]
    rows = []
    for value, traces in zip(values, learner.train_all(dataset, profile, configs)):
        reached = traces[-1].loss <= target
        for strategy in Strategy:
            # left to right in round order: from Python 3.12 the builtin
            # sum() is compensated, which would change the last bits
            total = 0.0
            for t in traces:
                total += round_time(t.job, strategy)
            rows.append([strategy.value, variable, value, total, len(traces), reached])
    write_csv(
        os.path.join(config["out"], "schedulers.csv"),
        ["strategy", "sweep_variable", "sweep_value", "total_time_s", "rounds", "reached"],
        rows,
    )
    print(f"compare-schedulers: {len(values)} sweep points x {len(Strategy)} strategies")
    return 0


def cmd_validate_properties(config):
    costs = system.averaged_costs(build_profile(config), config["gamma"])
    coeffs = ConvergenceCoeffs(rho=config["rho"])
    findings = optimizer.verify_properties(costs, coeffs)
    optimizer.write_properties_csv(findings, os.path.join(config["out"], "properties.csv"))
    failed = [f.name for f in findings if not f.passed]
    print(
        f"validate-properties: {len(findings) - len(failed)}/{len(findings)} passed"
        + (f"; failed: {', '.join(failed)}" if failed else "")
    )
    return 0


def cmd_cost_surface(config):
    costs = system.averaged_costs(build_profile(config), config["gamma"])
    coeffs = ConvergenceCoeffs(rho=config["rho"])
    k_range, e_range = _grid_ranges(config, costs.n_clients)
    costmodel.dump_cost_surface(
        os.path.join(config["out"], "cost_surface.csv"), costs, coeffs, k_range, e_range
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


def needs_for_command(config, command):
    """Per-command requirement check on the resolved config, where an absent
    key reads None; returns a list of problems.  Every K the command would
    train at must lie within dataset.n_clients, an idx dataset must name its
    files exactly when the command trains, a synthetic one it trains on must
    have a size_std / size_mean whose square is finite, and gamma is needed
    exactly when the command prices a cost: the others need only N."""
    problems = []
    has_rho = config["rho"] is not None
    has_plan = all(
        config[k] is not None for k in ("estimate.pairs", "estimate.loss_a", "estimate.loss_b")
    )
    solves = command == "optimize" or command == "run" and config["mode"] in ("optimize", "grid")
    pilots = command == "estimate" or solves and not has_rho
    prices = solves or pilots or command in ("validate-properties", "cost-surface")

    def need(*keys):
        problems.extend(f"missing required key: {k}" for k in keys if config[k] is None)

    def within_n(key, *ks):
        n = config["dataset.n_clients"]
        problems.extend(
            f"{key}: K = {k} exceeds dataset.n_clients = {n}" for k in ks if n and k and k > n
        )

    if prices:
        need("gamma")
    need("dataset.kind", "dataset.n_clients")
    trains = pilots or command in ("run", "compare-schedulers")
    if config["dataset.kind"] == "idx" and trains:
        need("dataset.images", "dataset.labels", "dataset.samples_per_client")
    if config["dataset.kind"] == "synthetic" and trains:
        cv = config["dataset.size_std"] / config["dataset.size_mean"]
        if not math.isfinite(cv * cv):  # gen_synthetic's log-normal sigma^2 is log1p(cv^2)
            problems.append(
                f"dataset.size_std / dataset.size_mean = {cv:g}: its square must be finite"
            )

    if command == "run":
        need("mode")
        mode = config["mode"]
        if mode == "fixed":
            need("control.k", "control.e")
            within_n("control.k", config["control.k"])
        elif mode in ("optimize", "grid") and not (has_rho or has_plan):
            problems.append(
                "mode=%s needs rho or a complete estimation plan "
                "(estimate.pairs, estimate.loss_a, estimate.loss_b)" % mode
            )
    elif command == "optimize" and not (has_rho or has_plan):
        problems.append("optimize needs rho or a complete estimation plan")
    elif command == "estimate" and not has_plan:
        problems.append("estimate needs estimate.pairs, estimate.loss_a and estimate.loss_b")
    elif command == "compare-schedulers":
        need("sweep.variable", "sweep.values", "train.target_loss")
        if config["sweep.variable"] == "e":
            need("sweep.k")
            within_n("sweep.k", config["sweep.k"])
        elif config["sweep.variable"] == "k":
            need("sweep.e")
            within_n("sweep.values", *(config["sweep.values"] or ()))
    elif command in ("validate-properties", "cost-surface") and not has_rho:
        problems.append(f"{command} needs rho")
    if pilots:
        within_n("estimate.pairs", *(k for k, _ in config["estimate.pairs"] or ()))
        loss_a, loss_b = config["estimate.loss_a"], config["estimate.loss_b"]
        if has_plan and not loss_a > loss_b:
            problems.append(f"estimate.loss_a = {loss_a} must exceed estimate.loss_b = {loss_b}")
    return problems


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

    try:
        config = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError([f"bad value for --seed: must be >= 0, got {args.seed}"])
            config["seed"] = args.seed
        if args.out is not None:
            config["out"] = args.out
        problems = needs_for_command(config, args.command)
        if problems:
            raise ConfigError(problems)
        # a numeric fault ends the command; underflow, routine in softmax exp, does not
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](config)
    except (ValueError, RuntimeError, OSError, MemoryError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
