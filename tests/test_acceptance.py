"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The end-to-end training
criteria use a communication-bound edge profile (uplink far slower than one
local step), the regime the per-round time model is built for.
"""

import functools
import math
import time

import numpy as np
import pytest

from fedcost.costmodel import (
    ConvergenceCoeffs,
    expected_time_approx,
    expected_time_exact,
    p3_objective,
    sampling_penalty,
)
from fedcost.datagen import gen_synthetic, partition_by_label
from fedcost.learner import (
    ModelParams,
    TrainConfig,
    ce_gradient,
    global_loss,
    mean_cross_entropy,
    run_fedavg,
    train_all,
)
from fedcost.optimizer import (
    EstimationPlan,
    PilotRecord,
    acs_optimize,
    grid_search,
    rho_from_pilots,
    run_pilots,
    solve_e_given_k,
    solve_k_given_e,
    verify_properties,
)
from fedcost.scheduler import RoundJob, Strategy, brute_force_min_time, round_time
from fedcost.system import AveragedCosts, averaged_costs, sample_profile


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {name}: FAIL")
                raise
            print(f"\n[acceptance] {name}: PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def desk():
    """Synthetic(1,1) over 20 clients and a communication-bound profile."""
    dataset = gen_synthetic(1.0, 1.0, 20, 100, 50, seed=42)
    profile = sample_profile(
        20, t_p_mean=0.05, t_p_std=0.015, e_p_mean=0.01, t_m_mean=2.0, e_m_mean=0.02,
        jitter=0.1, seed=1,
    )
    return dataset, profile


def train_to_target(dataset, profile, k, e, target, cap=1500, seed=21):
    config = TrainConfig(k=k, e=e, max_rounds=cap, target_loss=target, seed=seed)
    _, traces = run_fedavg(dataset, profile, config)
    return traces


def run_totals(traces, target, strategy=Strategy.OPTIMAL_TS):
    """(reached, total time under the strategy, total energy, rounds)."""
    reached = traces[-1].loss <= target
    total_time = sum(round_time(t.job, strategy) for t in traces)
    total_energy = sum(t.energy_j for t in traces)
    return reached, total_time, total_energy, len(traces)


def run_to_target(dataset, profile, k, e, target, cap=1500, seed=21):
    return run_totals(train_to_target(dataset, profile, k, e, target, cap, seed), target)


@criterion("1 scheduling optimality (1000 random jobs, exact)")
def test_criterion_1_scheduling_optimality():
    rng = np.random.default_rng(1)
    scale = 2.0**-20  # dyadic grid keeps every chain sum exact in float64
    start = time.monotonic()
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        job = RoundJob(
            comp=rng.integers(1, 5_000_000, k) * scale,
            comm=rng.integers(1, 5_000_000, k) * scale,
        )
        best, _ = brute_force_min_time(job)
        assert round_time(job, Strategy.OPTIMAL_TS) == best
    assert time.monotonic() - start < 10.0


@criterion("2 exact expected-time formula (Monte-Carlo and special cases)")
def test_criterion_2_expected_time_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    from fedcost.system import SystemProfile

    t = np.sort(rng.uniform(0.05, 2.0, 20))
    profile = SystemProfile(t, np.full(20, 0.01), rng.uniform(0.1, 0.4, 20),
                            np.full(20, 0.02), 0.0)
    e_steps, rounds, draws = 5, 1, 100_000
    for k in (1, 5, 10):
        picks = np.argpartition(rng.random((draws, 20)), k - 1, axis=1)[:, :k]
        sampled = t[picks].min(axis=1) * e_steps + profile.comm_time_mean[picks].sum(axis=1)
        se = sampled.std(ddof=1) / math.sqrt(draws)
        assert abs(expected_time_exact(k, e_steps, rounds, profile) - sampled.mean()) < 3 * se

    homogeneous = SystemProfile(np.full(30, 0.4), np.full(30, 0.01), np.full(30, 0.25),
                                np.full(30, 0.02), 0.0)
    costs = AveragedCosts(30, 0.4, 0.25, 0.01, 0.02, 0.0)
    for k in (1, 7, 30):
        assert expected_time_exact(k, 12, 3, homogeneous) == pytest.approx(
            expected_time_approx(k, 12, 3, costs), rel=1e-9
        )
    hetero = SystemProfile(t, np.full(20, 0.01), np.full(20, 0.2), np.full(20, 0.02), 0.0)
    hetero_costs = AveragedCosts(20, float(t.mean()), 0.2, 0.01, 0.02, 0.0)
    assert expected_time_exact(1, 9, 4, hetero) == pytest.approx(
        expected_time_approx(1, 9, 4, hetero_costs), rel=1e-9
    )
    assert time.monotonic() - start < 30.0


@criterion("3 strict biconvexity on a 50x50 grid, 20 parameter sets")
def test_criterion_3_biconvexity():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(20, 201))
        costs = AveragedCosts(
            n_clients=n,
            t_p=float(10 ** rng.uniform(-3, 0)),
            t_m=float(10 ** rng.uniform(-3, 0)),
            e_p=float(10 ** rng.uniform(-4, -1)),
            e_m=float(10 ** rng.uniform(-4, -1)),
            gamma=float(rng.uniform(0, 0.9)),  # strictness in K needs gamma < 1
        )
        coeffs = ConvergenceCoeffs(rho=float(10 ** rng.uniform(1, 4)))
        kk = np.linspace(1, n, 50)[:, None]
        ee = np.linspace(1, 100, 50)[None, :]
        hk = 1e-3 * kk
        he = 1e-3 * ee

        def f(k, e):
            return p3_objective(k, e, costs, coeffs)

        d2k = (f(kk + hk, ee) - 2 * f(kk, ee) + f(kk - hk, ee)) / hk**2
        d2e = (f(kk, ee + he) - 2 * f(kk, ee) + f(kk, ee - he)) / he**2
        assert np.all(d2k > 0)
        assert np.all(d2e > 0)


@criterion("4 alternate-search within 1% of exhaustive grid, 100 instances")
def test_criterion_4_acs_near_optimality():
    rng = np.random.default_rng(20250810)
    start = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(20, 201))
        costs = AveragedCosts(
            n_clients=n,
            t_p=float(10 ** rng.uniform(-3, 0)),
            t_m=float(10 ** rng.uniform(-3, 0)),
            e_p=float(10 ** rng.uniform(-4, -1)),
            e_m=float(10 ** rng.uniform(-4, -1)),
            gamma=float(rng.uniform(0, 1)),
        )
        coeffs = ConvergenceCoeffs(rho=float(10 ** rng.uniform(2, 5)))
        sol = acs_optimize(costs, coeffs)
        grid = grid_search(costs, coeffs, range(1, n + 1), range(1, 101))
        assert sol.predicted_cost <= grid.predicted_cost * 1.01
    assert time.monotonic() - start < 60.0


def backfit_rho(curves, n_clients, r_min=2, f_star_points=400):
    """Independent oracle: refit the difficulty ratio from full loss curves.

    Scans the unknown floor F*, reduces each curve to its scaled-gap
    statistic (loss - F*) * E * round, and linearly regresses that on
    phi(K) E^2; the intercept/slope ratio at the best-residual F* is the
    refitted rho.
    """
    x = np.array([float(sampling_penalty(k, n_clients)) * e * e for k, e, _ in curves])
    min_loss = min(c[2].min() for c in curves)
    best = None
    for f_star in np.linspace(0.0, min_loss * 0.995, f_star_points):
        c_hat = []
        for k, e, losses in curves:
            r = np.arange(1, losses.size + 1)
            sel = r >= r_min
            c_hat.append(np.median((losses[sel] - f_star) * e * r[sel]))
        c_hat = np.array(c_hat)
        design = np.vstack([np.ones_like(x), x]).T
        coef, *_ = np.linalg.lstsq(design, c_hat, rcond=None)
        a, b = coef
        if a <= 0 or b <= 0:
            continue
        sse = float(((design @ coef - c_hat) ** 2).sum())
        if best is None or sse < best[0]:
            best = (sse, a / b)
    assert best is not None, "back-fit never produced positive coefficients"
    return best[1]


@criterion("5 difficulty-ratio estimator recovery (noiseless and simulated)")
def test_criterion_5_estimator_recovery(desk):
    # noiseless: records generated straight from the budget formula
    records = [
        PilotRecord(k=10, e=10, rounds_to_a=0, rounds_to_b=1109.0909090909091 / 10),
        PilotRecord(k=20, e=20, rounds_to_a=0, rounds_to_b=1416.1616161616162 / 20),
    ]
    assert rho_from_pilots(records, 100) == pytest.approx(1000.0, rel=1e-6)
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(20, 200))
        rho = float(10 ** rng.uniform(1, 5))
        pairs = [(1, 5), (int(n // 2), 40), (n, 120)]
        fabricated = [
            PilotRecord(
                k=k, e=e, rounds_to_a=0,
                rounds_to_b=(rho + float(sampling_penalty(k, n)) * e * e) / e,
            )
            for k, e in pairs
        ]
        assert rho_from_pilots(fabricated, n) == pytest.approx(rho, rel=1e-6)

    # simulated pilots vs a back-fit of the same runs' full loss curves
    dataset, profile = desk
    pairs = ((2, 40), (5, 100), (10, 200), (16, 350))
    loss_a, loss_b = 0.759, 0.629
    curves, recs = [], []
    for i, (k, e) in enumerate(pairs):
        seed = int(np.random.SeedSequence(13, spawn_key=(3, i)).generate_state(1)[0])
        _, traces = run_fedavg(
            dataset, profile,
            TrainConfig(k=k, e=e, max_rounds=900, target_loss=loss_b, seed=seed),
        )
        losses = np.array([t.loss for t in traces])
        assert losses[-1] <= loss_b
        curves.append((k, e, losses))
        recs.append(
            PilotRecord(
                k=k, e=e,
                rounds_to_a=int(np.argmax(losses <= loss_a)) + 1,
                rounds_to_b=int(np.argmax(losses <= loss_b)) + 1,
            )
        )
    rho_hat = rho_from_pilots(recs, dataset.n_clients)
    rho_fit = backfit_rho(curves, dataset.n_clients)
    assert 0.5 <= rho_hat / rho_fit <= 2.0


@criterion("6 qualitative solution properties (price sweep, perturbations)")
def test_criterion_6_property_suite():
    costs = AveragedCosts(100, 0.5, 0.2, 0.01, 0.02, 0.5)
    coeffs = ConvergenceCoeffs(rho=1850.0)
    findings = verify_properties(costs, coeffs)
    failed = [f.name for f in findings if not f.passed]
    assert not failed, failed

    # cheaper computation at pure-time pricing samples fewer clients
    slow = solve_k_given_e(26.0, costs.with_gamma(0.0), coeffs)
    fast = solve_k_given_e(
        26.0, AveragedCosts(100, 0.1, 0.2, 0.01, 0.02, 0.0), coeffs
    )
    assert fast < slow

    # cheaper per-step energy at pure-energy pricing runs more local steps
    base_e = solve_e_given_k(1, costs.with_gamma(1.0), coeffs)
    cheap_e = solve_e_given_k(
        1, AveragedCosts(100, 0.5, 0.2, 0.002, 0.02, 1.0), coeffs
    )
    assert cheap_e > base_e

    # unimodality over integer E at every fixed K on the evaluation grid
    e_grid = np.arange(1, 101, dtype=float)
    for k in (1, 2, 5, 10, 25, 50, 100):
        vals = p3_objective(float(k), e_grid, costs, coeffs)
        diffs = np.diff(vals)
        signs = np.sign(diffs[diffs != 0])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes <= 1


@criterion("7 end-to-end: optimized pair within 25% of trained 6x6 grid")
def test_criterion_7_end_to_end(desk):
    dataset, profile = desk
    start = time.monotonic()

    _, reference = run_fedavg(
        dataset, profile, TrainConfig(k=10, e=20, max_rounds=300, seed=7)
    )
    target = 1.1 * min(t.loss for t in reference)

    plan = EstimationPlan(
        pairs=((2, 40), (5, 100), (10, 200), (16, 350)),
        loss_a=round(target * 1.35, 3),
        loss_b=round(target * 1.12, 3),
        round_cap=900,
    )
    records = run_pilots(plan, dataset, profile, TrainConfig(k=None, e=None, seed=13))
    rho = rho_from_pilots(records, dataset.n_clients)
    coeffs = ConvergenceCoeffs(rho=rho)

    cells = [(k, e) for k in (1, 3, 6, 10, 15, 20) for e in (1, 3, 8, 20, 45, 100)]
    configs = [
        TrainConfig(k=k, e=e, max_rounds=1500, target_loss=target, seed=21) for k, e in cells
    ]
    grid_runs = {
        cell: run_totals(traces, target)
        for cell, traces in zip(cells, train_all(dataset, profile, configs))
    }

    for gamma in (0.0, 0.5, 1.0):
        solution = acs_optimize(averaged_costs(profile, gamma), coeffs)
        reached, total_time, total_energy, _ = run_to_target(
            dataset, profile, solution.k_star, solution.e_star, target
        )
        assert reached, f"optimized pair missed the target at gamma={gamma}"
        cost = gamma * total_energy + (1 - gamma) * total_time
        best = min(
            gamma * en + (1 - gamma) * tt
            for ok, tt, en, _ in grid_runs.values()
            if ok
        )
        assert cost <= 1.25 * best, (
            f"gamma={gamma}: optimized cost {cost:.1f} vs grid best {best:.1f}"
        )
    assert time.monotonic() - start < 900.0


def shape_violations(gaps, tolerance=0.02):
    """Strict decreases beyond a small relative tolerance."""
    violations = 0
    for prev, cur in zip(gaps, gaps[1:]):
        if cur < prev - tolerance * max(abs(prev), 1e-9):
            violations += 1
    return violations


@criterion("8 scheduler comparison: dominance and rise-then-plateau gaps")
def test_criterion_8_scheduler_comparison(desk):
    dataset, profile = desk
    target = 0.75

    def sweep(points):
        gaps = []
        for k, e in points:
            traces = train_to_target(dataset, profile, k, e, target, cap=900, seed=33)
            totals = {}
            for strategy in Strategy:
                reached, total_time, _, _ = run_totals(traces, target, strategy)
                assert reached, f"(K={k}, E={e}, {strategy.value}) missed target"
                totals[strategy] = total_time
            assert totals[Strategy.OPTIMAL_TS] <= totals[Strategy.WAIT_ALL_TS] + 1e-9
            assert totals[Strategy.OPTIMAL_TS] <= totals[Strategy.STATIC_FS] + 1e-9
            gaps.append(totals[Strategy.WAIT_ALL_TS] - totals[Strategy.OPTIMAL_TS])
        return gaps

    e_gaps = sweep([(10, e) for e in (5, 10, 20, 40, 80)])
    assert shape_violations(e_gaps) <= 1, e_gaps
    k_gaps = sweep([(k, 20) for k in (1, 2, 4, 8, 14, 20)])
    assert shape_violations(k_gaps) <= 1, k_gaps
    assert k_gaps[0] == pytest.approx(0.0, abs=1e-9)  # K=1: all strategies equal


@criterion("9 zero-model loss is ln C; gradients match finite differences")
def test_criterion_9_zero_model_and_gradients(desk):
    dataset, _ = desk
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 4, 200)
    features = np.stack([rng.standard_normal(6) for _ in labels])
    datasets = [
        dataset,
        gen_synthetic(0.5, 0.5, 7, 30, 15, seed=3),
        partition_by_label(features, labels, n_clients=5, labels_per_client=2,
                           samples_per_client=20, seed=4),
    ]
    for ds in datasets:
        zero = ModelParams.zeros(ds.n_classes, ds.n_features)
        assert abs(global_loss(zero, ds) - math.log(ds.n_classes)) < 1e-12

    x = rng.standard_normal((15, 6))
    y = rng.integers(0, 4, 15)
    model = ModelParams(0.3 * rng.standard_normal((4, 6)), 0.3 * rng.standard_normal(4))
    grad_w, grad_b = ce_gradient(model, x, y)
    h = 1e-6
    for _ in range(10):
        i, j = int(rng.integers(0, 4)), int(rng.integers(0, 6))
        up = ModelParams(model.weights.copy(), model.bias.copy())
        down = ModelParams(model.weights.copy(), model.bias.copy())
        up.weights[i, j] += h
        down.weights[i, j] -= h
        fd = (mean_cross_entropy(up, x, y) - mean_cross_entropy(down, x, y)) / (2 * h)
        assert grad_w[i, j] == pytest.approx(fd, rel=1e-5)
        up_b = ModelParams(model.weights.copy(), model.bias.copy())
        down_b = ModelParams(model.weights.copy(), model.bias.copy())
        up_b.bias[i] += h
        down_b.bias[i] -= h
        fd_b = (mean_cross_entropy(up_b, x, y) - mean_cross_entropy(down_b, x, y)) / (2 * h)
        assert grad_b[i] == pytest.approx(fd_b, rel=1e-5)
