import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_costs
from fedcost.costmodel import (
    ConvergenceCoeffs,
    CostReport,
    convergence_bound,
    cost_report,
    dump_cost_surface,
    expected_energy,
    expected_time_approx,
    expected_time_exact,
    p3_objective,
    rounds_needed,
    sampling_penalty,
)
from fedcost.scheduler import RoundJob, Strategy, round_time
from fedcost.seeding import stream
from fedcost.system import AveragedCosts, SystemProfile, draw_round_costs, sample_profile


def costs_with(gamma, n=100, t_p=0.5, t_m=0.2, e_p=0.01, e_m=0.02):
    return AveragedCosts(n, t_p, t_m, e_p, e_m, gamma)


def homogeneous_profile(n, t_p, t_m):
    return SystemProfile(
        t_comp=np.full(n, t_p),
        e_comp=np.full(n, 0.01),
        comm_time_mean=np.full(n, t_m),
        comm_energy_mean=np.full(n, 0.02),
        comm_jitter=0.0,
    )


def test_expected_energy_example():
    assert expected_energy(10, 10, 5, costs_with(0.5)) == pytest.approx(6.0)


def test_expected_energy_zero_computation_limit():
    c = costs_with(0.5)
    assert expected_energy(7, 0.0, 3, c) == pytest.approx(7 * c.e_m * 3, rel=1e-12)


def test_expected_energy_linear_in_rounds():
    c = costs_with(0.2)
    assert expected_energy(5, 8, 10, c) == pytest.approx(2 * expected_energy(5, 8, 5, c))


def test_expected_time_exact_three_client_enumeration():
    # N=3, K=2, t=(1,2,3): subsets {1,2},{1,3},{2,3} have minima 1,1,2, so
    # the fastest-client term is 4/3; plus t_m * K = 2.
    p = homogeneous_profile(3, 1.0, 1.0)
    p = SystemProfile(np.array([1.0, 2.0, 3.0]), p.e_comp, p.comm_time_mean,
                      p.comm_energy_mean, 0.0)
    assert expected_time_exact(2, 1, 1, p) == pytest.approx(10 / 3, rel=1e-12)


def test_expected_time_exact_homogeneous_matches_approx():
    p = homogeneous_profile(40, 0.5, 0.2)
    c = AveragedCosts(40, 0.5, 0.2, 0.01, 0.02, 0.0)
    for k in (1, 7, 40):
        exact = expected_time_exact(k, 12, 3, p)
        approx = expected_time_approx(k, 12, 3, c)
        assert exact == pytest.approx(approx, rel=1e-9)


def test_expected_time_exact_single_client_averages_everyone():
    rng = np.random.default_rng(0)
    t = rng.uniform(0.1, 2.0, 25)
    p = SystemProfile(t, np.full(25, 0.01), np.full(25, 0.2), np.full(25, 0.02), 0.0)
    got = expected_time_exact(1, 4, 2, p)
    want = (t.mean() * 4 + 0.2 * 1) * 2
    assert got == pytest.approx(want, rel=1e-9)


def test_expected_time_exact_monte_carlo():
    rng = np.random.default_rng(99)
    t = np.sort(rng.uniform(0.05, 2.0, 20))
    p = SystemProfile(t, np.full(20, 0.01), rng.uniform(0.1, 0.4, 20), np.full(20, 0.02), 0.0)
    t_m = p.comm_time_mean.mean()
    e, r = 5, 1
    draws = 100_000
    for k in (1, 5, 10):
        picks = np.argpartition(rng.random((draws, 20)), k - 1, axis=1)[:, :k]
        samples = t[picks].min(axis=1) * e + p.comm_time_mean[picks].sum(axis=1)
        se = samples.std(ddof=1) / math.sqrt(draws)
        assert abs(expected_time_exact(k, e, r, p) - samples.mean()) < 3 * se


@pytest.mark.parametrize("k, e", [(1, 100), (5, 100), (20, 20), (20, 100)])
def test_exact_time_prices_the_simulated_round_of_a_communication_bound_fleet(k, e):
    # the desk fleet with uploads of ~40 local steps, where the optimal-ts
    # round is the chain expected_time_exact prices: fastest computation
    # plus every upload
    profile = sample_profile(20, t_p_mean=0.05, t_p_std=0.015, e_p_mean=0.01, t_m_mean=2.0,
                             e_m_mean=0.02, jitter=0.1, seed=1)
    rng = stream(5)
    rounds = []
    for _ in range(2000):
        ids = np.sort(rng.choice(20, size=k, replace=False))
        comm, _ = draw_round_costs(profile, ids, rng)
        job = RoundJob(comp=profile.t_comp[ids] * e, comm=comm, client_ids=ids)
        rounds.append(round_time(job, Strategy.OPTIMAL_TS))
    exact = expected_time_exact(k, e, 1, profile)
    se = np.std(rounds, ddof=1) / math.sqrt(len(rounds))
    assert se < 0.005 * exact  # well inside the bound
    assert np.mean(rounds) == pytest.approx(exact, rel=0.02)


def test_expected_time_approx_example():
    assert expected_time_approx(10, 20, 3, costs_with(0.0)) == pytest.approx(36.0)


def test_approx_upper_bounds_exact_for_heterogeneous_fleets():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        t = rng.uniform(0.05, 2.0, n)
        p = SystemProfile(t, np.full(n, 0.01), np.full(n, 0.2), np.full(n, 0.02), 0.0)
        c = AveragedCosts(n, float(t.mean()), 0.2, 0.01, 0.02, 0.0)
        for k in range(2, n + 1, max(1, n // 4)):
            assert expected_time_approx(k, 6, 2, c) >= expected_time_exact(k, 6, 2, p) - 1e-9


def test_expected_time_exact_rejects_k_above_n():
    p = homogeneous_profile(5, 0.5, 0.2)
    with pytest.raises(ValueError):
        expected_time_exact(6, 1, 1, p)


def test_fastest_client_weights_sum_to_one_exactly():
    # telescoping float weights agree with the exact integer identity
    for n in range(2, 61, 7):
        for k in range(1, n + 1, max(1, n // 5)):
            assert sum(math.comb(n - i, k - 1) for i in range(1, n - k + 2)) == math.comb(n, k)
            p = homogeneous_profile(n, 1.0, 0.2)
            comp_term = expected_time_exact(k, 1, 1, p) - 0.2 * k
            assert comp_term == pytest.approx(1.0, rel=1e-12)


def test_sampling_penalty_boundaries():
    assert sampling_penalty(100, 100) == pytest.approx(1.0)
    assert sampling_penalty(1, 100) == pytest.approx(2.0)
    assert sampling_penalty(1, 1) == pytest.approx(1.0)


def test_convergence_bound_example():
    costs, coeffs = costs_with(0.5, n=100), ConvergenceCoeffs(rho=100)
    assert convergence_bound(10, 10, 21, costs, coeffs) == pytest.approx(0.9956709956709956)


def test_convergence_bound_monotone_in_r_and_k():
    costs, coeffs = costs_with(0.5, n=50), ConvergenceCoeffs(rho=500)

    def bound(k, r):
        return convergence_bound(k, 10, r, costs, coeffs)

    assert bound(5, 20) > bound(5, 40)
    assert bound(5, 20) > bound(25, 20)


def test_rounds_needed_example():
    costs, coeffs = costs_with(0.5, n=100), ConvergenceCoeffs(rho=100)
    assert rounds_needed(10, 10, costs, coeffs) == pytest.approx(20.909090909090907)


def test_rounds_needed_minimized_at_sqrt_rho_over_phi():
    costs, coeffs = costs_with(0.5, n=60), ConvergenceCoeffs(rho=400)
    for k in (1, 10, 60):
        phi = sampling_penalty(k, 60)
        e_star = math.sqrt(coeffs.rho / phi)
        grid = np.linspace(max(1e-3, e_star / 10), e_star * 10, 20001)
        vals = rounds_needed(k, grid, costs, coeffs)
        assert grid[np.argmin(vals)] == pytest.approx(e_star, rel=1e-3)


def test_bound_inverts_rounds_needed():
    costs, coeffs = costs_with(0.5, n=100), ConvergenceCoeffs(rho=1850)
    for k, e in ((1, 5), (10, 20), (100, 3)):
        r = rounds_needed(k, e, costs, coeffs)
        assert convergence_bound(k, e, r, costs, coeffs) == pytest.approx(1.0, rel=1e-12)


_COEFFS = ConvergenceCoeffs(rho=50)
# each case: (function of K, E and the costs, whether E enters its result)
_BROADCASTING = {
    "sampling_penalty_n1": (lambda k, e, c: sampling_penalty(k, 1), False),
    "sampling_penalty": (lambda k, e, c: sampling_penalty(k, c.n_clients), False),
    "expected_energy": (lambda k, e, c: expected_energy(k, e, 3, c), True),
    "expected_time_approx": (lambda k, e, c: expected_time_approx(k, e, 3, c), True),
    "rounds_needed": (lambda k, e, c: rounds_needed(k, e, c, _COEFFS), True),
    "convergence_bound": (lambda k, e, c: convergence_bound(k, e, 3, c, _COEFFS), True),
    "p3_objective": (lambda k, e, c: p3_objective(k, e, c, _COEFFS), True),
    **{
        f"cost_report.{f.name}": (
            lambda k, e, c, name=f.name: getattr(cost_report(k, e, c, _COEFFS), name), True
        )
        for f in fields(CostReport)
    },
}


@pytest.mark.parametrize("case", list(_BROADCASTING))
def test_scalar_inputs_give_scalars_and_arrays_broadcast(case):
    f, uses_e = _BROADCASTING[case]
    costs = costs_with(0.5, n=10)
    for k, e in ((2, 3), (2.5, 3.0), (np.float64(4), np.int64(7))):
        out = f(k, e, costs)
        assert np.ndim(out) == 0 and not isinstance(out, np.ndarray), type(out)
    k, e = np.array([[1.0], [4.0]]), np.array([1, 2, 5])
    out = f(k, e, costs)
    assert isinstance(out, np.ndarray)
    assert out.shape == ((2, 3) if uses_e else (2, 1))


def test_p3_objective_example():
    costs = costs_with(0.0)
    coeffs = ConvergenceCoeffs(rho=1850)
    assert p3_objective(10, 20, costs, coeffs) == pytest.approx(1371.818181818182)


def test_p3_pure_energy_increases_in_k():
    costs = costs_with(1.0)
    coeffs = ConvergenceCoeffs(rho=1850)
    vals = p3_objective(np.arange(1, 101, dtype=float), 20.0, costs, coeffs)
    assert np.all(np.diff(vals) > 0)


def test_p3_equals_blended_cost_at_required_rounds():
    rng = np.random.default_rng(21)
    for _ in range(25):
        costs = random_costs(rng)
        coeffs = ConvergenceCoeffs(rho=float(10 ** rng.uniform(1, 4)))
        k = float(rng.uniform(1, costs.n_clients))
        e = float(rng.uniform(1, 80))
        r = rounds_needed(k, e, costs, coeffs)
        blended = costs.gamma * expected_energy(k, e, r, costs) + (
            1 - costs.gamma
        ) * expected_time_approx(k, e, r, costs)
        assert p3_objective(k, e, costs, coeffs) == blended


def test_p3_rejects_non_positive_controls():
    costs = costs_with(0.5)
    coeffs = ConvergenceCoeffs(rho=10)
    with pytest.raises(ValueError):
        p3_objective(0, 5, costs, coeffs)
    with pytest.raises(ValueError):
        p3_objective(5, -1, costs, coeffs)


def second_difference(f, x, h):
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


def test_objective_is_biconvex_by_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(10):
        costs = random_costs(rng, gamma=float(rng.uniform(0, 0.9)))
        n = costs.n_clients
        coeffs = ConvergenceCoeffs(rho=float(10 ** rng.uniform(1, 4)))
        for k in np.linspace(1, n, 9):
            for e in np.linspace(1, 100, 9):
                d2k = second_difference(
                    lambda kk: p3_objective(kk, e, costs, coeffs), k, 1e-3 * k
                )
                d2e = second_difference(
                    lambda ee: p3_objective(k, ee, costs, coeffs), e, 1e-3 * e
                )
                assert d2k > 0
                assert d2e > 0


def test_cost_report_consistency(sim_costs):
    coeffs = ConvergenceCoeffs(rho=1850)
    rep = cost_report(10, 20, sim_costs, coeffs)
    assert rep.total_cost == (
        sim_costs.gamma * rep.expected_energy + (1 - sim_costs.gamma) * rep.expected_time
    )
    assert rep.total_cost == p3_objective(10, 20, sim_costs, coeffs)


_PRICE = st.floats(1e-4, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    costs=st.builds(
        AveragedCosts,
        n_clients=st.one_of(st.just(1), st.integers(1, 200)),
        t_p=_PRICE, t_m=_PRICE, e_p=_PRICE, e_m=_PRICE,
        gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    ),
    rho=st.floats(0.1, 1e5),
    k_share=st.floats(0.0, 1.0),
    e_row=st.lists(st.one_of(st.integers(1, 100), st.floats(1.0, 100.0)), min_size=1,
                   max_size=30),
)
def test_one_call_per_row_equals_the_cells_bit_for_bit(costs, rho, k_share, e_row):
    # cost_report is the one blended-cost formula: a row call (as the cost
    # surface makes) and p3_objective (grid search, ACS) give each cell's bits
    coeffs = ConvergenceCoeffs(rho=rho)
    k = 1.0 + k_share * (costs.n_clients - 1)
    row = cost_report(k, np.array(e_row, dtype=float), costs, coeffs)
    for j, e in enumerate(e_row):
        cell = cost_report(k, e, costs, coeffs)
        for field in fields(CostReport):
            assert getattr(row, field.name)[j] == getattr(cell, field.name)
        assert p3_objective(k, e, costs, coeffs) == cell.total_cost
    assert p3_objective(k, e_row, costs, coeffs).tobytes() == row.total_cost.tobytes()


def test_cost_surface_dump(tmp_path, sim_costs):
    coeffs = ConvergenceCoeffs(rho=1850)
    path = tmp_path / "surface.csv"
    dump_cost_surface(str(path), sim_costs, coeffs, range(1, 4), range(1, 6))
    lines = path.read_text().splitlines()
    assert lines[0] == "k,e,objective,time_term,energy_term"
    assert len(lines) == 1 + 3 * 5
    assert all(len(line.split(",")) == 5 for line in lines[1:])
