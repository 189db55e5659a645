import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_costs
from fedcost.costmodel import ConvergenceCoeffs, p3_objective, sampling_penalty
from fedcost.learner import TrainConfig
from fedcost.optimizer import (
    EstimationError,
    EstimationPlan,
    PilotRecord,
    PilotTimeoutError,
    acs_optimize,
    estimate_rho,
    grid_search,
    rho_from_pilots,
    run_pilots,
    solve_e_given_k,
    solve_k_given_e,
    verify_properties,
    write_estimation_csv,
    write_solution_csv,
)
from fedcost.system import AveragedCosts


def golden_section(f, lo, hi, tol=1e-10):
    """Independent 1-d minimizer for checking the coordinate solvers."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def sim_costs_with(gamma):
    return AveragedCosts(100, 0.5, 0.2, 0.01, 0.02, gamma)


SIM_COEFFS = ConvergenceCoeffs(rho=1850.0)
# the training settings the pilots run with; each pilot sets its own k and e
PILOT_TRAIN = TrainConfig(k=None, e=None, seed=13)


def test_pure_energy_pricing_always_samples_one_client():
    for e in (1.0, 7.5, 60.0):
        assert solve_k_given_e(e, sim_costs_with(1.0), SIM_COEFFS) == 1.0


def test_k_solve_closed_form_example():
    k = solve_k_given_e(20.0, sim_costs_with(0.0), SIM_COEFFS)
    assert k == pytest.approx(3.00, abs=0.01)
    assert k * k == pytest.approx(8.995, abs=0.005)


def test_k_solve_matches_golden_section_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        costs = random_costs(rng, gamma=float(rng.uniform(0, 0.98)))
        coeffs = ConvergenceCoeffs(rho=float(10 ** rng.uniform(1, 4)))
        e = float(rng.uniform(1, 60))
        k_closed = solve_k_given_e(e, costs, coeffs)
        k_oracle = golden_section(
            lambda k: p3_objective(k, e, costs, coeffs), 1.0, float(costs.n_clients)
        )
        assert k_closed == pytest.approx(k_oracle, rel=1e-6, abs=1e-6)


def test_e_solve_cubic_example():
    e = solve_e_given_k(1, sim_costs_with(1.0), SIM_COEFFS)
    assert e == pytest.approx(9.42, abs=0.01)
    assert e**3 + e**2 == pytest.approx(925.0, abs=0.05)


def test_e_solve_matches_golden_section_oracle():
    rng = np.random.default_rng(32)
    for _ in range(20):
        costs = random_costs(rng)
        coeffs = ConvergenceCoeffs(rho=float(10 ** rng.uniform(1, 4)))
        k = float(rng.uniform(1, costs.n_clients))
        e_root = solve_e_given_k(k, costs, coeffs)
        e_oracle = golden_section(lambda e: p3_objective(k, e, costs, coeffs), 1.0, 1e4)
        assert p3_objective(k, e_root, costs, coeffs) == pytest.approx(
            p3_objective(k, e_oracle, costs, coeffs), rel=1e-8
        )


def test_e_solve_depends_only_on_energy_ratio_at_gamma_one():
    base = AveragedCosts(100, 0.5, 0.2, 0.01, 0.02, 1.0)
    scaled = AveragedCosts(100, 0.5, 0.2, 0.07, 0.14, 1.0)
    e1 = solve_e_given_k(4, base, SIM_COEFFS)
    e2 = solve_e_given_k(4, scaled, SIM_COEFFS)
    assert e1 == pytest.approx(e2, abs=1e-6)


_LOG_PRICE = st.floats(-6.0, 4.0).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(
    costs=st.builds(
        AveragedCosts,
        n_clients=st.integers(1, 1000),
        t_p=_LOG_PRICE, t_m=_LOG_PRICE, e_p=_LOG_PRICE, e_m=_LOG_PRICE,
        gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    ),
    rho=st.floats(-6.0, 20.0).map(lambda x: 10.0**x),
    k_share=st.floats(0.0, 1.0),
)
def test_e_solve_lands_on_the_cubic_root(costs, rho, k_share):
    # phi (2 a E^3 + b E^2) - rho b rises strictly from -rho b at E = 0, so
    # its sign at 1 and at the 1e6 ceiling places the root
    k = 1.0 + k_share * (costs.n_clients - 1)
    g = costs.gamma
    phi = sampling_penalty(k, costs.n_clients)
    a = (1.0 - g) * costs.t_p + g * k * costs.e_p
    b = (1.0 - g) * costs.t_m * k + g * k * costs.e_m

    def residual(e):
        return (phi * (2.0 * a * e**3 + b * e**2) - rho * b) / (rho * b)

    coeffs = ConvergenceCoeffs(rho=rho)
    if residual(1e6) < 0:
        with pytest.raises(ValueError, match="e_max"):
            solve_e_given_k(k, costs, coeffs)
    elif residual(1.0) >= 0:
        assert solve_e_given_k(k, costs, coeffs) == 1.0
    else:
        assert abs(residual(solve_e_given_k(k, costs, coeffs))) <= 1e-11


def test_e_solve_lands_on_the_root_where_its_scaled_cubic_overflows():
    # rho = 1e300 and a / b = 2.5e290 put E* at 1000, where the scaled
    # cubic's right-hand side 3 sqrt(3 rho / phi) a / b is past the float range
    costs = AveragedCosts(n_clients=10, t_p=2.5e290, t_m=1.0, e_p=1.0, e_m=1.0, gamma=0.0)
    e = solve_e_given_k(1, costs, ConvergenceCoeffs(rho=1e300))
    phi = float(sampling_penalty(1, 10))
    assert abs(phi * (2.0 * 2.5e290 * e**3 + e**2) / 1e300 - 1.0) <= 1e-11


def test_e_solve_respects_ceiling():
    # this rho puts the E minimizer past the 1e6 search ceiling
    with pytest.raises(ValueError, match="e_max"):
        solve_e_given_k(1, sim_costs_with(1.0), ConvergenceCoeffs(rho=1e25))


def test_acs_pure_energy_returns_one_for_any_start():
    assert acs_optimize(sim_costs_with(1.0), SIM_COEFFS).k_star == 1


def test_acs_matches_grid_on_simulation_parameters():
    costs = sim_costs_with(0.5)
    sol = acs_optimize(costs, SIM_COEFFS)
    grid = grid_search(costs, SIM_COEFFS, range(1, 101), range(1, 101))
    assert sol.predicted_cost <= grid.predicted_cost * 1.01


def test_acs_objective_descends_along_trajectory():
    rng = np.random.default_rng(33)
    for _ in range(20):
        costs = random_costs(rng)
        coeffs = ConvergenceCoeffs(rho=float(10 ** rng.uniform(1, 4)))
        sol = acs_optimize(costs, coeffs)
        vals = [p3_objective(k, e, costs, coeffs) for k, e in sol.trajectory]
        assert all(b <= a + 1e-9 * max(1, abs(a)) for a, b in zip(vals, vals[1:]))
        assert sol.converged


def test_acs_rounding_picks_best_integer_candidate():
    rng = np.random.default_rng(34)
    for _ in range(10):
        costs = random_costs(rng)
        coeffs = ConvergenceCoeffs(rho=float(10 ** rng.uniform(1, 4)))
        sol = acs_optimize(costs, coeffs)
        k_cont, e_cont = sol.trajectory[-1]
        candidates = {
            (int(min(max(f(k_cont), 1), costs.n_clients)), int(max(g(e_cont), 1)))
            for f in (math.floor, math.ceil)
            for g in (math.floor, math.ceil)
        }
        best = min(p3_objective(k, e, costs, coeffs) for k, e in candidates)
        assert sol.predicted_cost == pytest.approx(best, rel=1e-12)


def test_acs_flags_non_convergence_at_sweep_cap(monkeypatch):
    monkeypatch.setattr("fedcost.optimizer._MAX_SWEEPS", 1)
    monkeypatch.setattr("fedcost.optimizer._TOL", 1e-12)
    sol = acs_optimize(sim_costs_with(0.5), SIM_COEFFS)
    assert not sol.converged
    assert sol.k_star >= 1 and sol.e_star >= 1  # still returns the best iterate


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("rho", [1.0, 500.0, 1e5])
def test_acs_matches_grid_on_a_one_client_fleet(gamma, rho):
    # at N = 1 the K solve's closed form is 0/0, so it returns K = 1 directly
    costs = AveragedCosts(1, 0.5, 0.2, 0.01, 0.02, gamma)
    coeffs = ConvergenceCoeffs(rho=rho)
    sol = acs_optimize(costs, coeffs)
    grid = grid_search(costs, coeffs, [1], range(1, 2001))
    assert (sol.k_star, sol.e_star, sol.r_star) == (grid.k_star, grid.e_star, grid.r_star)


def test_grid_search_single_cell():
    sol = grid_search(sim_costs_with(0.5), SIM_COEFFS, [7], [13])
    assert (sol.k_star, sol.e_star) == (7, 13)


def test_grid_search_gamma_one_prefers_one_client():
    sol = grid_search(sim_costs_with(1.0), SIM_COEFFS, range(1, 101), range(1, 101))
    assert sol.k_star == 1


def test_grid_dominates_acs_when_acs_lands_on_grid():
    costs = sim_costs_with(0.4)
    sol = acs_optimize(costs, SIM_COEFFS)
    grid = grid_search(costs, SIM_COEFFS, range(1, 101), range(1, 101))
    if sol.e_star <= 100:
        assert grid.predicted_cost <= sol.predicted_cost + 1e-12


def test_grid_search_rejects_empty_or_infeasible():
    with pytest.raises(ValueError):
        grid_search(sim_costs_with(0.5), SIM_COEFFS, [], [1])
    with pytest.raises(ValueError):
        grid_search(sim_costs_with(0.5), SIM_COEFFS, [0], [1])


def synthetic_records(rho, pairs, n_clients, delta=1.0):
    """Forward-model pilot records whose scaled gaps follow the budget
    formula exactly (round counts kept real-valued via large scaling)."""
    records = []
    for k, e in pairs:
        gap = delta * (rho + float(sampling_penalty(k, n_clients)) * e * e) / e
        records.append(
            PilotRecord(k=k, e=e, rounds_to_a=0, rounds_to_b=gap)
        )
    return records


def test_rho_recovery_from_noiseless_pairs():
    # worked two-pilot instance: scaled gaps 1109.09 and 1416.16 pin rho=1000
    records = [
        PilotRecord(k=10, e=10, rounds_to_a=0, rounds_to_b=1109.0909090909091 / 10),
        PilotRecord(k=20, e=20, rounds_to_a=0, rounds_to_b=1416.1616161616162 / 20),
    ]
    assert rho_from_pilots(records, 100) == pytest.approx(1000.0, rel=1e-9)


def test_rho_recovery_is_exact_for_any_well_separated_plan():
    rng = np.random.default_rng(35)
    for _ in range(20):
        n = int(rng.integers(20, 200))
        rho = float(10 ** rng.uniform(1, 5))
        pairs = [(int(rng.integers(1, n + 1)), int(rng.integers(1, 80))) for _ in range(4)]
        x = {(k, e): float(sampling_penalty(k, n)) * e * e for k, e in pairs}
        if max(x.values()) / min(x.values()) < 1.3:
            continue  # too clustered for the separation filter
        got = rho_from_pilots(synthetic_records(rho, pairs, n), n)
        assert got == pytest.approx(rho, rel=1e-6)


def test_identical_pilots_are_discarded():
    records = synthetic_records(500.0, [(5, 10), (5, 10)], 50)
    with pytest.raises(EstimationError, match="spread"):
        rho_from_pilots(records, 50)


@pytest.mark.parametrize("records, counts", [
    ([PilotRecord(k=k, e=e, rounds_to_a=3, rounds_to_b=3) for k, e in [(2, 5), (5, 10), (10, 20)]],
     "3 with a pilot crossed both levels in one round"),
    (synthetic_records(500.0, [(5, 10)] * 3, 50), "3 with gap ratio within 0.05 of 1"),
    # the gap E (R_b - R_a) shrinks as E grows, which only a negative rho explains
    ([PilotRecord(k=5, e=e, rounds_to_a=0, rounds_to_b=r) for e, r in [(10, 40), (40, 5), (160, 1)]],
     "3 with rho <= 0"),
    ([PilotRecord(k=5, e=10, rounds_to_a=3, rounds_to_b=3)]
     + synthetic_records(500.0, [(5, 10)] * 2, 50),
     "2 with a pilot crossed both levels in one round, 1 with gap ratio within 0.05 of 1"),
], ids=["one-round-crossing", "near-equal-gaps", "negative-rho", "mixed"])
def test_all_discarded_pairs_are_counted_by_reason(records, counts):
    with pytest.raises(EstimationError,
                       match=rf"^every pilot pair was discarded \({counts}\); .* spread"):
        rho_from_pilots(records, 50)


def test_prototype_style_pilot_table_lands_in_the_right_decade():
    # five pilots with recorded level-crossing rounds; the recovered ratio
    # should land in the tens of thousands.
    pairs = [(1, 30), (5, 80), (10, 40), (15, 100), (20, 50)]
    ra = [50, 17, 17, 13, 14]
    rb = [75, 32, 30, 21, 25]
    records = [
        PilotRecord(k=k, e=e, rounds_to_a=a, rounds_to_b=b)
        for (k, e), a, b in zip(pairs, ra, rb)
    ]
    rho = rho_from_pilots(records, 30)
    assert 1e4 < rho < 1e5


def test_estimate_rho_end_to_end(desk_dataset, desk_profile):
    plan = EstimationPlan(
        pairs=((2, 5), (5, 10), (10, 20), (16, 40)), loss_a=1.9, loss_b=1.7, round_cap=400
    )
    est = estimate_rho(plan, desk_dataset, desk_profile, PILOT_TRAIN)
    assert est.rho > 0
    assert est.pilot_steps == sum(r.k * r.e * r.rounds_to_b for r in est.records) > 0
    assert len(est.records) == 4
    for rec in est.records:
        assert 1 <= rec.rounds_to_a <= rec.rounds_to_b


def test_pilot_timeout_is_reported(desk_dataset, desk_profile):
    plan = EstimationPlan(pairs=((2, 5), (5, 10)), loss_a=0.2, loss_b=0.1, round_cap=5)
    with pytest.raises(PilotTimeoutError):
        run_pilots(plan, desk_dataset, desk_profile, PILOT_TRAIN)


def test_estimation_plan_validation():
    with pytest.raises(ValueError):
        EstimationPlan(pairs=((2, 5),), loss_a=1.9, loss_b=1.7)
    with pytest.raises(ValueError):
        EstimationPlan(pairs=((2, 5), (2, 5)), loss_a=1.9, loss_b=1.7)
    with pytest.raises(ValueError):
        EstimationPlan(pairs=((2, 5), (4, 9)), loss_a=1.0, loss_b=1.5)


def test_continuous_k_minimizer_monotone_in_gamma():
    ks = [
        solve_k_given_e(20.0, sim_costs_with(g), SIM_COEFFS)
        for g in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    assert ks[-1] == 1.0


def test_verify_properties_all_pass_on_simulation_parameters():
    findings = verify_properties(sim_costs_with(0.5), SIM_COEFFS)
    failed = [f.name for f in findings if not f.passed]
    assert not failed, failed


def test_verify_properties_covers_the_advertised_claims():
    names = {f.name for f in verify_properties(sim_costs_with(0.5), SIM_COEFFS)}
    assert "k_star_non_increasing_in_gamma" in names
    assert "k_star_is_one_at_gamma_one" in names
    assert "e_star_rises_when_ep_falls" in names
    assert any(name.startswith("objective_unimodal_in_e") for name in names)


def test_report_writers(tmp_path):
    records = synthetic_records(100.0, [(2, 4), (8, 16)], 30)
    est_path = tmp_path / "estimation.csv"
    write_estimation_csv(records, str(est_path))
    assert est_path.read_text().splitlines()[0] == (
        "pilot_k,pilot_e,rounds_to_loss_a,rounds_to_loss_b"
    )
    sol = acs_optimize(sim_costs_with(0.5), SIM_COEFFS)
    sol_path = tmp_path / "solution.csv"
    write_solution_csv(sol, str(sol_path), rho=SIM_COEFFS.rho, overhead=0.25)
    lines = sol_path.read_text().splitlines()
    assert lines[0] == "k_star,e_star,r_star,predicted_cost,converged,rho,overhead_ratio"
    assert len(lines) == 2
