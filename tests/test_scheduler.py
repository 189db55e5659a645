import numpy as np
import pytest

from fedcost.scheduler import (
    RoundJob,
    Strategy,
    brute_force_min_time,
    round_time,
)


def job(comp, comm, ids=None):
    return RoundJob(
        comp=np.asarray(comp, dtype=float),
        comm=np.asarray(comm, dtype=float),
        client_ids=None if ids is None else np.asarray(ids),
    )


def random_job(rng, k):
    return job(rng.uniform(0.1, 5.0, k), rng.uniform(0.1, 5.0, k))


def random_grid_job(rng, k):
    """Times on a dyadic grid: every chain sum is exact in float64, so the
    brute-force comparison is free of rounding noise."""
    scale = 2.0**-20
    return job(
        rng.integers(1, 5_000_000, k) * scale,
        rng.integers(1, 5_000_000, k) * scale,
    )


def test_sequential_chain_recursion():
    # sorted comp (1,2,3) with comm (0.4,0.3,0.2): T1=1.4, T2=2.3, T3=3.2
    assert round_time(job([1.0, 2.0, 3.0], [0.4, 0.3, 0.2]), Strategy.OPTIMAL_TS) == pytest.approx(3.2)


def test_three_strategies_hand_example():
    j = job([1.0, 10.0], [2.0, 1.0])
    assert round_time(j, Strategy.OPTIMAL_TS) == pytest.approx(11.0)
    assert round_time(j, Strategy.WAIT_ALL_TS) == pytest.approx(13.0)
    assert round_time(j, Strategy.STATIC_FS) == pytest.approx(12.0)


def test_single_client_all_strategies_agree():
    j = job([2.5], [0.7])
    for s in Strategy:
        assert round_time(j, s) == pytest.approx(3.2)


def test_brute_force_matches_recursion_example():
    t, perm = brute_force_min_time(job([1.0, 2.0, 3.0], [0.4, 0.3, 0.2]))
    assert t == pytest.approx(3.2)
    assert perm == (0, 1, 2)


def test_brute_force_two_client_example():
    t, perm = brute_force_min_time(job([5.0, 1.0], [1.0, 1.0], ids=[0, 1]))
    assert t == pytest.approx(6.0)
    assert perm == (1, 0)  # ascending computation time


def test_brute_force_identical_clients():
    j = job([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
    t, _ = brute_force_min_time(j)
    assert t == pytest.approx(round_time(j, Strategy.OPTIMAL_TS))


def test_brute_force_guard():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        brute_force_min_time(random_job(rng, 10))


def test_sorted_order_is_optimal_on_random_jobs():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        j = random_grid_job(rng, int(rng.integers(2, 8)))
        t_opt = round_time(j, Strategy.OPTIMAL_TS)
        t_min, _ = brute_force_min_time(j)
        assert t_opt == t_min  # bit-identical: exact grid, same chain evaluation


def test_optimal_dominates_wait_all():
    rng = np.random.default_rng(5)
    for _ in range(300):
        j = random_job(rng, int(rng.integers(1, 12)))
        assert round_time(j, Strategy.OPTIMAL_TS) <= round_time(j, Strategy.WAIT_ALL_TS) + 1e-12


def test_lower_bound_on_round_time():
    rng = np.random.default_rng(6)
    for _ in range(300):
        j = random_job(rng, int(rng.integers(1, 12)))
        bound = max(float(j.comp.max()), float(j.comm.sum()))
        for s in (Strategy.OPTIMAL_TS, Strategy.WAIT_ALL_TS):
            assert round_time(j, s) >= bound - 1e-12


def test_input_order_does_not_matter():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        j = random_job(rng, k)
        perm = rng.permutation(k)
        shuffled = job(j.comp[perm], j.comm[perm], ids=j.client_ids[perm])
        for s in Strategy:
            assert round_time(j, s) == pytest.approx(round_time(shuffled, s), rel=1e-12)


def test_comp_ties_break_by_client_id():
    j1 = job([2.0, 2.0], [0.5, 3.0], ids=[0, 1])
    j2 = job([2.0, 2.0], [3.0, 0.5], ids=[1, 0])
    assert round_time(j1, Strategy.OPTIMAL_TS) == round_time(j2, Strategy.OPTIMAL_TS)


def test_job_validation():
    with pytest.raises(ValueError):
        job([], [])
    with pytest.raises(ValueError):
        job([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        job([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        job([1.0, 2.0], [1.0, 1.0], ids=[3, 3])


def test_strategy_parsing():
    assert Strategy.parse("optimal-ts") is Strategy.OPTIMAL_TS
    assert Strategy.parse("WAIT-ALL-TS") is Strategy.WAIT_ALL_TS
    with pytest.raises(ValueError):
        Strategy.parse("nonsense")

