import json

import numpy as np
import pytest

from fedcost.system import (
    AveragedCosts,
    SystemProfile,
    averaged_costs,
    draw_round_costs,
    load_profile,
    sample_profile,
)


def test_prototype_like_profile_shapes():
    p = sample_profile(30, 4.9e-3, 1.43e-3, 1e-3, 0.16, 2e-3, 0.05, seed=0)
    assert p.n_clients == 30
    assert np.all(p.t_comp > 0)
    assert abs(p.comm_time_mean.mean() - 0.16) < 1e-12


def test_simulation_like_profile_means():
    p = sample_profile(100, 0.5, 0.15, 0.01, 0.2, 0.02, 0.1, seed=3)
    assert abs(p.comm_time_mean.mean() - 0.2) < 1e-12
    assert abs(p.comm_energy_mean.mean() - 0.02) < 1e-12
    assert np.all(p.t_comp > 0) and np.all(p.e_comp > 0)


def test_averaged_costs_match_profile_exactly():
    p = sample_profile(50, 0.5, 0.2, 0.01, 0.2, 0.02, 0.1, seed=9)
    c = averaged_costs(p, gamma=0.3)
    assert c.t_p == pytest.approx(p.t_comp.mean(), abs=1e-12)
    assert c.t_m == pytest.approx(p.comm_time_mean.mean(), abs=1e-12)
    assert c.e_p == pytest.approx(p.e_comp.mean(), abs=1e-12)
    assert c.e_m == pytest.approx(p.comm_energy_mean.mean(), abs=1e-12)
    assert c.gamma == 0.3 and c.n_clients == 50


def test_wide_spread_redraws_to_positive_repeatable_draws():
    # at std = 10 x mean about 46% of plain normal draws are <= 0, so the
    # truncated draw must redraw them
    assert np.mean(np.random.default_rng(0).normal(0.05, 0.5, 10_000) <= 0) > 0.4
    p = sample_profile(200, 0.05, 0.5, 0.01, 0.2, 0.02, 0.1, seed=4)
    q = sample_profile(200, 0.05, 0.5, 0.01, 0.2, 0.02, 0.1, seed=4)
    assert np.all(p.t_comp > 0) and np.all(p.e_comp > 0)
    np.testing.assert_array_equal(p.t_comp, q.t_comp)
    np.testing.assert_array_equal(p.e_comp, q.e_comp)
    # truncating to (0, inf) lifts the mean well above the untruncated one
    assert p.t_comp.mean() > 0.2


def test_rejects_non_positive_means():
    with pytest.raises(ValueError):
        sample_profile(10, 0.0, 0.1, 0.01, 0.2, 0.02, 0.1, seed=0)
    with pytest.raises(ValueError):
        sample_profile(10, 0.5, 0.1, -0.01, 0.2, 0.02, 0.1, seed=0)


def test_zero_jitter_draws_equal_means():
    p = sample_profile(5, 0.5, 0.1, 0.01, 0.2, 0.02, jitter=0.0, seed=1)
    t, e = draw_round_costs(p, [0, 2, 4], np.random.default_rng(0))
    np.testing.assert_array_equal(t, p.comm_time_mean[[0, 2, 4]])
    np.testing.assert_array_equal(e, p.comm_energy_mean[[0, 2, 4]])
    # zero spread: every client's comm means are the population means, exactly
    p = sample_profile(5, 0.5, 0.1, 0.01, 0.2, 0.02, jitter=0.0, seed=1, comm_spread=0)
    np.testing.assert_array_equal(p.comm_time_mean, np.full(5, 0.2))
    np.testing.assert_array_equal(p.comm_energy_mean, np.full(5, 0.02))


def test_draw_means_converge_to_configured_means():
    p = sample_profile(4, 0.5, 0.1, 0.01, 0.2, 0.02, jitter=0.2, seed=2)
    rng = np.random.default_rng(7)
    n = 100_000
    draws = np.empty((n, 4))
    for i in range(n):
        draws[i], _ = draw_round_costs(p, [0, 1, 2, 3], rng)
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - p.comm_time_mean) < 3 * se)
    assert np.all(draws > 0)


def test_independent_streams_differ_but_match_marginals():
    p = sample_profile(3, 0.5, 0.1, 0.01, 0.2, 0.02, jitter=0.3, seed=2)
    t1, _ = draw_round_costs(p, [0, 1, 2], np.random.default_rng(1))
    t2, _ = draw_round_costs(p, [0, 1, 2], np.random.default_rng(2))
    assert not np.array_equal(t1, t2)


def test_draw_round_costs_validates_ids():
    p = sample_profile(3, 0.5, 0.1, 0.01, 0.2, 0.02, 0.1, seed=0)
    with pytest.raises(ValueError):
        draw_round_costs(p, [3], np.random.default_rng(0))
    with pytest.raises(ValueError):
        draw_round_costs(p, [], np.random.default_rng(0))


def test_profile_freezes_copies_not_the_callers_arrays():
    t_comp = np.ones(3)
    p = SystemProfile(t_comp, np.ones(3), np.ones(3), np.ones(3), comm_jitter=0.1)
    assert t_comp.flags.writeable
    t_comp[0] = 2.0
    assert p.t_comp[0] == 1.0
    assert not p.t_comp.flags.writeable


def test_profile_needs_a_client():
    with pytest.raises(ValueError, match="t_comp"):
        SystemProfile([], [], [], [], comm_jitter=0.1)


def test_profile_json_roundtrip(tmp_path):
    p = sample_profile(8, 0.5, 0.1, 0.01, 0.2, 0.02, 0.15, seed=5)
    path = tmp_path / "profile.json"
    with open(path, "w") as fh:
        json.dump({
            "n_clients": p.n_clients,
            "t_comp": p.t_comp.tolist(),
            "e_comp": p.e_comp.tolist(),
            "comm_time_mean": p.comm_time_mean.tolist(),
            "comm_energy_mean": p.comm_energy_mean.tolist(),
            "jitter": p.comm_jitter,
        }, fh)
    q = load_profile(str(path))
    np.testing.assert_array_equal(p.t_comp, q.t_comp)
    np.testing.assert_array_equal(p.comm_energy_mean, q.comm_energy_mean)
    assert q.comm_jitter == p.comm_jitter


def test_profile_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text('{"n_clients": 1, "t_comp": [1], "e_comp": [1], '
                    '"comm_time_mean": [1], "comm_energy_mean": [1], "jitter": 0, "extra": 1}')
    with pytest.raises(ValueError):
        load_profile(str(path))


def test_averaged_costs_validation():
    with pytest.raises(ValueError):
        AveragedCosts(10, 0.5, 0.2, 0.01, 0.02, gamma=1.5)
    with pytest.raises(ValueError):
        AveragedCosts(10, -0.5, 0.2, 0.01, 0.02, gamma=0.5)
