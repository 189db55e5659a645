import multiprocessing
import os
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import usable_cpus
from fedcost import learner
from fedcost.datagen import FederatedDataset, gen_synthetic
from fedcost.learner import (
    ModelParams,
    TrainConfig,
    _hot,
    _row_max,
    aggregate,
    ce_gradient,
    export_traces,
    global_loss,
    local_sgd,
    mean_cross_entropy,
    run_fedavg,
    train_all,
)
from fedcost.scheduler import Strategy, round_time
from fedcost.seeding import sub_seed
from fedcost.system import draw_round_costs, sample_profile


def packed(shards, n_classes):
    """A dataset over independent (features, labels) shard arrays."""
    return FederatedDataset(
        np.concatenate([x for x, _ in shards]),
        np.concatenate([y for _, y in shards]),
        [y.size for _, y in shards],
        n_classes,
    )


def scalar_dataset(counts, values=None):
    """1-feature, 2-class dataset with given shard sizes (for weight math)."""
    rng = np.random.default_rng(0)
    return packed([(rng.standard_normal((n, 1)), rng.integers(0, 2, n)) for n in counts], 2)


def test_zero_model_loss_is_log_class_count(small_dataset):
    z = ModelParams.zeros(small_dataset.n_classes, small_dataset.n_features)
    assert abs(global_loss(z, small_dataset) - np.log(small_dataset.n_classes)) < 1e-12


def test_single_client_loss_equals_local_loss():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((25, 4)), rng.integers(0, 3, 25)
    ds = FederatedDataset(x, y, [25], 3)
    m = ModelParams(rng.standard_normal((3, 4)), rng.standard_normal(3))
    assert global_loss(m, ds) == pytest.approx(mean_cross_entropy(m, x, y), rel=1e-15)


def test_equal_clients_average_their_losses():
    rng = np.random.default_rng(2)
    a = (rng.standard_normal((10, 4)), rng.integers(0, 3, 10))
    b = (rng.standard_normal((10, 4)), rng.integers(0, 3, 10))
    ds = packed([a, b], 3)
    m = ModelParams(rng.standard_normal((3, 4)), rng.standard_normal(3))
    la = mean_cross_entropy(m, *a)
    lb = mean_cross_entropy(m, *b)
    assert global_loss(m, ds) == pytest.approx((la + lb) / 2, rel=1e-14)


def test_global_loss_rejects_dimension_mismatch(small_dataset):
    with pytest.raises(ValueError):
        global_loss(ModelParams.zeros(3, small_dataset.n_features), small_dataset)


def fresh_global_loss(model, dataset):
    """global_loss with fresh arrays on every call: one product per shard,
    one softmax over all rows, then each shard's mean in shard order."""
    logits = np.empty((dataset.n, dataset.n_classes))
    w_t = model.weights.T
    spans = list(zip(dataset.offsets.tolist(), dataset.sizes.tolist()))
    for start, n_k in spans:
        np.matmul(dataset.features[start:start + n_k], w_t, out=logits[start:start + n_k])
    logits += model.bias
    logits -= np.maximum.reduce(np.ascontiguousarray(logits.T), axis=0)[:, None]
    picked = np.take(logits, np.arange(dataset.n) * dataset.n_classes + dataset.labels)
    np.exp(logits, out=logits)
    ll = picked - np.log(np.add.reduce(logits, axis=1))
    total = 0.0
    for start, n_k in spans:
        total += n_k * float(-np.add.reduce(ll[start:start + n_k]) / n_k)
    return total / dataset.n


@settings(max_examples=60, deadline=None)
@given(
    # shards cross the ~110 rows where OpenBLAS switches product kernels
    sizes=st.lists(st.integers(1, 200), min_size=1, max_size=6),
    n_features=st.integers(1, 40),
    n_classes=st.integers(2, 12),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4),
    scale=st.floats(-2.0, 1.0).map(lambda x: 10.0**x),
)
def test_global_loss_through_one_scratch_equals_fresh_arrays(sizes, n_features, n_classes,
                                                             seeds, scale):
    rng = np.random.default_rng(0)
    ds = packed([(rng.standard_normal((n, n_features)), rng.integers(0, n_classes, n))
                 for n in sizes], n_classes)
    scratch = learner._LossScratch(ds)
    # several models through the one scratch, so a stale buffer would show
    for seed in seeds:
        m_rng = np.random.default_rng(seed)
        m = ModelParams(scale * m_rng.standard_normal((n_classes, n_features)),
                        scale * m_rng.standard_normal(n_classes))
        expected = fresh_global_loss(m, ds)
        assert global_loss(m, ds, scratch).hex() == expected.hex()
        assert global_loss(m, ds).hex() == expected.hex()


def test_global_loss_with_its_scratch_allocates_less_than_the_logits():
    # a 200-client fleet, as fleet-sweep's: fresh per-call arrays peaked at
    # twice the (n, C) logits, and their freeing made glibc trim the heap
    ds = gen_synthetic(1, 1, 200, 50, 25, seed=7)
    rng = np.random.default_rng(3)
    m = ModelParams(rng.standard_normal((ds.n_classes, ds.n_features)),
                    rng.standard_normal(ds.n_classes))
    scratch = learner._LossScratch(ds)
    global_loss(m, ds, scratch)
    tracemalloc.start()
    try:
        global_loss(m, ds, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.n * ds.n_classes * 8


def test_local_sgd_zero_learning_rate_is_identity(small_dataset):
    m = ModelParams.zeros(small_dataset.n_classes, small_dataset.n_features)
    out = local_sgd(m, *small_dataset.shard(0), 5, 0.0, 8, np.random.default_rng(0))
    np.testing.assert_array_equal(out.weights, m.weights)
    np.testing.assert_array_equal(out.bias, m.bias)


def test_local_sgd_hand_gradient_step():
    # zero model, two classes, one sample x = e1 with label 0, lr = 0.1:
    # softmax is (0.5, 0.5), so row 0 gains +0.05 on the first coordinate
    # and row 1 loses 0.05.
    out = local_sgd(ModelParams.zeros(2, 4), np.eye(1, 4), np.array([0]), 1, 0.1, 8,
                    np.random.default_rng(0))
    np.testing.assert_allclose(out.weights[0], [0.05, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(out.weights[1], [-0.05, 0, 0, 0], atol=1e-15)


def test_local_sgd_steps_compose(small_dataset):
    x, y = small_dataset.shard(1)
    m = ModelParams.zeros(small_dataset.n_classes, small_dataset.n_features)
    rng_a = np.random.default_rng(42)
    two = local_sgd(m, x, y, 2, 0.05, 4, rng_a)
    rng_b = np.random.default_rng(42)
    one = local_sgd(m, x, y, 1, 0.05, 4, rng_b)
    again = local_sgd(one, x, y, 1, 0.05, 4, rng_b)
    np.testing.assert_array_equal(two.weights, again.weights)
    np.testing.assert_array_equal(two.bias, again.bias)


def test_local_sgd_leaves_input_untouched(small_dataset):
    m = ModelParams.zeros(small_dataset.n_classes, small_dataset.n_features)
    local_sgd(m, *small_dataset.shard(0), 3, 0.1, 8, np.random.default_rng(0))
    assert not m.weights.any() and not m.bias.any()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 5))
    y = rng.integers(0, 4, 12)
    m = ModelParams(0.4 * rng.standard_normal((4, 5)), 0.4 * rng.standard_normal(4))
    gw, gb = ce_gradient(m, x, y)
    h = 1e-6
    for _ in range(10):
        i, j = rng.integers(0, 4), rng.integers(0, 5)
        up = ModelParams(m.weights.copy(), m.bias.copy())
        dn = ModelParams(m.weights.copy(), m.bias.copy())
        up.weights[i, j] += h
        dn.weights[i, j] -= h
        fd = (mean_cross_entropy(up, x, y) - mean_cross_entropy(dn, x, y)) / (2 * h)
        assert gw[i, j] == pytest.approx(fd, rel=1e-5)


def stacked(models):
    """The (K, C, d) weight and (K, C) bias stacks of a list of models."""
    return np.stack([m.weights for m in models]), np.stack([m.bias for m in models])


def test_aggregate_singleton_returns_same_model():
    ds = scalar_dataset([4, 6])
    m = ModelParams(np.array([[1.5], [-2.0]]), np.array([0.3, 0.1]))
    out = aggregate([1], *stacked([m]), ds)
    np.testing.assert_allclose(out.weights, m.weights, rtol=1e-15)
    np.testing.assert_allclose(out.bias, m.bias, rtol=1e-15)


def test_aggregate_opposite_models_cancel():
    ds = scalar_dataset([5, 5])
    m = ModelParams(np.array([[2.0], [1.0]]), np.array([0.5, -0.5]))
    neg = ModelParams(-m.weights, -m.bias)
    out = aggregate([0, 1], *stacked([m, neg]), ds)
    np.testing.assert_allclose(out.weights, 0, atol=1e-15)


def test_aggregate_weighted_scalar_example():
    # shard sizes (1, 1, 2) and scalar models (1, 1, 4): 0.25+0.25+2 = 2.5
    ds = scalar_dataset([1, 1, 2])
    weights = np.array([[[1.0], [0.0]], [[1.0], [0.0]], [[4.0], [0.0]]])
    out = aggregate([0, 1, 2], weights, np.zeros((3, 2)), ds)
    assert out.weights[0, 0] == pytest.approx(2.5, rel=1e-15)


def test_aggregate_is_order_invariant():
    rng = np.random.default_rng(4)
    ds = scalar_dataset([3, 7, 11, 2])
    ids = np.arange(4)
    weights, biases = rng.standard_normal((4, 2, 1)), rng.standard_normal((4, 2))
    a = aggregate(ids, weights, biases, ds)
    b = aggregate(ids[::-1], weights[::-1], biases[::-1], ds)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.bias, b.bias)


def client_stacks(data, n_clients, shape):
    """Distinct client ids of [0, n_clients) in a drawn order, with a drawn
    weight and bias stack entry for each."""
    k = data.draw(st.integers(1, n_clients), label="K")
    ids = data.draw(st.permutations(range(n_clients)), label="ids")[:k]
    values = st.floats(-1e6, 1e6)
    weights = data.draw(hnp.arrays(float, (len(ids),) + shape, elements=values), label="weights")
    biases = data.draw(hnp.arrays(float, (len(ids), shape[0]), elements=values), label="biases")
    return np.array(ids), weights, biases


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_aggregate_does_not_depend_on_input_order(data):
    sizes = data.draw(st.lists(st.integers(1, 50), min_size=1, max_size=10), label="sizes")
    ds = scalar_dataset(sizes)
    ids, weights, biases = client_stacks(data, len(sizes), (2, 1))
    a = aggregate(ids, weights, biases, ds)
    # permute the ids and both stacks together
    order = np.array(data.draw(st.permutations(range(ids.size)), label="order"))
    b = aggregate(ids[order], weights[order], biases[order], ds)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_aggregate_equals_the_per_client_loop_in_id_order(data):
    n_clients = data.draw(st.integers(1, 30), label="n_clients")
    shape = (data.draw(st.integers(2, 4), label="C"), data.draw(st.integers(1, 5), label="d"))
    sizes = data.draw(st.lists(st.integers(1, 50), min_size=n_clients, max_size=n_clients),
                      label="sizes")
    rng = np.random.default_rng(0)
    ds = packed([(rng.standard_normal((n, shape[1])), rng.integers(0, shape[0], n))
                 for n in sizes], shape[0])
    ids, weights, biases = client_stacks(data, n_clients, shape)
    got = aggregate(ids, weights, biases, ds)

    # the per-client algorithm: (id, model) pairs summed in id order
    updates = sorted((cid, ModelParams(w, b)) for cid, w, b in zip(ids.tolist(), weights, biases))
    p = ds.weights
    w_sum = b_sum = None
    p_sum = 0.0
    for cid, m in updates:
        p_sum += p[cid]
        if w_sum is None:
            w_sum, b_sum = p[cid] * m.weights, p[cid] * m.bias
        else:
            w_sum += p[cid] * m.weights
            b_sum += p[cid] * m.bias
    assert got.weights.tobytes() == (w_sum / p_sum).tobytes()
    assert got.bias.tobytes() == (b_sum / p_sum).tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_aggregate_sums_like_a_loop_over_the_entries(data):
    # K up to 120 and entries of scales 1e-3 to 1e3: the sums must add whole
    # entries one after another in id order, and p's sum too
    n_clients = data.draw(st.integers(1, 120), label="n_clients")
    k = data.draw(st.integers(1, n_clients), label="K")
    ids = np.array(data.draw(st.permutations(range(n_clients)), label="ids")[:k])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ds = packed([(rng.standard_normal((n, 4)), rng.integers(0, 3, n))
                 for n in rng.integers(1, 200, n_clients).tolist()], 3)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, (k, 1, 1))
    weights = scales * rng.standard_normal((k, 3, 4))
    biases = scales[:, :, 0] * rng.standard_normal((k, 3))
    got = aggregate(ids, weights, biases, ds)

    order = np.argsort(ids)
    p = ds.weights[ids[order]]
    w = p[:, None, None] * weights[order]
    b = p[:, None] * biases[order]
    p_sum = p[0]
    for j in range(1, k):
        w[0] += w[j]
        b[0] += b[j]
        p_sum += p[j]
    assert got.weights.tobytes() == (w[0] / p_sum).tobytes()
    assert got.bias.tobytes() == (b[0] / p_sum).tobytes()


def test_aggregate_rejects_bad_updates():
    ds = scalar_dataset([2, 2])
    w, b = np.zeros((1, 2, 1)), np.zeros((1, 2))
    with pytest.raises(ValueError):
        aggregate([], w[:0], b[:0], ds)
    with pytest.raises(ValueError):
        aggregate([0, 0], np.repeat(w, 2, axis=0), np.repeat(b, 2, axis=0), ds)
    with pytest.raises(ValueError):
        aggregate([5], w, b, ds)
    with pytest.raises(ValueError, match="model parameters must be finite"):
        aggregate([0], np.full_like(w, np.inf), b, ds)


def desk_config(**kw):
    base = dict(k=10, e=20, batch_size=64, eta0=0.1, max_rounds=40, seed=9)
    base.update(kw)
    return TrainConfig(**base)


def test_fedavg_zero_rate_keeps_loss_at_log_c(desk_dataset, desk_profile):
    _, traces = run_fedavg(desk_dataset, desk_profile, desk_config(eta0=0.0, max_rounds=5))
    for t in traces:
        assert t.loss == pytest.approx(np.log(10), abs=1e-12)


def test_fedavg_full_participation_samples_everyone(desk_dataset, desk_profile):
    _, traces = run_fedavg(desk_dataset, desk_profile, desk_config(k=20, max_rounds=3))
    for t in traces:
        assert t.job.client_ids.tolist() == list(range(20))


def test_fedavg_traces_are_deterministic(desk_dataset, desk_profile):
    def key(x):
        job = x.job
        return (x.loss, x.energy_j,
                job.comp.tobytes(), job.comm.tobytes(), job.client_ids.tobytes())

    _, t1 = run_fedavg(desk_dataset, desk_profile, desk_config(max_rounds=6))
    _, t2 = run_fedavg(desk_dataset, desk_profile, desk_config(max_rounds=6))
    assert [key(x) for x in t1] == [key(x) for x in t2]


def test_fedavg_smoothed_loss_decreases(desk_dataset, desk_profile):
    _, traces = run_fedavg(desk_dataset, desk_profile, desk_config(max_rounds=100))
    losses = np.array([t.loss for t in traces])
    smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
    assert np.all(np.diff(smoothed) <= 1e-9)


def test_fedavg_sampling_is_without_replacement(desk_dataset, desk_profile):
    _, traces = run_fedavg(desk_dataset, desk_profile, desk_config(max_rounds=10))
    for t in traces:
        assert len(set(t.job.client_ids.tolist())) == 10


def test_fedavg_target_loss_stops_early(desk_dataset, desk_profile):
    _, traces = run_fedavg(
        desk_dataset, desk_profile, desk_config(max_rounds=200, target_loss=1.2)
    )
    assert traces[-1].loss <= 1.2
    assert all(t.loss > 1.2 for t in traces[:-1])


def test_fedavg_matches_centralized_gd_on_identical_shards():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 8))
    y = rng.integers(0, 3, 30)
    ds = FederatedDataset(np.tile(x, (6, 1)), np.tile(y, 6), [30] * 6, 3)
    profile = sample_profile(6, 0.5, 0.1, 0.01, 0.2, 0.02, 0.0, seed=4)
    for k in (1, 3, 6):
        model, _ = run_fedavg(
            ds, profile, TrainConfig(k=k, e=1, batch_size=30, eta0=0.1, max_rounds=5, seed=8)
        )
        w, b = np.zeros((3, 8)), np.zeros(3)
        for r in range(5):
            gw, gb = ce_gradient(ModelParams(w.copy(), b.copy()), x, y)
            w -= 0.1 / (1 + r) * gw
            b -= 0.1 / (1 + r) * gb
        np.testing.assert_allclose(model.weights, w, atol=1e-10)
        np.testing.assert_allclose(model.bias, b, atol=1e-10)


def test_fedavg_loss_gap_decays_like_one_over_rounds(desk_dataset, desk_profile):
    _, traces = run_fedavg(desk_dataset, desk_profile, desk_config(max_rounds=300))
    losses = np.array([t.loss for t in traces])
    gap = losses - losses.min()
    r = np.arange(1, losses.size + 1)
    usable = np.nonzero(gap > max(1e-4, 1e-3 * gap[0]))[0]
    sel = usable[(usable >= 2)]
    slope = np.polyfit(np.log(r[sel]), np.log(gap[sel]), 1)[0]
    assert -1.6 <= slope <= -0.5


def test_fedavg_round_costs_use_chosen_strategy(desk_dataset, desk_profile):
    cfg = desk_config(max_rounds=8)
    _, traces = run_fedavg(desk_dataset, desk_profile, cfg)
    for t in traces:
        np.testing.assert_array_equal(t.job.comp, desk_profile.t_comp[t.job.client_ids] * cfg.e)
        opt = round_time(t.job, Strategy.OPTIMAL_TS)
        assert opt <= round_time(t.job, Strategy.WAIT_ALL_TS) + 1e-12
        assert opt <= round_time(t.job, Strategy.STATIC_FS) + 1e-12


def test_fedavg_validates_config(desk_dataset, desk_profile):
    with pytest.raises(ValueError):
        run_fedavg(desk_dataset, desk_profile, desk_config(k=21))
    with pytest.raises(ValueError):
        run_fedavg(desk_dataset, desk_profile, desk_config(e=0))


def test_trace_export_layout(tmp_path, desk_dataset, desk_profile):
    _, traces = run_fedavg(desk_dataset, desk_profile, desk_config(max_rounds=4))
    path = tmp_path / "traces.csv"
    export_traces(traces, str(path), Strategy.OPTIMAL_TS)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,loss,round_time_s,round_energy_J,sampled_ids"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and len(first[4].split(";")) == 10


def test_sub_seed_matches_the_inline_derivations_it_replaced():
    def inline(seed, key):
        return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])

    keys = [(100, domain) for domain in range(4)] + [(3, i) for i in range(6)]
    for seed in (0, 7, 2**40 + 3):
        for key in keys:
            assert sub_seed(seed, *key) == inline(seed, key)


def per_client_fedavg(dataset, profile, config):
    """run_fedavg as a loop of per-client local_sgd calls, built from the
    public pieces: the reference the stacked round engine must equal."""
    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=key))

    model = ModelParams.zeros(dataset.n_classes, dataset.n_features)
    sampling = stream(0)
    rounds = []
    for r in range(config.max_rounds):
        ids = np.sort(sampling.choice(dataset.n_clients, size=config.k, replace=False))
        lr = config.eta0 / (1.0 + r)
        models = [
            local_sgd(model, *dataset.shard(cid), config.e, lr, config.batch_size,
                      stream(2, r, int(cid)))
            for cid in ids
        ]
        model = aggregate(ids, *stacked(models), dataset)
        loss = 0.0
        for k in range(dataset.n_clients):
            x, y = dataset.shard(k)
            loss += y.size * mean_cross_entropy(model, x, y)
        loss /= dataset.n
        t_draw, e_draw = draw_round_costs(profile, ids, stream(1, r))
        energy = float(np.sum(profile.e_comp[ids] * config.e + e_draw))
        rounds.append((loss, profile.t_comp[ids] * config.e, t_draw, ids, energy))
    return model, rounds


def assert_engine_equals_per_client_loop(dataset, config):
    profile = sample_profile(dataset.n_clients, 0.5, 0.1, 0.01, 0.2, 0.02, 0.1, seed=6)
    model, traces = run_fedavg(dataset, profile, config)
    want_model, want = per_client_fedavg(dataset, profile, config)
    assert len(traces) == len(want)
    for t, (loss, comp, comm, ids, energy) in zip(traces, want):
        assert t.loss == loss
        assert np.array_equal(t.job.comp, comp) and np.array_equal(t.job.comm, comm)
        assert np.array_equal(t.job.client_ids, ids)
        assert t.energy_j == energy
    assert np.array_equal(model.weights, want_model.weights)
    assert np.array_equal(model.bias, want_model.bias)
    return model, traces, profile


def mixed_dataset(sizes, n_features, n_classes, seed):
    rng = np.random.default_rng(seed)
    return packed(
        [(rng.standard_normal((n, n_features)), rng.integers(0, n_classes, n)) for n in sizes],
        n_classes,
    )


# batch size 8: shards of 1, B-1, B, B+1 and many B rows; the first five take
# local_sgd's full-batch path, the rest draw minibatches
MIXED_SIZES = [1, 7, 8, 9, 64, 3, 8, 12, 1, 25, 9, 40]


@pytest.mark.parametrize("e", [1, 8, 9, 70])
@pytest.mark.parametrize("k", [1, 10, 12])
def test_round_engine_equals_per_client_local_sgd(k, e):
    dataset = mixed_dataset(MIXED_SIZES, 5, 4, seed=11)
    config = TrainConfig(k=k, e=e, batch_size=8, eta0=0.5, max_rounds=3, seed=3)
    assert_engine_equals_per_client_loop(dataset, config)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=14),
    n_features=st.integers(1, 6),
    n_classes=st.integers(2, 5),
    batch_size=st.integers(1, 12),
    e=st.integers(1, 12),
    rounds=st.integers(1, 2),
    data=st.data(),
)
def test_round_engine_equals_per_client_local_sgd_on_random_shapes(
    sizes, n_features, n_classes, batch_size, e, rounds, data
):
    k = data.draw(st.integers(1, len(sizes)), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    dataset = mixed_dataset(sizes, n_features, n_classes, seed)
    config = TrainConfig(k=k, e=e, batch_size=batch_size, eta0=0.3, max_rounds=rounds, seed=seed)
    assert_engine_equals_per_client_loop(dataset, config)


def _normal(shape):
    return np.random.default_rng(0).standard_normal(shape)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(
    float,
    st.one_of(  # a full-batch softmax's rows, or m clients' B-row minibatches
        st.tuples(st.integers(1, 600), st.integers(1, 12)),
        st.tuples(st.integers(1, 8), st.integers(1, 80), st.integers(1, 12)),
    ),
    elements=st.floats(allow_nan=True, allow_infinity=True),
))
# the extremes of the round engine's traffic: one client's minibatch, a group
# of eight, and a fleet's global_loss
@example(_normal((1, 64, 10)))
@example(_normal((8, 64, 10)))
@example(_normal((10177, 10)))
def test_row_max_is_the_max_over_the_last_axis(a):
    # bit for bit at every shape, but for a zero maximum's sign and a nan
    # maximum's payload: numpy's reduce along a row and its element-wise
    # maximum down a column settle -0.0 against 0.0, and nan against nan,
    # differently
    expected = np.max(a, axis=-1, keepdims=True)
    got = _row_max(a)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    exact = ~np.isnan(expected) & (expected != 0)
    assert got[exact].tobytes() == expected[exact].tobytes()


@given(st.integers(1, 12), st.data())
def test_hot_numbers_each_row_of_labels_from_zero(n_classes, data):
    labels = data.draw(hnp.arrays(
        np.int64,
        st.tuples(st.integers(1, 8), st.integers(1, 80)),  # (chunk, m B) minibatch labels
        elements=st.integers(0, n_classes - 1),
    ))
    hot = _hot(labels, n_classes)
    for i in range(labels.shape[0]):
        assert np.array_equal(hot[i], np.arange(labels.shape[1]) * n_classes + labels[i])


def runs(monkeypatch, result, pairs):
    """One TrainConfig per (K, E) pair, run i seeded i, for train_all over a
    fake run_fedavg whose traces are result(seed)."""
    monkeypatch.setattr(learner, "run_fedavg", lambda dataset, profile, c: (None, result(c.seed)))
    return [TrainConfig(k=k, e=e, seed=i) for i, (k, e) in enumerate(pairs)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_train_all_returns_traces_in_input_order(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    configs = runs(monkeypatch, lambda i: (i * i, os.getpid()), [(1, 1), (2, 2), (1, 2), (3, 1)])
    results = train_all(None, None, configs)
    assert [r for r, _ in results] == [0, 1, 4, 9]
    workers = {pid for _, pid in results}
    # one usable CPU runs here; more fork a worker each, up to the run count
    assert workers == {os.getpid()} if cpus == 1 else os.getpid() not in workers


def test_train_all_submits_the_heaviest_first(monkeypatch):
    usable_cpus(monkeypatch, 2)
    submitted = []
    submit = ProcessPoolExecutor.submit
    monkeypatch.setattr(
        ProcessPoolExecutor, "submit",
        lambda pool, fn, c: submitted.append(c.seed) or submit(pool, fn, c),
    )
    configs = runs(monkeypatch, lambda i: i, [(1, 1), (5, 1), (1, 5), (3, 3)])
    assert train_all(None, None, configs) == [0, 1, 2, 3]
    assert submitted == [3, 1, 2, 0]  # ties keep input order


def test_train_all_raises_the_first_failure_in_input_order(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def run(i):
        if i == 1:
            time.sleep(0.2)  # run 2, submitted first, fails first
        if i in (1, 2):
            raise ValueError(f"run {i} failed")
        return i

    with pytest.raises(ValueError, match="^run 1 failed$"):
        train_all(None, None, runs(monkeypatch, run, [(1, 1), (1, 2), (1, 3)]))


def test_train_all_raises_when_a_worker_dies(monkeypatch):
    usable_cpus(monkeypatch, 2)
    configs = runs(monkeypatch, lambda i: os._exit(1) if i == 1 else i, [(1, 1)] * 3)
    with pytest.raises(BrokenProcessPool):
        train_all(None, None, configs)


@pytest.mark.parametrize("case", ["affinity", "fork", "a thread alive", "a daemonic process"])
def test_train_all_runs_serially_without_affinity_or_fork(monkeypatch, case):
    # also where this process may not fork: beside a live thread, or daemonic
    if case == "affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        usable_cpus(monkeypatch, 2)
    configs = runs(monkeypatch, lambda i: (i, os.getpid()), [(1, 1), (1, 2)])
    if case == "a daemonic process":
        context = multiprocessing.get_context("fork")
        received, sent = context.Pipe(duplex=False)

        def train():
            try:
                sent.send((train_all(None, None, configs), os.getpid()))
            except Exception as exc:  # the parent sees what it raised
                sent.send((repr(exc), os.getpid()))

        process = context.Process(target=train, daemon=True)
        process.start()
        assert received.poll(60)
        got, pid = received.recv()
        process.join()
        assert got == [(0, pid), (1, pid)]
        return
    if case == "fork":

        def get_context(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "a thread alive":
        thread.start()
    try:
        got = train_all(None, None, configs)
    finally:
        release.set()
    if case == "a thread alive":
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert got == [(0, os.getpid()), (1, os.getpid())]


def steppers(monkeypatch, tmp_path):
    """Spy on learner._step_clients: returns a function that lists the ids
    of the processes that stepped clients, this one and any partner, which
    inherits the spy; given a round, those that stepped clients in it."""
    log = tmp_path / "steppers.log"
    step = learner._step_clients

    def logged(*args):  # args[4] is the round
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {args[4]}\n")
        return step(*args)

    def pids(r=None):
        lines = log.read_text().splitlines() if log.exists() else []
        return {pid for pid, at in map(str.split, lines) if r is None or int(at) == r}

    monkeypatch.setattr(learner, "_step_clients", logged)
    return pids


def assert_same_run(a, b):
    (model_a, traces_a), (model_b, traces_b) = a, b
    if model_a is not None:
        assert np.array_equal(model_a.weights, model_b.weights)
        assert np.array_equal(model_a.bias, model_b.bias)
    assert [(t.loss, t.energy_j) for t in traces_a] == [(t.loss, t.energy_j) for t in traces_b]
    for t, u in zip(traces_a, traces_b):
        assert np.array_equal(t.job.comp, u.job.comp) and np.array_equal(t.job.comm, u.job.comm)
        assert np.array_equal(t.job.client_ids, u.job.client_ids)


# odd K over MIXED_SIZES' full-batch and minibatch shards, with just enough
# local steps a round for a partner
SPLIT_K = 11
SPLIT_E = -(-learner._SPLIT_STEPS // SPLIT_K)


def test_split_rounds_equal_the_per_client_loop_and_one_cpu(monkeypatch, tmp_path):
    pids = steppers(monkeypatch, tmp_path)
    usable_cpus(monkeypatch, 2)
    dataset = mixed_dataset(MIXED_SIZES, 5, 4, seed=11)
    config = TrainConfig(k=SPLIT_K, e=SPLIT_E, batch_size=8, eta0=0.5, max_rounds=3, seed=3)
    model, traces, profile = assert_engine_equals_per_client_loop(dataset, config)
    assert len(pids()) == 2 and str(os.getpid()) in pids()  # a partner stepped a share
    usable_cpus(monkeypatch, 1)
    assert_same_run((model, traces), run_fedavg(dataset, profile, config))
    assert len(pids()) == 2  # the one-CPU run stepped every client here


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=2, max_size=14),
    n_features=st.integers(1, 6),
    n_classes=st.integers(2, 5),
    batch_size=st.integers(1, 12),
    e=st.integers(1, 12),
    data=st.data(),
)
def test_split_rounds_equal_the_per_client_loop_on_random_shapes(
    sizes, n_features, n_classes, batch_size, e, data
):
    k = data.draw(st.integers(2, len(sizes)), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    dataset = mixed_dataset(sizes, n_features, n_classes, seed)
    config = TrainConfig(k=k, e=e, batch_size=batch_size, eta0=0.3, max_rounds=2, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        usable_cpus(patch, 2)
        patch.setattr(learner, "_SPLIT_STEPS", 1)  # every run here forks a partner
        assert_engine_equals_per_client_loop(dataset, config)


@given(st.lists(st.integers(1, 300), min_size=1, max_size=100), st.integers(1, 100))
@example([64, 70, 70, 10, 20], 64)
def test_partner_share_balances_rows_per_step(sizes, batch_size):
    sizes = np.array(sizes)
    order, count = learner._partner_share(sizes, batch_size)
    again, count_again = learner._partner_share(sizes.copy(), batch_size)
    assert np.array_equal(order, again) and count == count_again
    assert sorted(order.tolist()) == list(range(sizes.size))
    theirs, ours = order[:count], order[count:]
    costs = np.minimum(sizes, batch_size)
    assert abs(costs[theirs].sum() - costs[ours].sum()) <= costs.max()
    assert ours.size and (theirs.size or sizes.size == 1)
    # at most one share steps both SGD paths
    full = sizes <= batch_size
    assert not (full[theirs].any() and (~full[ours]).any())


def test_partner_share_leaves_the_full_batch_clients_to_the_run():
    # the 64-row client costs as much as a minibatch one, but steps full-batch
    order, count = learner._partner_share(np.array([64, 70, 70, 10, 20]), 64)
    assert order.tolist() == [1, 2, 0, 4, 3]
    assert set(order[:count].tolist()) == {1, 2} and set(order[count:].tolist()) == {0, 3, 4}


@pytest.mark.parametrize("share", ["run", "partner", "both"])
def test_a_diverging_split_round_raises_the_serial_error(monkeypatch, tmp_path, share):
    # all 12 clients train every round, so the partner's share is known; a
    # client with huge features overflows from its second step, and a huge
    # step size makes every client overflow
    sizes = MIXED_SIZES
    dataset = mixed_dataset(sizes, 5, 4, seed=11)
    config = TrainConfig(k=len(sizes), e=-(-learner._SPLIT_STEPS // len(sizes)), batch_size=8,
                         eta0=1e300 if share == "both" else 0.5, max_rounds=3, seed=3)
    if share != "both":
        order, count = learner._partner_share(dataset.sizes, config.batch_size)
        poisoned = (order[:count] if share == "partner" else order[count:]).min()
        start, size = dataset.offsets[poisoned], dataset.sizes[poisoned]
        dataset.features[start:start + size] *= 1e300
    profile = sample_profile(dataset.n_clients, 0.5, 0.1, 0.01, 0.2, 0.02, 0.1, seed=6)
    errors = []
    pids = steppers(monkeypatch, tmp_path)
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(learner.DivergenceError) as raised:
            run_fedavg(dataset, profile, config)
        errors.append(str(raised.value))
    assert len(pids()) == 2
    assert errors[0] == errors[1] and errors[0].startswith("diverged at round ")


def test_a_partner_that_dies_is_one_named_error(monkeypatch):
    usable_cpus(monkeypatch, 2)
    run = os.getpid()
    step = learner._step_clients

    def dies_in_round_1(model, dataset, ids, config, r, partner=None):
        if os.getpid() != run and r == 1:
            os._exit(3)
        return step(model, dataset, ids, config, r, partner)

    monkeypatch.setattr(learner, "_step_clients", dies_in_round_1)
    dataset = mixed_dataset(MIXED_SIZES, 5, 4, seed=11)
    profile = sample_profile(dataset.n_clients, 0.5, 0.1, 0.01, 0.2, 0.02, 0.1, seed=6)
    config = TrainConfig(k=SPLIT_K, e=SPLIT_E, batch_size=8, eta0=0.5, max_rounds=3, seed=3)
    with pytest.raises(  # as a dead train_all worker raises
        BrokenProcessPool, match=f"^the stepping partner of the K={SPLIT_K}, E={SPLIT_E} run "
                                 "died in round 1$"
    ):
        run_fedavg(dataset, profile, config)


@pytest.mark.parametrize("case", ["fleet-sweep point", "one cpu", "a thread alive"])
def test_runs_that_start_no_partner(monkeypatch, case):
    started = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda process: started.append(process) or start(process))
    usable_cpus(monkeypatch, 1 if case == "one cpu" else 2)
    if case == "fleet-sweep point":  # fleet-sweep's heaviest point, K E = 160
        dataset = mixed_dataset([30] * 80, 5, 4, seed=11)
        config = TrainConfig(k=80, e=2, batch_size=8, max_rounds=2)
    else:
        dataset = mixed_dataset(MIXED_SIZES, 5, 4, seed=11)
        config = TrainConfig(k=SPLIT_K, e=SPLIT_E, batch_size=8, max_rounds=2)
    profile = sample_profile(dataset.n_clients, 0.5, 0.1, 0.01, 0.2, 0.02, 0.1, seed=6)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "a thread alive":
        thread.start()
    try:
        run_fedavg(dataset, profile, config)
    finally:
        release.set()
    if case == "a thread alive":
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert started == []


@pytest.mark.parametrize("other", ["light", "heavy"])
def test_a_heavy_run_in_a_train_all_worker_forks_its_partner_before_round_0(
    monkeypatch, tmp_path, other
):
    # beside a busy worker too: two heavy runs at two CPUs are stepped by
    # exactly their two workers and their two partners
    pids = steppers(monkeypatch, tmp_path)
    dataset = mixed_dataset(MIXED_SIZES, 5, 4, seed=11)
    profile = sample_profile(dataset.n_clients, 0.5, 0.1, 0.01, 0.2, 0.02, 0.1, seed=6)
    configs = [TrainConfig(k=SPLIT_K, e=SPLIT_E, batch_size=8, eta0=0.5, max_rounds=4, seed=3),
               TrainConfig(k=2, e=1, batch_size=8, max_rounds=1, seed=4) if other == "light"
               else TrainConfig(k=SPLIT_K, e=SPLIT_E, batch_size=8, max_rounds=3, seed=4)]
    usable_cpus(monkeypatch, 1)
    serial = train_all(dataset, profile, configs)
    assert pids() == {str(os.getpid())}
    usable_cpus(monkeypatch, 2)
    for got, want in zip(train_all(dataset, profile, configs), serial):
        assert_same_run((None, got), (None, want))
    # this process, the two workers and one partner per heavy run, each
    # partner stepping from round 0
    partners = 1 if other == "light" else 2
    assert len(pids(0)) == len(pids()) == 3 + partners


def test_no_layer_pickles_the_dataset(monkeypatch, tmp_path):
    # workers and partners inherit it; a pickled dataset per round or run
    # would be a silent slowdown
    def refuse(dataset, protocol):
        raise AssertionError("the dataset was pickled")

    monkeypatch.setattr(FederatedDataset, "__reduce_ex__", refuse)
    pids = steppers(monkeypatch, tmp_path)
    usable_cpus(monkeypatch, 2)
    dataset = mixed_dataset(MIXED_SIZES, 5, 4, seed=11)
    profile = sample_profile(dataset.n_clients, 0.5, 0.1, 0.01, 0.2, 0.02, 0.1, seed=6)
    heavy = TrainConfig(k=SPLIT_K, e=SPLIT_E, batch_size=8, max_rounds=2, seed=3)
    run_fedavg(dataset, profile, heavy)
    assert len(pids()) == 2  # the run split its rounds with a partner
    train_all(dataset, profile, [heavy, TrainConfig(k=2, e=1, batch_size=8, max_rounds=1)])
    assert len(pids()) >= 4  # and train_all forked two workers
