import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx, write_oversized_idx
from fedcost.datagen import (
    FederatedDataset,
    IdxError,
    PartitionError,
    gen_synthetic,
    load_idx,
    partition_by_label,
)
from fedcost.seeding import stream


def test_shard_size_mean_matches_request():
    ds = gen_synthetic(1, 1, 100, 245, 362, seed=7)
    sizes = ds.sizes
    assert abs(sizes.mean() - 245) / 245 < 0.20
    assert sizes.min() >= 1


def test_weights_sum_to_one_and_track_counts(small_dataset):
    w = small_dataset.weights
    assert abs(w.sum() - 1.0) < 1e-12
    counts = small_dataset.sizes
    np.testing.assert_allclose(w, counts / counts.sum(), rtol=0, atol=0)


def test_zero_heterogeneity_shares_labeling_model():
    # alpha = 0 centres every client's labeling model on u_k = 0 (Li et al.):
    # client k's W_k and b_k are its own N(0, 1) draws, replayed here from its
    # substream after the draw that sqrt(alpha) scales into u_k
    ds = gen_synthetic(0, 0, 4, 50, 0, seed=3)
    for k in range(ds.n_clients):
        rng = stream(3, k + 1)
        rng.standard_normal()
        weight = rng.standard_normal((ds.n_classes, ds.n_features))
        bias = rng.standard_normal(ds.n_classes)
        x, y = ds.shard(k)
        assert np.array_equal(y, np.argmax(x @ weight.T + bias, axis=1))


def test_zero_heterogeneity_labels_cover_every_class():
    ds = gen_synthetic(0, 0, 200, 50, 25, seed=0)
    assert np.unique(ds.labels).size == ds.n_classes


# sha256 of features, labels and sizes, as the generator drew them when
# alpha and beta scaled the N(0, 1) spreads too: at alpha = beta = 1 the
# two forms draw the same bits
@pytest.mark.parametrize("seed, n_clients, size_mean, size_std, digest", [
    (0, 5, 50, 20, "50728b05bcecdb9c30d3d672c9fc1dde584f77e903d273edc873df9822ca861a"),
    (7, 20, 100, 50, "1c68e9237aa8b1de15305a9e09339be57ad79c930e2e0c3e933c8f7998b758e6"),
    (11, 3, 30, 0, "672aa46a5f3baa65fcc4d37dd63e0944bfd0714a4aaade77f32283c7465b28b9"),
    (123, 50, 40, 25, "b67467b5c60ffcb3926ab58d3e73c5cb1914c3d724acac82c2d3cdcd82d50f04"),
])
def test_unit_heterogeneity_draws_the_recorded_bits(seed, n_clients, size_mean, size_std, digest):
    ds = gen_synthetic(1, 1, n_clients, size_mean, size_std, seed=seed)
    h = hashlib.sha256()
    for a in (ds.features, ds.labels, ds.sizes):
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_generation_is_deterministic():
    a = gen_synthetic(1, 1, 5, 50, 20, seed=11)
    b = gen_synthetic(1, 1, 5, 50, 20, seed=11)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.sizes.tobytes() == b.sizes.tobytes()


def test_different_seeds_differ():
    a = gen_synthetic(1, 1, 5, 50, 20, seed=11)
    b = gen_synthetic(1, 1, 5, 50, 20, seed=12)
    assert a.shard(0)[0].tobytes() != b.shard(0)[0].tobytes()


def test_input_variance_decays_with_coordinate():
    ds = gen_synthetic(1, 1, 30, 200, 50, seed=5)
    per_coord = np.mean([ds.shard(k)[0].var(axis=0) for k in range(ds.n_clients)], axis=0)
    ranks = np.empty(per_coord.size)
    ranks[np.argsort(per_coord)] = np.arange(per_coord.size)
    corr = np.corrcoef(ranks, np.arange(per_coord.size))[0, 1]
    assert corr < 0


def test_gen_synthetic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_synthetic(1, 1, 0, 100, 10, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(float("nan"), 1, 3, 100, 10, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(1, 1, 3, 0, 10, seed=0)


def _pool(per_label, n_labels, d=4, seed=0):
    """(features, labels) with `per_label` rows of each of `n_labels` labels."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((per_label * n_labels, d))
    return features, np.repeat(np.arange(n_labels), per_label)


def test_partition_exact_counts_and_labels():
    pool = _pool(per_label=900, n_labels=10)
    ds = partition_by_label(*pool, n_clients=30, labels_per_client=2, samples_per_client=300, seed=1)
    assert ds.n_clients == 30
    assert ds.sizes.tolist() == [300] * 30
    for k in range(ds.n_clients):
        assert np.unique(ds.shard(k)[1]).size == 2
    assert ds.n == 9000


def test_partition_never_reuses_a_sample():
    pool = _pool(per_label=30, n_labels=4)
    ds = partition_by_label(*pool, n_clients=4, labels_per_client=2, samples_per_client=20, seed=2)
    assert ds.n == 80
    assert len({row.tobytes() for row in ds.features}) == 80


def test_partition_single_label_pool_is_infeasible():
    pool = _pool(per_label=50, n_labels=1)
    with pytest.raises(PartitionError):
        partition_by_label(*pool, n_clients=2, labels_per_client=2, samples_per_client=10, seed=0)


def test_partition_error_names_the_deficient_label():
    pool = _pool(per_label=10, n_labels=2)
    with pytest.raises(PartitionError, match="label 0"):
        partition_by_label(*pool, n_clients=4, labels_per_client=2, samples_per_client=10, seed=0)


def test_partition_identity_when_one_client_takes_all():
    features, labels = _pool(per_label=12, n_labels=3)
    ds = partition_by_label(features, labels, n_clients=1, labels_per_client=3,
                            samples_per_client=36, seed=4)
    assert ds.n_clients == 1
    want_rows = {row.tobytes() for row in features}
    have_rows = {row.tobytes() for row in ds.shard(0)[0]}
    assert have_rows == want_rows


@settings(max_examples=300, deadline=None)
@given(
    labels=st.one_of(
        st.lists(st.integers(0, 5), max_size=120),
        st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 200)).map(
            lambda t: np.random.default_rng(t[0]).integers(0, t[1], t[2]).tolist()
        ),
    ),
    n_clients=st.integers(1, 6),
    labels_per_client=st.integers(1, 4),
    samples_per_client=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_partition_properties(labels, n_clients, labels_per_client, samples_per_client, seed):
    labels = np.array(labels, dtype=np.int64)
    # column 0 is the pool row index, so every shard row names its source row
    features = np.stack([np.arange(labels.size), labels], axis=1).astype(float)
    request = dict(n_clients=n_clients, labels_per_client=labels_per_client,
                   samples_per_client=samples_per_client, seed=seed)
    try:
        ds = partition_by_label(features, labels, **request)
    except PartitionError:
        return
    assert ds.sizes.tolist() == [samples_per_client] * n_clients
    for k in range(n_clients):
        assert np.unique(ds.shard(k)[1]).size == labels_per_client
    src = ds.features[:, 0].astype(int)
    np.testing.assert_array_equal(ds.labels, labels[src])
    assert np.unique(src).size == src.size
    again = partition_by_label(features, labels, **request)
    assert ds.features.tobytes() == again.features.tobytes()
    assert ds.labels.tobytes() == again.labels.tobytes()


def _independent_shards():
    # shards drawn as separate arrays, then packed in client order
    rng = np.random.default_rng(8)
    sizes = (4, 1, 9)
    features = np.concatenate([rng.standard_normal((n, 3)) for n in sizes])
    labels = np.concatenate([rng.integers(0, 2, n) for n in sizes])
    return FederatedDataset(features, labels, sizes, 2)


@pytest.mark.parametrize("build", [
    lambda: gen_synthetic(1.0, 1.0, 7, 30, 20, seed=3),
    lambda: partition_by_label(*_pool(per_label=20, n_labels=4), n_clients=5,
                               labels_per_client=2, samples_per_client=12, seed=1),
    _independent_shards,
], ids=["gen_synthetic", "partition_by_label", "independent_arrays"])
def test_shards_are_views_into_the_packed_rows(build):
    ds = build()
    shards = [ds.shard(k) for k in range(ds.n_clients)]
    for (x, y), n_k in zip(shards, ds.sizes.tolist()):
        assert x.shape == (n_k, ds.n_features) and y.shape == (n_k,)
        assert np.shares_memory(x, ds.features) and np.shares_memory(y, ds.labels)
    np.testing.assert_array_equal(np.concatenate([x for x, _ in shards]), ds.features)
    np.testing.assert_array_equal(np.concatenate([y for _, y in shards]), ds.labels)


# each makes a valid (features, labels, sizes, n_classes) invalid
_FAULTS = (
    None, None, None, "short rows", "long rows", "extra label", "1-d features", "no client",
    "empty client", "negative size", "label below 0", "label at C",
)


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    n_features=st.integers(1, 3),
    n_classes=st.integers(1, 4),
    fault=st.sampled_from(_FAULTS),
    data=st.data(),
)
def test_packed_rows_are_validated_and_shard_into_views(sizes, n_features, n_classes, fault,
                                                         data):
    n = sum(sizes)
    features = np.arange(n * n_features, dtype=float).reshape(n, n_features)
    labels = np.array(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                                         max_size=n), label="labels"), dtype=np.int64)
    if fault is not None:
        if fault == "short rows":
            features, labels = features[:-1], labels[:-1]
        elif fault == "long rows":
            features, labels = np.vstack([features, features[:1]]), np.append(labels, 0)
        elif fault == "extra label":
            labels = np.append(labels, 0)
        elif fault == "1-d features":
            features = features[:, 0]
        elif fault == "no client":
            features, labels, sizes = features[:0], labels[:0], []
        elif fault == "empty client":
            sizes = sizes + [0]
        elif fault == "negative size":
            sizes = [sizes[0] + 1] + sizes[1:] + [-1]
        else:
            row = data.draw(st.integers(0, n - 1), label="row")
            labels[row] = -1 if fault == "label below 0" else n_classes
        with pytest.raises(ValueError):
            FederatedDataset(features, labels, sizes, n_classes)
        return
    ds = FederatedDataset(features, labels, sizes, n_classes)
    assert (ds.n, ds.n_clients, ds.n_features) == (n, len(sizes), n_features)
    np.testing.assert_array_equal(ds.offsets, np.cumsum(sizes) - sizes)
    shards = [ds.shard(k) for k in range(ds.n_clients)]
    for (x, y), n_k in zip(shards, sizes):
        assert x.shape == (n_k, n_features) and y.shape == (n_k,)
        assert np.shares_memory(x, ds.features) and np.shares_memory(y, ds.labels)
    np.testing.assert_array_equal(np.concatenate([x for x, _ in shards]), features)
    np.testing.assert_array_equal(np.concatenate([y for _, y in shards]), labels)


def test_load_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 3, 2))
    labels = rng.integers(0, 10, size=10)
    img, lab = write_idx(tmp_path, images, labels)
    features, got_labels = load_idx(img, lab)
    assert features.shape == (10, 6) and features.dtype == np.uint8
    assert got_labels.dtype == np.int64
    np.testing.assert_array_equal(got_labels, labels)
    np.testing.assert_array_equal(features, images.reshape(10, -1))


@pytest.mark.parametrize("magic, message", [
    ({"image_magic": 0x801}, r"imgs\.idx: magic 0x00000801, expected 0x00000803$"),
    ({"label_magic": 0x803}, r"labs\.idx: magic 0x00000803, expected 0x00000801$"),
], ids=["images", "labels"])
def test_load_idx_magic_mismatch(tmp_path, magic, message):
    rng = np.random.default_rng(1)
    img, lab = write_idx(tmp_path, rng.integers(0, 256, (4, 2, 2)), rng.integers(0, 3, 4),
                         **magic)
    with pytest.raises(IdxError, match=message):
        load_idx(img, lab)


def test_load_idx_truncated(tmp_path):
    rng = np.random.default_rng(2)
    img, lab = write_idx(tmp_path, rng.integers(0, 256, (4, 2, 2)), rng.integers(0, 3, 4),
                         truncate_images=5)
    with pytest.raises(IdxError, match=r"imgs\.idx: expected 16 more bytes, got 11$"):
        load_idx(img, lab)


def test_load_idx_header_claiming_more_than_the_file_holds(tmp_path):
    with pytest.raises(IdxError, match="got 64"):
        load_idx(*write_oversized_idx(tmp_path))


def test_load_idx_count_mismatch(tmp_path):
    rng = np.random.default_rng(3)
    img, lab = write_idx(tmp_path, rng.integers(0, 256, (10, 2, 2)), rng.integers(0, 3, 10),
                         label_count=9)
    with pytest.raises(IdxError, match="^10 images but 9 labels$"):
        load_idx(img, lab)


def test_shard_validation():
    # an empty client shard
    with pytest.raises(ValueError, match="at least one sample"):
        FederatedDataset(np.zeros((2, 3)), np.zeros(2, dtype=int), [2, 0], 1)
    # a shard with more labels than rows
    with pytest.raises(ValueError, match="one label per row"):
        FederatedDataset(np.zeros((2, 3)), np.zeros(3, dtype=int), [2], 1)
