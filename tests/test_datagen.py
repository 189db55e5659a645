import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx, write_oversized_idx
from fedcost.datagen import (
    ClientShard,
    FederatedDataset,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    PartitionError,
    dataset_to_csv,
    gen_synthetic,
    load_idx,
    partition_by_label,
)


def test_shard_size_mean_matches_request():
    ds = gen_synthetic(1, 1, 100, 245, 362, seed=7)
    sizes = np.array([s.n_k for s in ds.shards])
    assert abs(sizes.mean() - 245) / 245 < 0.20
    assert sizes.min() >= 1


def test_weights_sum_to_one_and_track_counts(small_dataset):
    w = small_dataset.weights
    assert abs(w.sum() - 1.0) < 1e-12
    counts = np.array([s.n_k for s in small_dataset.shards])
    np.testing.assert_allclose(w, counts / counts.sum(), rtol=0, atol=0)


def test_zero_heterogeneity_shares_labeling_model():
    # alpha = beta = 0 collapses every client's model to the same one, so
    # the labeling rule is identical across clients (inputs stay noisy).
    ds = gen_synthetic(0, 0, 2, 50, 0, seed=3)
    all_labels = np.concatenate([s.labels for s in ds.shards])
    assert np.unique(all_labels).size == 1


def test_generation_is_deterministic():
    a = gen_synthetic(1, 1, 5, 50, 20, seed=11)
    b = gen_synthetic(1, 1, 5, 50, 20, seed=11)
    for sa, sb in zip(a.shards, b.shards):
        assert sa.features.tobytes() == sb.features.tobytes()
        assert sa.labels.tobytes() == sb.labels.tobytes()


def test_different_seeds_differ():
    a = gen_synthetic(1, 1, 5, 50, 20, seed=11)
    b = gen_synthetic(1, 1, 5, 50, 20, seed=12)
    assert a.shards[0].features.tobytes() != b.shards[0].features.tobytes()


def test_input_variance_decays_with_coordinate():
    ds = gen_synthetic(1, 1, 30, 200, 50, seed=5)
    per_coord = np.mean([s.features.var(axis=0) for s in ds.shards], axis=0)
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
    for shard in ds.shards:
        assert shard.n_k == 300
        assert np.unique(shard.labels).size == 2
    assert ds.n == 9000


def test_partition_never_reuses_a_sample():
    pool = _pool(per_label=30, n_labels=4)
    ds = partition_by_label(*pool, n_clients=4, labels_per_client=2, samples_per_client=20, seed=2)
    seen = set()
    for shard in ds.shards:
        for row in shard.features:
            key = row.tobytes()
            assert key not in seen
            seen.add(key)


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
    have_rows = {row.tobytes() for row in ds.shards[0].features}
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
    rows = []
    for shard in ds.shards:
        assert shard.n_k == samples_per_client
        assert np.unique(shard.labels).size == labels_per_client
        src = shard.features[:, 0].astype(int)
        np.testing.assert_array_equal(shard.labels, labels[src])
        rows.extend(src.tolist())
    assert len(rows) == len(set(rows))
    again = partition_by_label(features, labels, **request)
    for a, b in zip(ds.shards, again.shards):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


def _independent_shards():
    rng = np.random.default_rng(8)
    shards = [ClientShard(rng.standard_normal((n, 3)), rng.integers(0, 2, n)) for n in (4, 1, 9)]
    return FederatedDataset(shards, 3, 2)


@pytest.mark.parametrize("build", [
    lambda: gen_synthetic(1.0, 1.0, 7, 30, 20, seed=3),
    lambda: partition_by_label(*_pool(per_label=20, n_labels=4), n_clients=5,
                               labels_per_client=2, samples_per_client=12, seed=1),
    _independent_shards,
], ids=["gen_synthetic", "partition_by_label", "independent_arrays"])
def test_shards_are_views_into_the_packed_rows(build):
    ds = build()
    assert ds.offsets[0] == 0
    np.testing.assert_array_equal(ds.offsets[1:], ds.offsets[:-1] + ds.sizes[:-1])
    assert ds.sizes.sum() == ds.n == ds.features.shape[0] == ds.labels.shape[0]
    for shard, start, n_k in zip(ds.shards, ds.offsets.tolist(), ds.sizes.tolist()):
        assert shard.n_k == n_k
        assert np.shares_memory(shard.features, ds.features[start:start + n_k])
        assert np.shares_memory(shard.labels, ds.labels[start:start + n_k])
        np.testing.assert_array_equal(shard.features, ds.features[start:start + n_k])
        np.testing.assert_array_equal(shard.labels, ds.labels[start:start + n_k])


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


def test_load_idx_magic_mismatch(tmp_path):
    rng = np.random.default_rng(1)
    img, lab = write_idx(tmp_path, rng.integers(0, 256, (4, 2, 2)), rng.integers(0, 3, 4),
                         image_magic=0x801)
    with pytest.raises(IdxMagicError):
        load_idx(img, lab)


def test_load_idx_truncated(tmp_path):
    rng = np.random.default_rng(2)
    img, lab = write_idx(tmp_path, rng.integers(0, 256, (4, 2, 2)), rng.integers(0, 3, 4),
                         truncate_images=5)
    with pytest.raises(IdxTruncatedError):
        load_idx(img, lab)


def test_load_idx_header_claiming_more_than_the_file_holds(tmp_path):
    with pytest.raises(IdxTruncatedError, match="got 64"):
        load_idx(*write_oversized_idx(tmp_path))


def test_load_idx_count_mismatch(tmp_path):
    rng = np.random.default_rng(3)
    img, lab = write_idx(tmp_path, rng.integers(0, 256, (10, 2, 2)), rng.integers(0, 3, 10),
                         label_count=9)
    with pytest.raises(IdxCountMismatchError):
        load_idx(img, lab)


def test_dataset_csv_layout(tmp_path, small_dataset):
    path = tmp_path / "data.csv"
    dataset_to_csv(small_dataset, str(path))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["client_id", "label"]
    assert len(header) == 2 + small_dataset.n_features
    assert len(lines) - 1 == small_dataset.n
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_shard_validation():
    with pytest.raises(ValueError):
        ClientShard(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        ClientShard(np.zeros((2, 3)), np.zeros(3, dtype=int))
