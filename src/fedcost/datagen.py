"""Synthetic non-i.i.d. federated datasets, label-skew partitioning, IDX loading.

The synthetic generator follows the two-knob heterogeneity construction used
for softmax-regression benchmarks: each client k owns a labeling model
(W_k, b_k) drawn around a client offset u_k (spread controlled by alpha) and
an input mean v_k drawn around an offset B_k (spread controlled by beta);
inputs use a fixed diagonal covariance decaying as j^(-1.2).  At (1, 1) this
is exactly the standard construction; at (0, 0) every client shares one
labeling model, so the data are i.i.d. up to input noise.
"""

import math
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .seeding import SIZES, stream


class PartitionError(ValueError):
    """Raised when a label-partition request cannot be satisfied by the pool."""


class IdxError(ValueError):
    """Raised for a malformed IDX file pair: a wrong magic number, fewer bytes
    than a header claims (the message names the file), or image and label
    counts that disagree."""


@dataclass
class FederatedDataset:
    """The federation's rows, packed: features (n, d) and labels (n,), with
    client k's shard at rows offsets[k]:offsets[k] + sizes[k].  A client's id
    is its shard's position.  Arrays already float64 / int64 are kept, not
    copied."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    sizes: np.ndarray  # (N,)
    n_classes: int
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array (n, d)")
        if self.labels.shape != (self.n,):
            raise ValueError("labels must hold one label per row")
        if self.sizes.ndim != 1 or self.sizes.size < 1:
            raise ValueError("a dataset needs at least one client")
        if self.sizes.min() < 1:
            raise ValueError("every client must hold at least one sample")
        if self.sizes.sum() != self.n:
            raise ValueError(f"client sizes sum to {self.sizes.sum()}, not the {self.n} rows")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        self.offsets = np.cumsum(self.sizes) - self.sizes

    @property
    def n_features(self):
        return int(self.features.shape[1])

    @property
    def n_clients(self):
        return int(self.sizes.size)

    @property
    def n(self):
        return int(self.features.shape[0])

    @property
    def weights(self):
        """Per-client aggregation weights p_k = n_k / n."""
        counts = self.sizes.astype(float)
        return counts / counts.sum()

    def shard(self, k):
        """Client k's (features, labels): views into the packed rows."""
        start = int(self.offsets[k])
        stop = start + int(self.sizes[k])
        return self.features[start:stop], self.labels[start:stop]


def _shard_sizes(rng, n_clients, size_mean, size_std):
    """Power-law (log-normal) shard sizes, moment-matched, clamped at 1."""
    if size_std == 0:
        draws = np.full(n_clients, size_mean)
    else:
        sigma2 = np.log1p((size_std / size_mean) ** 2)
        mu = np.log(size_mean) - 0.5 * sigma2
        draws = rng.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=n_clients)
    rows = np.rint(draws)
    if not np.all(rows < 2.0**63):  # a larger size, or nan, has no int64
        raise ValueError(
            f"size_mean = {size_mean:g} with size_std = {size_std:g} draws a shard "
            f"of {np.max(rows):g} rows"
        )
    return np.maximum(1, rows.astype(int))


def gen_synthetic(alpha, beta, n_clients, size_mean, size_std, seed, n_features=60, n_classes=10):
    """Generate a Synthetic(alpha, beta) federated dataset, as Li et al.
    define it (FedProx, arXiv 1812.06127).

    Client k labels its rows by argmax(W_k x + b_k), with every entry of W_k
    and b_k drawn from N(u_k, 1), u_k ~ N(0, alpha); its inputs have mean
    v_k, drawn from N(B_k, 1) per feature, B_k ~ N(0, beta), and covariance
    diag(j^-1.2).  So alpha spreads the clients' labeling models and beta
    their input means, while at alpha = beta = 0 the clients still draw
    their own models and means, around 0.  Shard sizes are log-normal with
    the requested mean/std.  All randomness derives from the single seed
    through one named sub-stream per client, so results are bit-identical
    across runs and thread counts.
    """
    for name, v in (("alpha", alpha), ("beta", beta), ("size_mean", size_mean), ("size_std", size_std)):
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if size_mean <= 0 or size_std < 0:
        raise ValueError("size_mean must be > 0 and size_std >= 0")
    cv = float(size_std) / float(size_mean)
    if not math.isfinite(cv * cv):  # the log-normal's sigma^2 is log1p(cv^2)
        raise ValueError(f"size_std / size_mean = {cv:g}: its square must be finite")
    if n_features < 1 or n_classes < 2:
        raise ValueError("need n_features >= 1 and n_classes >= 2")

    sizes = _shard_sizes(stream(seed, SIZES), n_clients, size_mean, size_std)
    cov_scale = np.sqrt(np.arange(1, n_features + 1, dtype=float) ** -1.2)

    features = np.empty((int(sizes.sum()), n_features))
    labels = np.empty(features.shape[0], dtype=np.int64)
    for k, (stop, n_k) in enumerate(zip(np.cumsum(sizes).tolist(), sizes.tolist())):
        rng = stream(seed, k + 1)
        u = np.sqrt(alpha) * rng.standard_normal()
        weight = u + rng.standard_normal((n_classes, n_features))
        bias = u + rng.standard_normal(n_classes)
        b_off = np.sqrt(beta) * rng.standard_normal()
        v = b_off + rng.standard_normal(n_features)
        rows = features[stop - n_k:stop]
        rows[:] = v + rng.standard_normal(rows.shape) * cov_scale
        labels[stop - n_k:stop] = np.argmax(rows @ weight.T + bias, axis=1)
    return FederatedDataset(features, labels, sizes, n_classes)


def partition_by_label(features, labels, n_clients, labels_per_client, samples_per_client, seed):
    """Partition a pool, given as (n, d) features and (n,) labels, into shards
    of exactly `labels_per_client` distinct labels and `samples_per_client`
    samples each.  uint8 features are pixels, as load_idx returns them: only
    the taken rows are scaled to [0, 1].

    Client c's t-th label is pool label (c L + t) mod P, of which it takes
    base + (t < rem) rows, where (base, rem) = divmod(samples_per_client, L):
    a cyclic block pattern with balanced per-label quotas.  No sample is
    assigned twice.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if labels_per_client < 1 or samples_per_client < 1:
        raise ValueError("labels_per_client and samples_per_client must be >= 1")
    if samples_per_client < labels_per_client:
        raise PartitionError(
            f"samples_per_client={samples_per_client} cannot cover "
            f"{labels_per_client} distinct labels"
        )
    if labels.size == 0:
        raise PartitionError("empty sample pool")

    pool_labels, counts = np.unique(labels, return_counts=True)
    n_pool = pool_labels.size
    if n_pool < labels_per_client:
        raise PartitionError(
            f"pool holds {n_pool} distinct labels, request needs {labels_per_client}"
        )
    # slot j = c L + t; the demand is summed in Python ints
    base, rem = divmod(samples_per_client, labels_per_client)
    extra = np.tile(np.arange(labels_per_client) < rem, n_clients)
    slot_labels = np.arange(extra.size) % n_pool
    demand = [base * n + n_extra for n, n_extra in zip(
        np.bincount(slot_labels, minlength=n_pool).tolist(),
        np.bincount(slot_labels[extra], minlength=n_pool).tolist(),
    )]
    for lab, have, need in zip(pool_labels.tolist(), counts.tolist(), demand):
        if need > have:
            raise PartitionError(f"label {lab} has {have} samples, request needs {need}")

    rng = stream(seed)
    rows = [np.flatnonzero(labels == lab)[rng.permutation(have)]
            for lab, have in zip(pool_labels.tolist(), counts.tolist())]
    cursor = [0] * n_pool
    taken = []
    for p, take in zip(slot_labels.tolist(), (base + extra).tolist()):
        taken.append(rows[p][cursor[p]:cursor[p] + take])
        cursor[p] += take
    taken = np.concatenate(taken)
    packed = features[taken]
    return FederatedDataset(
        packed / 255.0 if packed.dtype == np.uint8 else packed,
        labels[taken],
        np.full(n_clients, samples_per_client),
        int(labels.max()) + 1,
    )


def _read_exact(fh, count, path):
    # check first: a header may claim more bytes than memory holds; pipes have no size
    st = os.fstat(fh.fileno())
    left = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else count
    if count > left:
        raise IdxError(f"{path}: expected {count} more bytes, got {left}")
    data = fh.read(count)
    if len(data) != count:
        raise IdxError(f"{path}: expected {count} more bytes, got {len(data)}")
    return data


def _read_idx(path, ndim):
    """(shape, payload bytes) of an unsigned-byte IDX file of ndim dimensions:
    magic number 0x0800 + ndim, ndim big-endian uint32 sizes, then the payload."""
    with open(path, "rb") as fh:
        magic, *shape = struct.unpack(f">{ndim + 1}I", _read_exact(fh, 4 * (ndim + 1), path))
        if magic != 0x0800 + ndim:
            raise IdxError(f"{path}: magic 0x{magic:08x}, expected 0x{0x0800 + ndim:08x}")
        return shape, _read_exact(fh, math.prod(shape), path)


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair as (pixels (n, rows*cols) uint8,
    labels (n,) int64).

    The pixels stay raw bytes, so partition_by_label scales only the rows it
    takes; the image and label counts must agree.  A malformed file raises
    IdxError.
    """
    (n_images, rows, cols), raw = _read_idx(images_path, 3)
    (n_labels,), raw_labels = _read_idx(labels_path, 1)
    if n_images != n_labels:
        raise IdxError(f"{n_images} images but {n_labels} labels")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n_images, rows * cols)
    return pixels, np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
