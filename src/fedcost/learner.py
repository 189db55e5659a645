"""Multinomial logistic regression and the federated-averaging training engine.

One training round: sample K of the N clients uniformly without replacement,
run E local SGD steps on each with a per-round decayed learning rate,
aggregate the returned models weighted by shard size, then draw the round's
communication costs.  The sampled clients are stepped together, in stacked
numpy calls over the dataset's packed rows, with the same float operations
per client as local_sgd, so a round's result is bit-identical to a loop of
local_sgd calls.  Each trace keeps the round's job (computation
and upload seconds per sampled client) and its energy; the uplink strategy
only prices the job, via scheduler.round_time, so one trajectory serves
every strategy.

Gradients are explicit (softmax minus one-hot), which keeps the model convex
and finite-difference checkable.  All client randomness is pre-keyed on
(seed, round, client), so traces are independent of execution order, and
train_all can fan independent runs out to forked worker processes.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .scheduler import RoundJob, round_time
from .seeding import COMM, SAMPLING, SGD, stream
from .system import draw_round_costs


class DivergenceError(RuntimeError):
    """Raised when a round's arithmetic overflows or turns invalid, or its
    global loss passes _DIVERGED_LOSS_RATIO times the zero model's loss."""


@dataclass
class ModelParams:
    """Softmax-regression parameters: class-by-feature weights plus bias."""

    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (C, d) with a length-C bias")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("model parameters must be finite")

    @classmethod
    def zeros(cls, n_classes, n_features):
        return cls(np.zeros((n_classes, n_features)), np.zeros(n_classes))

    @property
    def n_classes(self):
        return int(self.weights.shape[0])

    @property
    def n_features(self):
        return int(self.weights.shape[1])


@dataclass
class TrainConfig:
    k: int
    e: int
    batch_size: int = 64
    eta0: float = 0.1
    max_rounds: int = 300
    target_loss: float = None
    seed: int = 0


@dataclass
class RoundTrace:
    loss: float
    job: RoundJob
    energy_j: float


def _row_max(a):
    """Row maxima of an (..., C) array, kept as (..., 1).

    One reduce down a class-major copy: C - 1 element-wise maxima of whole
    columns, a few numpy calls whatever the row count.  A maximum is exact in
    any order, so this gives np.max's bits, but for the sign of a zero
    maximum and the payload of a nan one, which no caller sees (each
    subtracts it before an exp)."""
    cols = np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)
    return np.maximum.reduce(cols, axis=0).reshape(a.shape[:-1] + (1,))


def _hot(labels, n_classes):
    """Flat positions of the label entries in a (..., C) array whose n rows
    follow the last axis of `labels`: row j's is j * C + its label.  Labels
    (s, n) give s rows of positions, row i those of labels[i]."""
    return np.arange(labels.shape[-1]) * n_classes + labels


def _log_likelihoods(logits, labels):
    """Each row's log-softmax at its label; logits (n, C) is overwritten."""
    logits -= _row_max(logits)
    picked = np.take(logits, _hot(labels, logits.shape[1]))
    np.exp(logits, out=logits)
    return picked - np.log(np.add.reduce(logits, axis=1))


def _residuals(logits, hot, count):
    """Overwrite logits (..., C) with (softmax - one_hot) / count, the per-row
    factor of the mean cross-entropy gradient, and return it; `hot` holds the
    flat positions of the one-hot entries."""
    logits -= _row_max(logits)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    logits.reshape(-1)[hot] -= 1.0
    logits /= count
    return logits


def mean_cross_entropy(model, features, labels):
    """Mean cross-entropy of the model over a batch."""
    ll = _log_likelihoods(features @ model.weights.T + model.bias, labels)
    return float(-ll.sum() / labels.shape[0])


def ce_gradient(model, features, labels):
    """Mean cross-entropy gradient over a batch: (grad_weights, grad_bias)."""
    p = _residuals(
        features @ model.weights.T + model.bias, _hot(labels, model.n_classes), labels.shape[0]
    )
    return p.T @ features, p.sum(axis=0)


def global_loss(model, dataset):
    """Shard-size-weighted mean cross-entropy over the whole federation.

    Each shard's logits come from its own product (one product over all rows
    rounds some rows differently), and each shard's mean is summed on its
    own, in shard order, as a loop of mean_cross_entropy would."""
    if model.n_features != dataset.n_features or model.n_classes != dataset.n_classes:
        raise ValueError("model dimensions do not match the dataset")
    logits = np.empty((dataset.n, dataset.n_classes))
    w_t = model.weights.T
    spans = list(zip(dataset.offsets.tolist(), dataset.sizes.tolist()))
    for start, n_k in spans:
        np.matmul(dataset.features[start:start + n_k], w_t, out=logits[start:start + n_k])
    logits += model.bias
    ll = _log_likelihoods(logits, dataset.labels)
    total = 0.0
    for start, n_k in spans:
        total += n_k * float(-np.add.reduce(ll[start:start + n_k]) / n_k)
    return total / dataset.n


def local_sgd(model, features, labels, steps, lr, batch_size, rng):
    """Run `steps` mini-batch SGD steps on one shard, given as features
    (n_k, d) and labels (n_k,); the input model is left untouched.

    Batches are drawn with replacement; when batch_size >= shard size the
    exact shard gradient is used instead (a true full-batch step).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_k = labels.shape[0]
    if n_k < 1:
        raise ValueError("empty shard")
    w = model.weights.copy()
    b = model.bias.copy()
    current = ModelParams(w, b)
    full_batch = batch_size >= n_k
    for _ in range(steps):
        if full_batch:
            x, y = features, labels
        else:
            idx = rng.integers(0, n_k, size=batch_size)
            x, y = features[idx], labels[idx]
        gw, gb = ce_gradient(current, x, y)
        w -= lr * gw
        b -= lr * gb
    return ModelParams(w, b)


def aggregate(ids, weights, biases, dataset):
    """Shard-size-weighted average of client models, renormalized over the
    sampled set: stack entry j of weights (K, C, d) and biases (K, C) is
    client ids[j]'s.  Sums run left to right in client-id order, so the
    float result does not depend on the input ordering."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or ids.size == 0 or not len(weights) == len(biases) == ids.size:
        raise ValueError("need one weight and one bias stack entry per client id")
    order = np.argsort(ids)
    ids = ids[order]
    if np.any(ids[1:] == ids[:-1]) or ids[0] < 0 or ids[-1] >= dataset.n_clients:
        raise ValueError(f"client ids must be distinct and lie in [0, {dataset.n_clients})")
    p = dataset.weights[ids]
    w = p[:, None, None] * weights[order]
    b = p[:, None] * biases[order]
    p_sum = p[0]
    for j in range(1, ids.size):
        w[0] += w[j]
        b[0] += b[j]
        p_sum += p[j]
    return ModelParams(w[0] / p_sum, b[0] / p_sum)


# Softmax-regression gradients are bounded by the inputs, so a huge step size
# gives a huge but finite loss (about 1e300 at eta0 = 1e300).  A loss past
# this many times ln(C), the zero model's loss, counts as diverged.  The
# largest loss / ln(C) of legitimate runs: 3.95 (fleet-sweep benchmark at
# seed 7: K=5, E=2, eta0 0.3, round 0), 2.92 (the shipped optimize config at
# seed 11), 2.23 (every run_fedavg call of the test suite).
_DIVERGED_LOSS_RATIO = 1000.0

# Clients stepped together in one stacked call.  It bounds a round's working
# set (stepping all K at once raised peak memory by 4-6%); not a setting.
_GROUP = 8
# Local steps whose minibatch indices a client draws in one call.
_DRAW_CHUNK = 8


def _local_models(model, dataset, ids, steps, lr, batch_size, seed, round_index):
    """Every sampled client's local_sgd result, with the clients stepped
    together: weights (K, C, d) and biases (K, C), in the order of `ids`.

    Each client's floats are those of local_sgd on its (seed, round, client)
    substream: every stacked product holds one client's rows in its own
    slice, and the element-wise steps are local_sgd's."""
    w = np.empty((ids.size,) + model.weights.shape)
    b = np.empty((ids.size,) + model.bias.shape)
    full = dataset.sizes[ids] <= batch_size
    for is_full in (True, False):
        positions = np.flatnonzero(full == is_full)
        for start in range(0, positions.size, _GROUP):
            group = positions[start:start + _GROUP]
            gw = np.repeat(model.weights[None], group.size, axis=0)
            gb = np.repeat(model.bias[None], group.size, axis=0)
            if is_full:
                _full_batch_steps(gw, gb, dataset, ids[group], steps, lr)
            else:
                rngs = [stream(seed, SGD, round_index, cid) for cid in ids[group].tolist()]
                _minibatch_steps(gw, gb, dataset, ids[group], steps, lr, batch_size, rngs)
            w[group], b[group] = gw, gb
    return w, b


def _minibatch_steps(w, b, dataset, ids, steps, lr, batch_size, rngs):
    """local_sgd's minibatch steps for clients with more than batch_size rows,
    updating their stacked weights (m, C, d) and biases (m, C) in place."""
    offsets = dataset.offsets[ids][:, None]
    sizes = dataset.sizes[ids].tolist()
    x = np.empty((ids.size, batch_size, w.shape[2]))
    logits = np.empty((ids.size, batch_size, w.shape[1]))
    gw = np.empty_like(w)
    w_t, b_row, p_t = w.transpose(0, 2, 1), b[:, None, :], logits.transpose(0, 2, 1)
    for done in range(0, steps, _DRAW_CHUNK):
        chunk = min(_DRAW_CHUNK, steps - done)
        # one (chunk, B) draw gives a client the indices of chunk B-sized draws
        rows = np.stack(
            [rng.integers(0, n_k, size=(chunk, batch_size)) for rng, n_k in zip(rngs, sizes)],
            axis=1,
        ) + offsets
        hots = _hot(dataset.labels[rows].reshape(chunk, -1), w.shape[1])
        for step_rows, hot in zip(rows, hots):
            # rows are in range by construction; the default mode="raise"
            # would gather through a temporary as large as x
            np.take(dataset.features, step_rows, axis=0, out=x, mode="clip")
            np.matmul(x, w_t, out=logits)
            logits += b_row
            _residuals(logits, hot, batch_size)
            np.matmul(p_t, x, out=gw)
            w -= lr * gw
            b -= lr * np.add.reduce(logits, axis=1)


def _full_batch_steps(w, b, dataset, ids, steps, lr):
    """local_sgd's full-batch steps for clients with at most batch_size rows,
    updating their stacked weights (m, C, d) and biases (m, C) in place.

    Shards differ in size, so each client's products stay its own (padding
    them to one shape would change the products' rounding); the softmax runs
    once over all their rows."""
    sizes = dataset.sizes[ids]
    features, labels = zip(*(dataset.shard(cid) for cid in ids.tolist()))
    logits = np.empty((sizes.sum(), w.shape[1]))
    stops = np.cumsum(sizes).tolist()
    spans = [logits[stop - n_k:stop] for stop, n_k in zip(stops, sizes.tolist())]
    hot = _hot(np.concatenate(labels), w.shape[1])
    counts = np.repeat(sizes, sizes)[:, None]
    gw, gb = np.empty_like(w), np.empty_like(b)
    for _ in range(steps):
        for j, (x, p) in enumerate(zip(features, spans)):
            np.matmul(x, w[j].T, out=p)
        logits += np.repeat(b, sizes, axis=0)
        _residuals(logits, hot, counts)
        for j, (x, p) in enumerate(zip(features, spans)):
            np.matmul(p.T, x, out=gw[j])
            np.add.reduce(p, axis=0, out=gb[j])
        w -= lr * gw
        b -= lr * gb


def run_fedavg(dataset, profile, config):
    """Federated averaging with per-round cost accounting.

    Stops after max_rounds, or earlier once the post-aggregation global loss
    reaches target_loss; raises DivergenceError once a round's models or loss
    overflow or turn invalid, or the loss passes _DIVERGED_LOSS_RATIO * ln(C).
    Returns (final model, per-round traces).
    """
    n = dataset.n_clients
    if profile.n_clients != n:
        raise ValueError("profile size does not match the dataset")
    if not 1 <= config.k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    if config.e < 1 or config.batch_size < 1 or config.max_rounds < 1:
        raise ValueError("e, batch_size and max_rounds must be >= 1")
    if config.eta0 < 0:
        raise ValueError("eta0 must be >= 0")

    model = ModelParams.zeros(dataset.n_classes, dataset.n_features)
    loss_limit = _DIVERGED_LOSS_RATIO * math.log(dataset.n_classes)
    sample_rng = stream(config.seed, SAMPLING)
    traces = []
    for r in range(config.max_rounds):
        ids = np.sort(sample_rng.choice(n, size=config.k, replace=False))
        lr = config.eta0 / (1.0 + r)
        try:
            # an overflow raises here, before it can leave non-finite models
            with np.errstate(over="raise", invalid="raise"):
                w, b = _local_models(
                    model, dataset, ids, config.e, lr, config.batch_size, config.seed, r
                )
                model = aggregate(ids, w, b, dataset)
                loss = global_loss(model, dataset)
        except FloatingPointError as exc:
            raise DivergenceError(f"diverged at round {r}: {exc}") from None
        if not loss <= loss_limit:  # also true of nan
            raise DivergenceError(
                f"diverged at round {r}: global loss {loss:.6g}, limit {loss_limit:.6g}"
            )

        comm_rng = stream(config.seed, COMM, r)
        t_draw, e_draw = draw_round_costs(profile, ids, comm_rng)
        energy = float(np.sum(profile.e_comp[ids] * config.e + e_draw))
        traces.append(
            RoundTrace(
                loss=loss,
                job=RoundJob(comp=profile.t_comp[ids] * config.e, comm=t_draw, client_ids=ids),
                energy_j=energy,
            )
        )
        if config.target_loss is not None and loss <= config.target_loss:
            break
    return model, traces


# the (dataset, profile) of the running train_all call, inherited by its workers
_tasks = []


def _traces(config):
    return run_fedavg(*_tasks[-1], config)[1]


def train_all(dataset, profile, configs):
    """The traces of run_fedavg(dataset, profile, c) for each TrainConfig c
    in configs, in input order, each run in a forked worker process, one per
    usable CPU and at most one per run.

    Runs are submitted heaviest first (largest K E), so the longest starts
    at once, and the first failure in input order is re-raised, as a loop
    would raise it.  With one usable CPU, or without fork or a CPU affinity,
    the runs go one after another in this process."""
    n = len(configs)
    try:
        workers = min(n, len(os.sched_getaffinity(0)))
        import multiprocessing

        context = multiprocessing.get_context("fork")
    except (AttributeError, ValueError):  # no sched_getaffinity, no fork
        workers = 1
    if workers < 2:
        return [run_fedavg(dataset, profile, c)[1] for c in configs]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=context)  # forks on the first submit
    _tasks.append((dataset, profile))
    try:
        heaviest_first = sorted(range(n), key=lambda i: configs[i].k * configs[i].e, reverse=True)
        futures = {i: pool.submit(_traces, configs[i]) for i in heaviest_first}
        return [futures[i].result() for i in range(n)]
    finally:
        pool.shutdown(cancel_futures=True)
        _tasks.pop()


def export_traces(traces, path, strategy):
    """Write round traces as CSV: round, loss, round_time_s (each round's job
    priced under `strategy`), round_energy_J, sampled_ids (semicolon-joined)."""
    def rows():
        for r, t in enumerate(traces):
            yield [
                r,
                t.loss,
                round_time(t.job, strategy),
                t.energy_j,
                ";".join(str(i) for i in t.job.client_ids.tolist()),
            ]

    write_csv(path, ["round", "loss", "round_time_s", "round_energy_J", "sampled_ids"], rows())
