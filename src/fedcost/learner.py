"""Multinomial logistic regression and the federated-averaging training engine.

One training round: sample K of the N clients uniformly without replacement,
run E local SGD steps on each in parallel with a per-round decayed learning
rate, aggregate the returned models weighted by shard size, then draw the
round's communication costs.  Each trace keeps the round's job (computation
and upload seconds per sampled client) and its energy; the uplink strategy
only prices the job, via scheduler.round_time, so one trajectory serves
every strategy.

Gradients are explicit (softmax minus one-hot), which keeps the model convex
and finite-difference checkable.  All client randomness is pre-keyed on
(seed, round, client), so traces are independent of execution order.
"""

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .scheduler import RoundJob, round_time
from .system import draw_round_costs


class DivergenceError(RuntimeError):
    """Raised when the global loss becomes non-finite."""


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
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
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
    max_rounds: int = 100
    target_loss: float = None
    seed: int = 0


@dataclass
class RoundTrace:
    round_index: int
    loss: float
    job: RoundJob
    energy_j: float


def _log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def mean_cross_entropy(model, features, labels):
    """Mean cross-entropy of the model over a batch."""
    logp = _log_softmax(features @ model.weights.T + model.bias)
    return float(-logp[np.arange(labels.shape[0]), labels].mean())


def ce_gradient(model, features, labels):
    """Mean cross-entropy gradient over a batch: (grad_weights, grad_bias)."""
    logits = features @ model.weights.T + model.bias
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    p[np.arange(labels.shape[0]), labels] -= 1.0
    p /= labels.shape[0]
    return p.T @ features, p.sum(axis=0)


def global_loss(model, dataset):
    """Shard-size-weighted mean cross-entropy over the whole federation."""
    if model.n_features != dataset.n_features or model.n_classes != dataset.n_classes:
        raise ValueError("model dimensions do not match the dataset")
    total = 0.0
    for shard in dataset.shards:
        total += shard.n_k * mean_cross_entropy(model, shard.features, shard.labels)
    return total / dataset.n


def local_sgd(model, shard, steps, lr, batch_size, rng):
    """Run `steps` mini-batch SGD steps on one shard; the input model is left
    untouched.

    Batches are drawn with replacement; when batch_size >= shard size the
    exact shard gradient is used instead (a true full-batch step).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if shard.n_k < 1:
        raise ValueError("empty shard")
    w = model.weights.copy()
    b = model.bias.copy()
    current = ModelParams(w, b)
    full_batch = batch_size >= shard.n_k
    for _ in range(steps):
        if full_batch:
            x, y = shard.features, shard.labels
        else:
            idx = rng.integers(0, shard.n_k, size=batch_size)
            x, y = shard.features[idx], shard.labels[idx]
        gw, gb = ce_gradient(current, x, y)
        w -= lr * gw
        b -= lr * gb
    return ModelParams(w, b)


def aggregate(updates, dataset):
    """Shard-size-weighted average of client models, renormalized over the
    sampled set.  Summation runs in client-id order so the float result does
    not depend on the input ordering."""
    if not updates:
        raise ValueError("no updates to aggregate")
    ids = [cid for cid, _ in updates]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids in updates")
    p = dataset.weights
    n = dataset.n_clients
    w_sum = None
    b_sum = None
    p_sum = 0.0
    for cid, params in sorted(updates, key=lambda u: u[0]):
        if not 0 <= cid < n:
            raise ValueError(f"unknown client id {cid}")
        pk = p[cid]
        p_sum += pk
        if w_sum is None:
            w_sum = pk * params.weights
            b_sum = pk * params.bias
        else:
            w_sum += pk * params.weights
            b_sum += pk * params.bias
    return ModelParams(w_sum / p_sum, b_sum / p_sum)


def _substream(seed, *key):
    """Deterministic RNG keyed on (seed, key), independent of call order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def sub_seed(seed, *key):
    """Integer seed keyed on (seed, key), for callees that take a plain seed."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


_SAMPLING_DOMAIN = 0
_COMM_DOMAIN = 1
_SGD_DOMAIN = 2


def run_fedavg(dataset, profile, config):
    """Federated averaging with per-round cost accounting.

    Stops after max_rounds, or earlier once the post-aggregation global loss
    reaches target_loss.  Returns (final model, per-round traces).
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
    sample_rng = _substream(config.seed, _SAMPLING_DOMAIN)
    traces = []
    for r in range(config.max_rounds):
        ids = np.sort(sample_rng.choice(n, size=config.k, replace=False))
        lr = config.eta0 / (1.0 + r)
        updates = []
        for cid in ids:
            rng = _substream(config.seed, _SGD_DOMAIN, r, int(cid))
            updates.append(
                (int(cid), local_sgd(model, dataset.shards[cid], config.e, lr, config.batch_size, rng))
            )
        model = aggregate(updates, dataset)
        loss = global_loss(model, dataset)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite global loss at round {r}")

        comm_rng = _substream(config.seed, _COMM_DOMAIN, r)
        t_draw, e_draw = draw_round_costs(profile, ids, comm_rng)
        energy = float(np.sum(profile.e_comp[ids] * config.e + e_draw))
        traces.append(
            RoundTrace(
                round_index=r,
                loss=loss,
                job=RoundJob(comp=profile.t_comp[ids] * config.e, comm=t_draw, client_ids=ids),
                energy_j=energy,
            )
        )
        if config.target_loss is not None and loss <= config.target_loss:
            break
    return model, traces


def export_traces(traces, path, strategy):
    """Write round traces as CSV: round, loss, round_time_s (each round's job
    priced under `strategy`), round_energy_J, sampled_ids (semicolon-joined)."""
    def rows():
        for t in traces:
            yield [
                t.round_index,
                t.loss,
                round_time(t.job, strategy),
                t.energy_j,
                ";".join(str(i) for i in t.job.client_ids.tolist()),
            ]

    write_csv(path, ["round", "loss", "round_time_s", "round_energy_J", "sampled_ids"], rows())
