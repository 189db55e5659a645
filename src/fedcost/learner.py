"""Multinomial logistic regression and the federated-averaging training engine.

One training round: sample K of the N clients uniformly without replacement,
run E local SGD steps on each with a per-round decayed learning rate,
aggregate the returned models weighted by shard size, score the federation
with global_loss, then draw the round's communication costs.  The sampled
clients step together on one stack in cost order, in numpy calls over the
packed rows with local_sgd's float operations per client, and aggregate sums
them in client-id order, so a round is bit-identical to a loop of local_sgd
calls.  global_loss writes every array it computes into one scratch that
run_fedavg builds per run, so the rounds allocate no array the size of the
federation.  Each trace keeps the round's job (computation and upload
seconds per sampled client) and its energy; the uplink strategy only prices
the job, via scheduler.round_time, so one trajectory serves every strategy.

Gradients are explicit (softmax minus one-hot), which keeps the model convex
and finite-difference checkable.  All client randomness is pre-keyed on
(seed, round, client), so traces are independent of execution order: train_all
fans independent runs out to forked worker processes, and a run whose rounds
carry at least _SPLIT_STEPS local steps (K E) forks one stepping partner once
a CPU is free for it, which steps the costliest clients at the front of each
round's stack, about half its rows per step (see _partner_share).  Both are
pools from _pool that inherit the dataset, forked only where _fork_context
allows, and every trace and model is the same bits at any CPU count.
"""

import itertools
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


def _row_max(a, cols=None, out=None):
    """Row maxima of an (..., C) array, kept as (..., 1).

    One reduce down a class-major copy: C - 1 element-wise maxima of whole
    columns, a few numpy calls whatever the row count.  A maximum is exact in
    any order, so this gives np.max's bits, but for the sign of a zero
    maximum and the payload of a nan one, which no caller sees (each
    subtracts it before an exp).  Given cols (C, rows) and out (rows,), the
    copy and the maxima are written into them."""
    flat = a.reshape(-1, a.shape[-1]).T
    if cols is None:
        cols = np.ascontiguousarray(flat)
    else:
        np.copyto(cols, flat)
    return np.maximum.reduce(cols, axis=0, out=out).reshape(a.shape[:-1] + (1,))


def _hot(labels, n_classes):
    """Flat positions of the label entries in a (..., C) array whose n rows
    follow the last axis of `labels`: row j's is j * C + its label.  Labels
    (s, n) give s rows of positions, row i those of labels[i]."""
    return np.arange(labels.shape[-1]) * n_classes + labels


def _log_likelihoods(logits, hot, picked=None, cols=None, norm=None):
    """Each row's log-softmax at its label, given the flat positions `hot` of
    the label entries; logits (n, C) is overwritten.  Given picked (n,),
    cols (C, n) and norm (n,), every array of the computation is written into
    them: the result into picked, the row max and then the log-sum-exp into
    norm; the positions must then be in range."""
    logits -= _row_max(logits, cols, norm)
    # into `picked`, the default mode="raise" would gather through a temporary
    picked = np.take(logits, hot, out=picked, mode="raise" if picked is None else "clip")
    np.exp(logits, out=logits)
    norm = np.log(np.add.reduce(logits, axis=1, out=norm), out=norm)
    return np.subtract(picked, norm, out=picked)


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
    ll = _log_likelihoods(features @ model.weights.T + model.bias, _hot(labels, model.n_classes))
    return float(-ll.sum() / labels.shape[0])


def ce_gradient(model, features, labels):
    """Mean cross-entropy gradient over a batch: (grad_weights, grad_bias)."""
    p = _residuals(
        features @ model.weights.T + model.bias, _hot(labels, model.n_classes), labels.shape[0]
    )
    return p.T @ features, p.sum(axis=0)


class _LossScratch:
    """global_loss's arrays for one dataset, built once per run: the (n, C)
    logits, the (C, n) class-major copy that _row_max reduces, the picked
    log-likelihoods (n,), the row max and then the log-sum-exp (n,), the
    one-hot positions, and each shard's (feature rows, logit rows) and
    (log-likelihood rows, size) pairs."""

    def __init__(self, dataset):
        n, c = dataset.n, dataset.n_classes
        self.logits = np.empty((n, c))
        self.cols = np.empty((c, n))
        self.picked = np.empty(n)
        self.norm = np.empty(n)
        self.hot = _hot(dataset.labels, c)
        spans = list(zip(dataset.offsets.tolist(), (dataset.offsets + dataset.sizes).tolist()))
        self.products = [(dataset.features[i:j], self.logits[i:j]) for i, j in spans]
        self.shards = [(self.picked[i:j], j - i) for i, j in spans]


def global_loss(model, dataset, scratch=None):
    """Shard-size-weighted mean cross-entropy over the whole federation.

    Each shard's logits come from its own product (one product over all rows
    rounds some rows differently), and each shard's mean is summed on its
    own, in shard order, as a loop of mean_cross_entropy would.  Every array
    of the computation is written into `scratch`, a _LossScratch of this
    dataset; run_fedavg passes one built per run, and without it the call
    builds its own."""
    if model.n_features != dataset.n_features or model.n_classes != dataset.n_classes:
        raise ValueError("model dimensions do not match the dataset")
    s = _LossScratch(dataset) if scratch is None else scratch
    w_t = model.weights.T
    for x, logits in s.products:
        np.matmul(x, w_t, out=logits)
    s.logits += model.bias
    _log_likelihoods(s.logits, s.hot, s.picked, s.cols, s.norm)
    total = 0.0
    for ll, n_k in s.shards:
        total += n_k * float(-np.add.reduce(ll) / n_k)
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
    # An outer-axis reduce adds whole entries left to right when they hold
    # two or more numbers (a 1-d reduce is pairwise; with one class every
    # model stays 0), and from -0.0, to which the first entry adds exactly
    # (numpy's 0.0 would turn a -0.0 into 0.0).  p's sequential sum is
    # accumulate's last entry.
    p_sum = np.add.accumulate(p)[-1]
    w_sum = np.add.reduce(w, axis=0, initial=-0.0)
    b_sum = np.add.reduce(b, axis=0, initial=-0.0)
    return ModelParams(w_sum / p_sum, b_sum / p_sum)


# Softmax-regression gradients are bounded by the inputs, so a huge step size
# gives a huge but finite loss (about 1e300 at eta0 = 1e300).  A loss past
# this many times ln(C), the zero model's loss, counts as diverged.  The
# largest loss / ln(C) of legitimate runs: 3.95 (fleet-sweep benchmark at
# seed 7: K=5, E=2, eta0 0.3, round 0), 2.92 (the shipped optimize config at
# seed 11), 2.23 (every run_fedavg call of the test suite).
_DIVERGED_LOSS_RATIO = 1000.0

# Clients stepped together in one stacked call; not a setting.  It bounds a
# round's working set on wide data: a fixed run with dataset.dim = 784 (as
# wide as 28x28 IDX images), N = K = 100, E = 4 and 3 rounds peaks at 123 MB
# in groups and 154 MB as one stack of all K, with the same traces.  The
# benchmark's 60-feature fleets show no such gap (fleet-sweep peaks at
# 43.1 MB both ways), so its figures alone are no reason to drop it.
_GROUP = 8
# Local steps whose minibatch indices a client draws in one call.
_DRAW_CHUNK = 8
# Local steps (K E) a run's rounds must carry to fork a stepping partner: a
# submit to the partner and its result take 0.5 ms on a 2-vCPU host and a
# client-step about 20 us, so from here the exchange is under 2.5% of a
# round.  fleet-sweep (K E <= 160) never forks one; not a setting.
_SPLIT_STEPS = 1024


def _partner_share(sizes, batch_size):
    """A round's stepping order for clients of these shard sizes and how many
    from its front a stepping partner steps: (order, count).  Minibatch
    clients (over batch_size rows) come first, in position order, then the
    full-batch ones, largest first; the partner takes those whose midpoint,
    laid end to end, falls in the first half of the round's rows per step,
    min(n_k, batch_size) each.  The shares differ by at most one client's,
    neither is empty given two clients, and at most one steps both SGD paths.
    batch_size is clamped to the largest shard, so it need not fit an int64."""
    batch_size = min(batch_size, int(sizes.max()))
    costs = np.minimum(sizes, batch_size)
    order = np.argsort(-(costs + (sizes > batch_size)), kind="stable")
    ends = np.cumsum(costs[order])
    return order, int(np.count_nonzero(2 * ends - costs[order] < ends[-1]))


def _step_clients(model, dataset, ids, config, r, partner=None):
    """local_sgd's result for each client of `ids` in round r of a run under
    `config`, as (ids, weights (m, C, d), biases (m, C)) in _partner_share's
    order, stack entry j being client ids[j]'s, with local_sgd's floats on
    its (seed, round, client) substream.  Clients step in place on one
    stack, in slices of at most _GROUP, the full-batch ones first.  Given a
    partner, it steps the front share while this process steps the rest,
    which moves no bit; if either fails, the round is stepped again here, so
    it raises the serial loop's first failure."""
    order, count = _partner_share(dataset.sizes[ids], config.batch_size)
    ids = ids[order]
    if partner is not None:
        from concurrent.futures.process import BrokenProcessPool

        try:
            future = partner.submit(_step_share, model, ids[:count], config, r)
            own = _step_clients(model, dataset, ids[count:], config, r)
            other = future.result()
        except FloatingPointError:
            return _step_clients(model, dataset, ids, config, r)
        except BrokenProcessPool:
            raise BrokenProcessPool(
                f"the stepping partner of the K={config.k}, E={config.e} run died in round {r}"
            ) from None
        return tuple(np.concatenate(pair) for pair in zip(other, own))
    steps, lr, batch_size = config.e, config.eta0 / (1.0 + r), config.batch_size
    w = np.repeat(model.weights[None], ids.size, axis=0)
    b = np.repeat(model.bias[None], ids.size, axis=0)
    mini = int(np.count_nonzero(dataset.sizes[ids] > batch_size))
    for start in range(mini, ids.size, _GROUP):
        group = slice(start, start + _GROUP)
        _full_batch_steps(w[group], b[group], dataset, ids[group], steps, lr)
    for start in range(0, mini, _GROUP):
        group = slice(start, min(start + _GROUP, mini))
        rngs = [stream(config.seed, SGD, r, cid) for cid in ids[group].tolist()]
        _minibatch_steps(w[group], b[group], dataset, ids[group], steps, lr, batch_size, rngs)
    return ids, w, b


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


def _step_share(model, ids, config, r):
    """A stepping partner's share of round r: _step_clients' (ids, weights,
    biases) for `ids` over the dataset it inherited.  It steps under the
    run's errstate, so a FloatingPointError comes back through the future."""
    with np.errstate(over="raise", invalid="raise"):
        return _step_clients(model, _tasks[-1][0], ids, config, r)


# in a forked pool worker, at [-1], what its pool holds for it: (dataset,
# profile, idle CPUs), with None for a partner's last two; empty elsewhere
_tasks = []


def _fork_context():
    """(usable CPU count, fork context) where this process may fork: it has
    os.sched_getaffinity and fork, no other thread is alive (a fork beside
    one can deadlock the child) and it is not daemonic; else (1, None)."""
    import multiprocessing
    import threading

    if threading.active_count() > 1 or multiprocessing.current_process().daemon:
        return 1, None
    try:
        return len(os.sched_getaffinity(0)), multiprocessing.get_context("fork")
    except (AttributeError, ValueError):
        return 1, None


def _pool(context, workers, held):
    """A pool of `workers` processes, forked on the first submit before any
    thread starts, each finding `held` at _tasks[-1], inherited, not pickled."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        workers, mp_context=context, initializer=_tasks.append, initargs=(held,)
    )


def _stepping_partner(dataset, config):
    """A one-worker pool for _step_share, for a run of two or more clients a
    round whose rounds carry at least _SPLIT_STEPS local steps, where this
    process may fork onto two usable CPUs (_fork_context); else None.
    In a train_all worker it also takes one of the call's idle CPUs, and
    without one it returns None: a process beside busy workers would slow
    them more than it helps."""
    if config.k < 2 or config.k * config.e < _SPLIT_STEPS:
        return None
    cpus, context = _fork_context()
    if cpus < 2 or (_tasks and not _tasks[-1][2].acquire(False)):  # without blocking
        return None
    return _pool(context, 1, (dataset, None, None))


def run_fedavg(dataset, profile, config):
    """Federated averaging with per-round cost accounting.

    Stops after max_rounds, or earlier once the post-aggregation global loss
    reaches target_loss; raises DivergenceError once a round's models or loss
    overflow or turn invalid, or the loss passes _DIVERGED_LOSS_RATIO * ln(C),
    and BrokenProcessPool (a RuntimeError) naming the run and the round if its
    stepping partner dies.  Until a partner starts, each round first tries to
    start one (_stepping_partner): a run trained alone starts it before round
    0, a run in a train_all worker once a CPU falls idle, and that CPU is
    returned when the run ends.  aggregate sums each round's models, which
    come in _step_clients' order, in client-id order.  No process or thread
    it starts outlives the call.  Returns (final model, per-round traces).
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
    scratch = _LossScratch(dataset)
    traces = []
    partner = None
    try:
        for r in range(config.max_rounds):
            if partner is None:
                partner = _stepping_partner(dataset, config)
            ids = np.sort(sample_rng.choice(n, size=config.k, replace=False))
            try:
                # an overflow raises here, before it can leave non-finite models
                with np.errstate(over="raise", invalid="raise"):
                    stepped = _step_clients(model, dataset, ids, config, r, partner)
                    model = aggregate(*stepped, dataset)
                    loss = global_loss(model, dataset, scratch)
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
    finally:
        if partner is not None:
            partner.shutdown()
            if _tasks:  # in a train_all worker: the partner's CPU is idle again
                _tasks[-1][2].release()
    return model, traces


def _traces(config):
    dataset, profile, _ = _tasks[-1]
    return run_fedavg(dataset, profile, config)[1]


def train_all(dataset, profile, configs):
    """The traces of run_fedavg(dataset, profile, c) for each TrainConfig c
    in configs, in input order, each run in a forked worker process, one per
    usable CPU and at most one per run.

    Runs are submitted heaviest first (largest K E), so the longest starts
    at once, and the first failure in input order is re-raised, as a loop
    would raise it.  Each run that ends with no run left to start leaves its
    worker's CPU idle, and a run still going whose rounds carry at least
    _SPLIT_STEPS local steps takes it for its stepping partner (see
    run_fedavg), so the longest run is shared out once the others are done.
    With one usable CPU, or where this process may not fork (_fork_context),
    the runs go one after another here, each without a partner; a single run
    goes here too.  The traces are the same bits either way, and a worker
    that dies raises BrokenProcessPool."""
    n = len(configs)
    cpus, context = _fork_context()
    workers = min(n, cpus)
    if workers < 2:
        return [run_fedavg(dataset, profile, c)[1] for c in configs]
    idle = context.Semaphore(cpus - workers)
    pool = _pool(context, workers, (dataset, profile, idle))
    ended = itertools.count(1)

    def free_the_cpu(future):
        if n - next(ended) < workers:  # no run is left to start on this worker
            idle.release()

    try:
        heaviest_first = sorted(range(n), key=lambda i: configs[i].k * configs[i].e, reverse=True)
        futures = {i: pool.submit(_traces, configs[i]) for i in heaviest_first}
        for future in futures.values():
            future.add_done_callback(free_the_cpu)
        return [futures[i].result() for i in range(n)]
    finally:
        pool.shutdown(cancel_futures=True)


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
