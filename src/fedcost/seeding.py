"""Every random stream of the package, keyed on (seed, *key) through
SeedSequence's spawn key: a stream depends on its key alone, not on call
order, and distinct keys under one seed give distinct streams."""

import numpy as np

# under the config seed: the dataset, profile, final-training and pilot seeds
DATA, PROFILE, TRAIN, PILOTS = ((100, domain) for domain in range(4))
# under a training seed: SAMPLING, (COMM, round), (SGD, round, client), (PILOT, i)
SAMPLING, COMM, SGD, PILOT = range(4)
# under a dataset or profile seed: () for the whole draw, except
# gen_synthetic's (SIZES,) for the shard sizes and (k + 1,) for client k
SIZES = 0


def stream(seed, *key):
    """The generator keyed on (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def sub_seed(seed, *key):
    """Integer seed keyed on (seed, key), for callees that take a plain seed."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])
