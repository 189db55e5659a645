import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcost import seeding
from fedcost.seeding import (
    COMM,
    DATA,
    PILOT,
    PILOTS,
    PROFILE,
    SAMPLING,
    SGD,
    SIZES,
    TRAIN,
    stream,
    sub_seed,
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), key=st.lists(st.integers(0, 40), max_size=3))
def test_stream_equals_the_spawned_child_it_replaced(seed, key):
    # the constructions stream replaced: SeedSequence(seed) itself for the
    # empty key, and the spawn(i + 1)[i] child, nested, for a longer one
    child = np.random.SeedSequence(seed)
    for i in key:
        child = child.spawn(i + 1)[i]
    want = np.random.default_rng(child).bit_generator.state
    assert stream(seed, *key).bit_generator.state == want


def test_named_keys_are_pairwise_distinct_under_each_seed():
    # under the config seed, under a training seed (each key's first round,
    # client or pilot), and under a dataset seed (client k is key k + 1)
    groups = [
        [DATA, PROFILE, TRAIN, PILOTS],
        [(SAMPLING,), (COMM, 0), (SGD, 0, 0), (PILOT, 0)],
        [(), (SIZES,)] + [(k + 1,) for k in range(3)],
    ]
    assert len({SAMPLING, COMM, SGD, PILOT}) == 4 and SIZES < 1
    for keys in groups:
        assert len(set(keys)) == len(keys)
        for seed in (0, 7, 2**40 + 3):
            assert len({sub_seed(seed, *key) for key in keys}) == len(keys)
            states = [stream(seed, *key).bit_generator.state["state"] for key in keys]
            assert len({s["state"] for s in states}) == len(keys)


def test_only_the_seeding_module_builds_generators():
    package = pathlib.Path(seeding.__file__).parent
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "seeding.py"
        and ("SeedSequence" in path.read_text() or "default_rng" in path.read_text())
    ]
    assert offenders == []
