import multiprocessing
import os
import struct

import numpy as np
import pytest

from fedcost.datagen import gen_synthetic
from fedcost.system import AveragedCosts, sample_profile


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    yield
    assert multiprocessing.active_children() == [], "a worker process outlived the test"


@pytest.fixture(scope="session")
def small_dataset():
    return gen_synthetic(1.0, 1.0, 6, 40, 10, seed=2)


@pytest.fixture(scope="session")
def desk_dataset():
    """Synthetic(1,1), N=20: the shared desk-scale training dataset."""
    return gen_synthetic(1.0, 1.0, 20, 100, 50, seed=42)


@pytest.fixture(scope="session")
def desk_profile():
    return sample_profile(
        20, t_p_mean=0.5, t_p_std=0.15, e_p_mean=0.01, t_m_mean=0.2, e_m_mean=0.02,
        jitter=0.1, seed=1,
    )


@pytest.fixture(scope="session")
def sim_costs():
    """Simulation-like population costs (N=100 fleet)."""
    return AveragedCosts(n_clients=100, t_p=0.5, t_m=0.2, e_p=0.01, e_m=0.02, gamma=0.5)


def random_costs(rng, n=None, gamma=None):
    """Random positive parameter bundle for property sweeps."""
    return AveragedCosts(
        n_clients=int(rng.integers(20, 201)) if n is None else n,
        t_p=float(10 ** rng.uniform(-3, 0)),
        t_m=float(10 ** rng.uniform(-3, 0)),
        e_p=float(10 ** rng.uniform(-4, -1)),
        e_m=float(10 ** rng.uniform(-4, -1)),
        gamma=float(rng.uniform(0, 1)) if gamma is None else gamma,
    )


def usable_cpus(monkeypatch, n):
    """Make os.sched_getaffinity report n usable CPUs, the count that sets
    how many workers learner.train_all forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def write_idx(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
              truncate_images=0, label_count=None):
    """Write an IDX image/label pair into tmp_path; returns the two paths."""
    n, rows, cols = images.shape
    img_path = tmp_path / "imgs.idx"
    lab_path = tmp_path / "labs.idx"
    blob = struct.pack(">IIII", image_magic, n, rows, cols) + images.astype(np.uint8).tobytes()
    if truncate_images:
        blob = blob[:-truncate_images]
    img_path.write_bytes(blob)
    lab_path.write_bytes(
        struct.pack(">II", label_magic, n if label_count is None else label_count)
        + labels.astype(np.uint8).tobytes()[: (n if label_count is None else label_count)]
    )
    return str(img_path), str(lab_path)


def write_oversized_idx(tmp_path):
    """An image header claiming 2^31 images of 2^15 x 2^15 pixels (2^61 bytes),
    followed by 64 bytes, and a consistent 4-label file."""
    img_path, lab_path = tmp_path / "huge-imgs.idx", tmp_path / "huge-labs.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, 2**31, 2**15, 2**15) + bytes(64))
    lab_path.write_bytes(struct.pack(">II", 0x801, 4) + bytes(4))
    return str(img_path), str(lab_path)
