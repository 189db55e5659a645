"""Per-round wall-clock time under three uplink scheduling strategies.

All sampled clients compute in parallel; the strategies differ in how the
uplink is shared afterwards:

* OPTIMAL_TS: clients transmit sequentially on the full channel, scheduled
  in ascending order of computation time; each upload starts as soon as both
  the client's computation is done and the channel is free.
* WAIT_ALL_TS: sequential uplink that only starts once every sampled client
  has finished computing.
* STATIC_FS: the bandwidth is split evenly at the start of the round, so
  each client uploads at 1/K of the full rate as soon as it finishes.
"""

import enum
import itertools
from dataclasses import dataclass

import numpy as np

_BRUTE_FORCE_MAX = 9


class Strategy(enum.Enum):
    OPTIMAL_TS = "optimal-ts"
    WAIT_ALL_TS = "wait-all-ts"
    STATIC_FS = "static-fs"

    @classmethod
    def parse(cls, name):
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown strategy {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class RoundJob:
    """One round's work: per sampled client, total computation seconds
    (per-iteration time already folded by the local step count) and this
    round's upload seconds at full bandwidth."""

    comp: np.ndarray
    comm: np.ndarray
    client_ids: np.ndarray = None

    def __post_init__(self):
        comp = np.asarray(self.comp, dtype=float)
        comm = np.asarray(self.comm, dtype=float)
        if comp.ndim != 1 or comp.size == 0 or comm.shape != comp.shape:
            raise ValueError("comp and comm must be equal-length, non-empty 1-d arrays")
        if np.any(comp <= 0) or np.any(comm <= 0) or not np.all(np.isfinite(comp + comm)):
            raise ValueError("job times must be finite and strictly positive")
        ids = self.client_ids
        ids = np.arange(comp.size) if ids is None else np.asarray(ids, dtype=int)
        if ids.shape != comp.shape or len(set(ids.tolist())) != ids.size:
            raise ValueError("client_ids must be distinct and match the job length")
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "comm", comm)
        object.__setattr__(self, "client_ids", ids)

    @property
    def size(self):
        return int(self.comp.size)


def _chain_time(comp_seq, comm_seq):
    """Sequential-uplink finish time: each upload starts when its client is
    done computing and the channel is free."""
    t = 0.0
    for c, m in zip(comp_seq, comm_seq):
        t = max(c, t) + m
    return t


def round_time(job, strategy):
    """Wall-clock seconds of one round under the given strategy."""
    if strategy is Strategy.OPTIMAL_TS:
        order = np.lexsort((job.client_ids, job.comp))
        return _chain_time(job.comp[order], job.comm[order])
    if strategy is Strategy.WAIT_ALL_TS:
        return float(np.max(job.comp)) + float(np.sum(job.comm))
    if strategy is Strategy.STATIC_FS:
        return float(np.max(job.comp + job.size * job.comm))
    raise ValueError(f"unknown strategy: {strategy!r}")


def brute_force_min_time(job):
    """Minimum sequential-uplink round time over every transmit order.

    Returns (time, client-id order achieving it).  Guarded to K <= 9; the
    chain evaluation is shared with round_time so equal inputs produce
    bit-identical floats.
    """
    k = job.size
    if k > _BRUTE_FORCE_MAX:
        raise ValueError(f"brute force limited to K <= {_BRUTE_FORCE_MAX}, got {k}")
    # plain lists: indexing them per permutation is far cheaper than numpy
    # fancy indexing, and the chain sums stay the same float64 operations
    comp, comm = job.comp.tolist(), job.comm.tolist()
    # seed the search with the ascending-computation order so exact ties
    # resolve to the canonical schedule
    best_perm = tuple(np.lexsort((job.client_ids, job.comp)))
    best_time = _chain_time([comp[i] for i in best_perm], [comm[i] for i in best_perm])
    for perm in itertools.permutations(range(k)):
        t = _chain_time([comp[i] for i in perm], [comm[i] for i in perm])
        if t < best_time:
            best_time = t
            best_perm = perm
    return best_time, tuple(int(job.client_ids[i]) for i in best_perm)

