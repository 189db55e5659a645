"""Heterogeneous per-client cost parameters and per-round communication draws.

A :class:`SystemProfile` fixes, for each of the N clients, the computation
time/energy of one local iteration and the mean time/energy of one round of
model upload.  Computation costs are constant across rounds; communication
costs vary round to round, modeled as truncated-normal draws around each
client's mean with a single relative-jitter knob.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .seeding import stream


def _as_positive_array(name, values, n=None):
    try:  # a copy: the profile freezes its own arrays, never its caller's
        arr = np.array(values, dtype=float)
    except (TypeError, OverflowError):  # a JSON integer past 1e308 overflows
        raise ValueError(f"{name} must be an array of numbers") from None
    if arr.ndim != 1 or arr.size == 0:  # a fleet needs a client
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"{name} entries must be finite and strictly positive")
    return arr


_ARRAYS = ("t_comp", "e_comp", "comm_time_mean", "comm_energy_mean")


@dataclass(frozen=True)
class SystemProfile:
    """Per-client cost parameters for a fleet of N clients.

    t_comp / e_comp: seconds / Joules for one local iteration.
    comm_time_mean / comm_energy_mean: per-round upload means.
    comm_jitter: relative std of the per-round communication draws.
    """

    t_comp: np.ndarray
    e_comp: np.ndarray
    comm_time_mean: np.ndarray
    comm_energy_mean: np.ndarray
    comm_jitter: float

    def __post_init__(self):
        n = None  # t_comp's length, which the other arrays must match
        for name in _ARRAYS:
            object.__setattr__(self, name, _as_positive_array(name, getattr(self, name), n))
            n = self.t_comp.shape[0]
        if not np.isfinite(self.comm_jitter) or self.comm_jitter < 0:
            raise ValueError("comm_jitter must be finite and >= 0")
        for name in _ARRAYS:
            getattr(self, name).setflags(write=False)

    @property
    def n_clients(self):
        return int(self.t_comp.shape[0])


@dataclass(frozen=True)
class AveragedCosts:
    """Population-mean cost parameters plus the time/energy price weight.

    gamma = 1 prices energy only, gamma = 0 wall-clock time only; the
    blended per-unit cost is gamma * energy + (1 - gamma) * time.
    """

    n_clients: int
    t_p: float
    t_m: float
    e_p: float
    e_m: float
    gamma: float

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        for name in ("t_p", "t_m", "e_p", "e_m"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")

    def with_gamma(self, gamma):
        return replace(self, gamma=float(gamma))


def averaged_costs(profile, gamma):
    """Population means of a profile, bundled with the price weight gamma."""
    return AveragedCosts(
        n_clients=profile.n_clients,
        t_p=float(np.mean(profile.t_comp)),
        t_m=float(np.mean(profile.comm_time_mean)),
        e_p=float(np.mean(profile.e_comp)),
        e_m=float(np.mean(profile.comm_energy_mean)),
        gamma=float(gamma),
    )


def _positive_normal(rng, mean, std, size):
    """Normal draws conditioned on being > 0 (redraw any non-positive values)."""
    mean = np.broadcast_to(np.asarray(mean, dtype=float), size).copy()
    std = np.broadcast_to(np.asarray(std, dtype=float), size).copy()
    out = rng.normal(mean, std)
    bad = out <= 0
    while np.any(bad):
        out[bad] = rng.normal(mean[bad], std[bad])
        bad = out <= 0
    return out


def sample_profile(
    n_clients,
    t_p_mean,
    t_p_std,
    e_p_mean,
    t_m_mean,
    e_m_mean,
    jitter,
    seed,
    comm_spread=0.2,
):
    """Generate a heterogeneous profile around the requested population means.

    Computation times come from a normal law truncated to (0, inf); per-client
    energy uses the same relative spread.  Per-client communication means are
    log-normal around the population mean (relative spread comm_spread) and
    rescaled so the realized population mean matches the request exactly.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    for name, v in (
        ("t_p_mean", t_p_mean),
        ("e_p_mean", e_p_mean),
        ("t_m_mean", t_m_mean),
        ("e_m_mean", e_m_mean),
    ):
        if not np.isfinite(v) or v <= 0:
            raise ValueError(f"{name} must be finite and > 0")
    if t_p_std < 0 or jitter < 0 or comm_spread < 0:
        raise ValueError("spread parameters must be >= 0")
    spread = float(comm_spread)
    if not math.isfinite(spread * spread):  # the log-normal's sigma^2 is log1p(spread^2)
        raise ValueError(f"comm_spread = {spread:g}: its square must be finite")

    rng = stream(seed)
    t_comp = _positive_normal(rng, t_p_mean, t_p_std, n_clients)
    rel = t_p_std / t_p_mean
    e_comp = _positive_normal(rng, e_p_mean, rel * e_p_mean, n_clients)

    def comm_means(mean):
        sigma = np.sqrt(np.log1p(comm_spread**2))
        mult = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n_clients)
        mult /= mult.mean()
        return mean * mult

    return SystemProfile(
        t_comp=t_comp,
        e_comp=e_comp,
        comm_time_mean=comm_means(t_m_mean),
        comm_energy_mean=comm_means(e_m_mean),
        comm_jitter=float(jitter),
    )


def draw_round_costs(profile, sampled_ids, rng):
    """Draw one round's per-client communication time and energy.

    Draws are independent, positive, centered on each client's mean with
    relative std equal to the profile jitter (zero jitter returns the means).
    """
    ids = np.asarray(sampled_ids, dtype=int)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("sampled_ids must be a non-empty 1-d index array")
    if np.any(ids < 0) or np.any(ids >= profile.n_clients):
        raise ValueError("sampled_ids out of range")
    t_mean = profile.comm_time_mean[ids]
    e_mean = profile.comm_energy_mean[ids]
    j = profile.comm_jitter
    t = _positive_normal(rng, t_mean, j * t_mean, ids.size)
    e = _positive_normal(rng, e_mean, j * e_mean, ids.size)
    return t, e


def load_profile(path):
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("profile file must hold a JSON object")
    expected = {"n_clients", "jitter", *_ARRAYS}
    missing = expected - payload.keys()
    if missing:
        raise ValueError(f"profile file missing keys: {sorted(missing)}")
    unknown = payload.keys() - expected
    if unknown:
        raise ValueError(f"profile file has unknown keys: {sorted(unknown)}")
    n_clients, jitter = payload["n_clients"], payload["jitter"]
    # JSON types exactly: true, "8" and 8.7 are no count, true and "0.1" no number
    try:
        if type(n_clients) is not int or type(jitter) not in (int, float):
            raise TypeError
        jitter = float(jitter)
    except (TypeError, OverflowError):
        raise ValueError(
            f"profile n_clients must be an integer and jitter a number, got "
            f"{n_clients!r} and {jitter!r}"
        ) from None
    for name in _ARRAYS:
        values = payload[name]
        if isinstance(values, list) and not all(type(v) in (int, float) for v in values):
            raise ValueError(f"{name} must be an array of numbers")
    profile = SystemProfile(*(payload[name] for name in _ARRAYS), comm_jitter=jitter)
    if profile.n_clients != n_clients:
        raise ValueError("n_clients does not match array lengths")
    # the bounds of a sampled profile's keys (fedcost.config's _cost and
    # _spread), which keep every price of the file's numbers finite
    for name in _ARRAYS:
        values = getattr(profile, name)
        if not np.all((values >= 1e-50) & (values <= 1e50)):
            raise ValueError(f"{name} entries of profile file {path} must lie in [1e-50, 1e50]")
    if profile.comm_jitter > 1e50:
        raise ValueError(f"jitter of profile file {path} must be <= 1e50")
    return profile
