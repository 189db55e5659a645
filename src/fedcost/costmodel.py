"""Closed-form expected time/energy of a federated run and the cost objective.

For a run of R rounds with K sampled clients doing E local steps each:

* expected energy is exact: K (e_p E + e_m) R;
* expected time has an exact combinatorial form driven by the distribution
  of the fastest sampled client, and a tractable approximation
  (t_p E + t_m K) R that is exact for homogeneous fleets and for K = 1;
* a convergence budget (rho + phi(K) E^2) / (E R) ties the loss precision to
  the control variables, where phi is the client-sampling penalty;
* eliminating R at the precision boundary yields a single objective in
  (K, E) that is strictly biconvex, which the optimizer module exploits.
"""

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .csvio import write_csv


@dataclass(frozen=True)
class ConvergenceCoeffs:
    """Statistical difficulty of the learning task.

    rho is the ratio of the convergence budget's constant term to the E^2
    term (the only statistic the optimizer needs); the target precision is
    folded into rho, so the budget is driven down to 1.  The fleet size N
    in the sampling penalty comes from the averaged costs.
    """

    rho: float

    def __post_init__(self):
        if not np.isfinite(self.rho) or self.rho <= 0:
            raise ValueError("rho must be finite and > 0")


@dataclass(frozen=True)
class CostReport:
    """cost_report's result: floats, or arrays shaped like K and E broadcast."""

    expected_time: float
    expected_energy: float
    total_cost: float


def sampling_penalty(k, n_clients):
    """phi(K) = 1 + (N - K) / (K (N - 1)): the E^2 multiplier in the
    convergence budget.  Equals 1 at full participation, 2 at K = 1."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise ValueError("k must be > 0")
    if n_clients == 1:
        return np.ones_like(k)[()]
    return 1.0 + (n_clients - k) / (k * (n_clients - 1))


def expected_energy(k, e, r, costs):
    """Exact expected total energy K (e_p E + e_m) R."""
    k = np.asarray(k, dtype=float)
    e = np.asarray(e, dtype=float)
    return k * (costs.e_p * e + costs.e_m) * r


def expected_time_approx(k, e, r, costs):
    """Tractable expected total time (t_p E + t_m K) R."""
    k = np.asarray(k, dtype=float)
    e = np.asarray(e, dtype=float)
    return (costs.t_p * e + costs.t_m * k) * r


def expected_time_exact(k, e, r, profile):
    """Exact expected total time for integer K under uniform sampling, of
    the round that never waits: the fastest sampled client's computation
    plus every upload, one after another.

    That chain is the optimal-ts round (scheduler.round_time) only when
    uploads dominate, so the channel never idles for a computation.  Mean
    simulated optimal-ts round time over this formula, on a 20-client fleet
    with t_p = 0.05, K in {5, 20} and E in {20, 100}: 1.00 when
    communication-bound (t_m = 2.0), up to 1.58 balanced (t_m = 0.05) and
    up to 2.02 compute-bound (t_m = 0.005).

    The computation term averages the fastest sampled client's iteration
    time: client (i) in the ascending sort is fastest with probability
    C(N-i, K-1) / C(N, K).  The weights are built by a telescoping product,
    so no factorials overflow.
    """
    n = profile.n_clients
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    t_sorted = np.sort(profile.t_comp)
    w = k / n
    first_term = 0.0
    for j in range(n - k + 1):
        first_term += w * t_sorted[j]
        w *= (n - j - k) / (n - j - 1) if j < n - 1 else 0.0
    t_m = float(np.mean(profile.comm_time_mean))
    return (first_term * e + t_m * k) * r


def convergence_bound(k, e, r, costs, coeffs):
    """Loss-precision budget after R rounds: (rho + phi(K) E^2) / (E R)."""
    return rounds_needed(k, e, costs, coeffs) / r


def rounds_needed(k, e, costs, coeffs):
    """Rounds required to drive the convergence budget down to 1:
    (rho + phi(K) E^2) / E.  Continuous; callers ceil to simulate."""
    e = np.asarray(e, dtype=float)
    return (coeffs.rho + sampling_penalty(k, costs.n_clients) * e**2) / e


def p3_objective(k, e, costs, coeffs):
    """Blended cost of reaching the precision target as a function of (K, E),
    [(1-gamma)(t_p E + t_m K) + gamma K (e_p E + e_m)] (rho + phi(K) E^2) / E:
    cost_report's total_cost.  K and E may be relaxed (continuous,
    broadcastable); only positivity is enforced, so finite differences may
    probe just outside [1, N]."""
    if np.any(np.asarray(k) <= 0) or np.any(np.asarray(e) <= 0):
        raise ValueError("k and e must be > 0")
    return cost_report(k, e, costs, coeffs).total_cost


def cost_report(k, e, costs, coeffs):
    """Predicted time, energy and blended cost gamma energy + (1 - gamma) time
    at the round count that meets the precision target; the one place the
    blended cost is computed.  K and E broadcast: scalar inputs give scalar
    fields, arrays give arrays."""
    r = rounds_needed(k, e, costs, coeffs)
    t = expected_time_approx(k, e, r, costs)
    en = expected_energy(k, e, r, costs)
    return CostReport(t, en, costs.gamma * en + (1.0 - costs.gamma) * t)


def dump_cost_surface(path, costs, coeffs, k_values, e_values):
    """CSV grid of the objective and its time/energy components, one
    cost_report call per K row (one call over the whole grid doubles peak
    memory on a 500 x 400 surface)."""
    e_values = [int(e) for e in e_values]
    e_row = np.array(e_values, dtype=float)

    def rows():
        for k in k_values:
            rep = cost_report(k, e_row, costs, coeffs)
            yield from zip(repeat(int(k)), e_values, rep.total_cost.tolist(),
                           rep.expected_time.tolist(), rep.expected_energy.tolist())

    write_csv(path, ["k", "e", "objective", "time_term", "energy_term"], rows())
