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

import numpy as np

from .csvio import write_csv


@dataclass(frozen=True)
class ConvergenceCoeffs:
    """Statistical difficulty of the learning task.

    rho is the ratio of the convergence budget's constant term to the E^2
    term (the only statistic the optimizer needs); epsilon is the target
    loss precision, kept at 1 when already folded into rho.
    """

    rho: float
    n_clients: int
    epsilon: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.rho) or self.rho <= 0:
            raise ValueError("rho must be finite and > 0")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError("epsilon must be finite and > 0")


@dataclass(frozen=True)
class CostReport:
    expected_time: float
    expected_energy: float
    total_cost: float
    rounds: float


def _scalar(out):
    """Unwrap a 0-d result so scalar inputs give scalar outputs."""
    return out[()] if out.ndim == 0 else out


def sampling_penalty(k, n_clients):
    """phi(K) = 1 + (N - K) / (K (N - 1)): the E^2 multiplier in the
    convergence budget.  Equals 1 at full participation, 2 at K = 1."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise ValueError("k must be > 0")
    if n_clients == 1:
        return _scalar(np.ones_like(k))
    return _scalar(1.0 + (n_clients - k) / (k * (n_clients - 1)))


def expected_energy(k, e, r, costs):
    """Exact expected total energy K (e_p E + e_m) R."""
    k = np.asarray(k, dtype=float)
    e = np.asarray(e, dtype=float)
    return _scalar(k * (costs.e_p * e + costs.e_m) * r)


def expected_time_approx(k, e, r, costs):
    """Tractable expected total time (t_p E + t_m K) R."""
    k = np.asarray(k, dtype=float)
    e = np.asarray(e, dtype=float)
    return _scalar((costs.t_p * e + costs.t_m * k) * r)


def expected_time_exact(k, e, r, profile):
    """Exact expected total time for integer K under uniform sampling.

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


def _budget_numerator(k, e, coeffs):
    """rho + phi(K) E^2, the convergence budget scaled by E R."""
    return coeffs.rho + sampling_penalty(k, coeffs.n_clients) * e**2


def convergence_bound(k, e, r, coeffs):
    """Loss-precision budget after R rounds: (rho + phi(K) E^2) / (E R)."""
    k = np.asarray(k, dtype=float)
    e = np.asarray(e, dtype=float)
    return _scalar(_budget_numerator(k, e, coeffs) / (e * r))


def rounds_needed(k, e, coeffs):
    """Rounds required to drive the convergence budget down to epsilon:
    (rho + phi(K) E^2) / (epsilon E).  Continuous; callers ceil to simulate."""
    k = np.asarray(k, dtype=float)
    e = np.asarray(e, dtype=float)
    return _scalar(_budget_numerator(k, e, coeffs) / (coeffs.epsilon * e))


def p3_objective(k, e, costs, coeffs):
    """Blended cost of reaching the precision target, as a function of (K, E).

    [(1-gamma)(t_p E + t_m K) + gamma K (e_p E + e_m)] * (rho + phi(K) E^2)
    / (epsilon E).  Accepts relaxed (continuous, broadcastable) K and E; only
    positivity is enforced so finite differences may probe just outside
    [1, N].
    """
    if coeffs.n_clients != costs.n_clients:
        raise ValueError("costs and coeffs disagree on the number of clients")
    k = np.asarray(k, dtype=float)
    e = np.asarray(e, dtype=float)
    if np.any(k <= 0) or np.any(e <= 0):
        raise ValueError("k and e must be > 0")
    g = costs.gamma
    rate = (1.0 - g) * (costs.t_p * e + costs.t_m * k) + g * k * (costs.e_p * e + costs.e_m)
    return _scalar(rate * _budget_numerator(k, e, coeffs) / (coeffs.epsilon * e))


def cost_report(k, e, costs, coeffs):
    """Predicted time/energy/cost at the round count that meets the
    precision target."""
    r = rounds_needed(k, e, coeffs)
    t = expected_time_approx(k, e, r, costs)
    en = expected_energy(k, e, r, costs)
    return CostReport(
        expected_time=float(t),
        expected_energy=float(en),
        total_cost=float(costs.gamma * en + (1.0 - costs.gamma) * t),
        rounds=float(r),
    )


def dump_cost_surface(path, costs, coeffs, k_values, e_values):
    """CSV grid of the objective and its time/energy components."""
    def rows():
        for k in k_values:
            for e in e_values:
                rep = cost_report(float(k), float(e), costs, coeffs)
                yield [int(k), int(e), rep.total_cost, rep.expected_time, rep.expected_energy]

    write_csv(path, ["k", "e", "objective", "time_term", "energy_term"], rows())
