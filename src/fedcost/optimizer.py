"""Control-variable selection: alternate convex search on the cost objective,
an exhaustive-grid baseline, pilot-run estimation of the difficulty ratio rho,
and numeric verification of the qualitative solution properties.

The blended-cost objective is strictly biconvex in (K, E), so it is minimized
by alternating two one-dimensional solves, each in closed form: the K step
takes the positive root of a quadratic stationarity condition, the E step
the positive root of a strictly increasing cubic one.  The continuous fixed
point is then rounded by grid_search over its floor/ceil integer candidates,
so ACS and the exhaustive grid share one argmin and one tie rule.

rho itself is unknown a priori.  It is recovered from short pilot runs: run
training at a few (K, E) pairs until two preset loss levels are crossed; the
ratio of the E-scaled round-count gaps between two pilots pins rho.
"""

import collections
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .costmodel import p3_objective, rounds_needed, sampling_penalty
from .csvio import write_csv
from .learner import train_all
from .seeding import PILOT, sub_seed


class EstimationError(RuntimeError):
    """Raised when no pilot pair yields a usable rho estimate."""


class PilotTimeoutError(RuntimeError):
    """Raised when a pilot run fails to reach the lower loss level in time."""


@dataclass
class Solution:
    k_star: int
    e_star: int
    r_star: int
    predicted_cost: float
    trajectory: list = field(default_factory=list)
    converged: bool = True


@dataclass(frozen=True)
class EstimationPlan:
    """Pilot schedule: distinct (K, E) pairs, the two loss levels to cross
    (loss_a above loss_b), and a per-pilot round cap."""

    pairs: tuple
    loss_a: float
    loss_b: float
    round_cap: int = 500

    def __post_init__(self):
        pairs = tuple((int(k), int(e)) for k, e in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if len(pairs) < 2:
            raise ValueError("need at least two pilot pairs")
        if len(set(pairs)) != len(pairs):
            raise ValueError("pilot pairs must be distinct")
        if not self.loss_a > self.loss_b:
            raise ValueError("loss_a must exceed loss_b")
        if self.round_cap < 1:
            raise ValueError("round_cap must be >= 1")


@dataclass(frozen=True)
class PilotRecord:
    k: int
    e: int
    rounds_to_a: int
    rounds_to_b: int


@dataclass(frozen=True)
class RhoEstimate:
    rho: float
    records: tuple
    pilot_steps: int  # sum of K E R_b over the pilots
    averaged: int  # pilot pairs whose estimates rho averages
    discarded: str  # the other pairs counted by reason, "" when there are none


def solve_k_given_e(e, costs, coeffs):
    """Continuous minimizer of the objective in K at fixed E, clamped to
    [1, N].  Pure energy pricing (gamma = 1) gives K^2 = 0, so K = 1."""
    n = costs.n_clients
    g = costs.gamma
    if not np.isfinite(e) or e <= 0:
        raise ValueError("e must be finite and > 0")
    if n == 1:  # the closed form is 0/0 there
        return 1.0
    c = (1.0 - g) * costs.t_m + g * (costs.e_p * e + costs.e_m)
    curvature = coeffs.rho / e + (n - 2) * e / (n - 1)
    ksq = (1.0 - g) * n * costs.t_p * e * e / ((n - 1) * c * curvature)
    return float(min(max(math.sqrt(ksq), 1.0), n))


# ACS starts at (max(1, N/2), _E0) and stops once a sweep moves (K, E) by at
# most _TOL, or after _MAX_SWEEPS sweeps; the E solve raises past _E_MAX.
_E0 = 10.0
_TOL = 1e-3
_MAX_SWEEPS = 100
_E_MAX = 1e6


def solve_e_given_k(k, costs, coeffs):
    """Continuous minimizer of the objective in E at fixed K, clamped to
    >= 1: the positive root E* of phi(K) (2 a E^3 + b E^2) = rho b, with a
    and b the blended per-step and per-upload costs.  Raises ValueError
    when E* exceeds _E_MAX."""
    n = costs.n_clients
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    g = costs.gamma
    phi = sampling_penalty(k, n)
    a = (1.0 - g) * costs.t_p + g * k * costs.e_p
    b = (1.0 - g) * costs.t_m * k + g * k * costs.e_m
    # The cubic rises strictly from -rho b at E = 0, so E* <= 1 exactly when
    # it is >= 0 at E = 1.  Past this test rho > phi and a / b < rho / 2 phi,
    # so no coefficient below overflows (a tiny rho or b would).
    if 2.0 * a + b >= coeffs.rho * b / phi:
        return 1.0
    # Over -b E^3 the cubic is rho y^3 - phi y - 2 phi a / b in y = 1 / E.
    # Its other two roots in E sum to -b / 2a - E* and multiply with E* to a
    # positive number, so their real parts, and their reciprocals', are
    # negative: 1 / E* is the largest root.  Solved for E, a small E* beside
    # the root near -b / 2a would get only that root's absolute accuracy.
    # With y = 2 z / (sqrt(3) r), r = sqrt(rho / phi) (finite, as 1 <= phi <=
    # 2), it is 4 z^3 - 3 z = t, whose largest root is cos(acos(t) / 3) when
    # t <= 1 (three real roots) and cosh(acosh(t) / 3) past it (one).
    r = math.sqrt(coeffs.rho / phi)
    t = 3.0 * math.sqrt(3.0) * r * (a / b)
    if t <= 1.0:
        y = 2.0 * math.cos(math.acos(t) / 3.0) / (math.sqrt(3.0) * r)
    elif t < math.inf:
        y = 2.0 * math.cosh(math.acosh(t) / 3.0) / (math.sqrt(3.0) * r)
    else:  # there phi y is below 1e-200 of rho y^3, so rho y^3 = 2 phi a / b
        y = (2.0 * (a / b) / r) ** (1.0 / 3.0) / r ** (1.0 / 3.0)
    root = 1.0 / y
    if root > _E_MAX:
        raise ValueError(
            f"E minimizer {root:g} at rho={coeffs.rho:g} exceeds the ceiling e_max={_E_MAX:g}"
        )
    return max(1.0, root)


def acs_optimize(costs, coeffs):
    """Alternate convex search for the integer (K*, E*) and the matching
    round count.

    Alternates the closed-form K and E solves until the iterate moves less
    than the tolerance; hitting the sweep cap instead flags the result
    non-converged.  The continuous fixed point is rounded by grid_search
    over floor/ceil of K (clamped to [1, N]) and of E (at least 1).
    """
    n = costs.n_clients
    k, e = max(1.0, n / 2.0), _E0
    trajectory = [(k, e)]
    for _ in range(_MAX_SWEEPS):
        k_new = solve_k_given_e(e, costs, coeffs)
        e_new = solve_e_given_k(k_new, costs, coeffs)
        trajectory.append((k_new, e_new))
        step = math.hypot(k_new - k, e_new - e)
        k, e = k_new, e_new
        if step <= _TOL:
            break

    ks = [min(max(f(k), 1), n) for f in (math.floor, math.ceil)]
    es = [max(f(e), 1) for f in (math.floor, math.ceil)]
    solution = grid_search(costs, coeffs, ks, es)
    return replace(solution, trajectory=trajectory, converged=step <= _TOL)


def grid_search(costs, coeffs, k_values, e_values):
    """Exact integer argmin of the objective over a (K, E) grid; ties break
    toward smaller K, then smaller E.  R* is rounds_needed at the argmin,
    ceiled, at least 1."""
    # sorted sets, not np.unique, which imports numpy.ma on its first call
    k_values = np.array(sorted({int(k) for k in k_values}))
    e_values = np.array(sorted({int(e) for e in e_values}))
    if k_values.size == 0 or e_values.size == 0:
        raise ValueError("empty search ranges")
    if k_values[0] < 1 or k_values[-1] > costs.n_clients or e_values[0] < 1:
        raise ValueError("grid outside the feasible region")
    obj = p3_objective(k_values[:, None], e_values[None, :], costs, coeffs)
    # argmin takes the first minimum in row-major order: smallest K, then E
    i, j = divmod(int(np.argmin(obj)), e_values.size)
    k_star, e_star = int(k_values[i]), int(e_values[j])
    r_star = max(1, int(math.ceil(rounds_needed(k_star, e_star, costs, coeffs))))
    return Solution(k_star, e_star, r_star, float(obj[i, j]))


def run_pilots(plan, dataset, profile, train):
    """Run each pilot pair until the lower loss level is crossed; record the
    round counts at which each level was first reached.

    Each pilot trains with the settings of `train`, the TrainConfig of the
    run being sized, at its own (K, E), with the plan's round cap and lower
    loss level as target and a seed keyed on train.seed and its position.
    The pilots run in parallel (see train_all); the first to fail, in plan
    order, raises."""
    configs = [
        replace(
            train,
            k=k,
            e=e,
            max_rounds=plan.round_cap,
            target_loss=plan.loss_b,
            seed=sub_seed(train.seed, PILOT, i),
        )
        for i, (k, e) in enumerate(plan.pairs)
    ]
    records = []
    for (k, e), traces in zip(plan.pairs, train_all(dataset, profile, configs)):
        # a pilot stops in the round it first reaches loss_b, below loss_a
        if traces[-1].loss > plan.loss_b:
            raise PilotTimeoutError(
                f"pilot (K={k}, E={e}) did not reach loss {plan.loss_b} "
                f"within {plan.round_cap} rounds"
            )
        r_a = next(r for r, t in enumerate(traces, 1) if t.loss <= plan.loss_a)
        records.append(PilotRecord(k=k, e=e, rounds_to_a=r_a, rounds_to_b=len(traces)))
    return records


_MIN_RATIO_GAP = 0.05


def rho_from_pilots(records, n_clients):
    """Recover rho from pilot round counts (see _pair_rhos)."""
    return _pair_rhos(records, n_clients)[0]


def _pair_rhos(records, n_clients):
    """rho from pilot round counts, the number of pairs it averages, and the
    discarded pairs counted by reason ("" when none is).

    For pilots i and j, the ratio r of their E-scaled level-crossing gaps
    E (R_b - R_a) satisfies r = (rho + phi_i E_i^2) / (rho + phi_j E_j^2);
    solving gives one estimate per unordered pair.  Pairs with a pilot whose
    gap is not positive, nearly equal gaps (|1 - r| below _MIN_RATIO_GAP,
    where the solve is ill-conditioned) or a non-positive estimate are
    discarded; the survivors are averaged.  If none survives, the
    EstimationError counts the discarded pairs by reason.
    """
    scaled = []
    for rec in records:
        gap = rec.e * (rec.rounds_to_b - rec.rounds_to_a)
        x = float(sampling_penalty(rec.k, n_clients)) * rec.e**2
        scaled.append((gap, x))
    estimates = []
    dropped = collections.Counter()  # reason -> discarded pairs
    for (gi, xi), (gj, xj) in itertools.combinations(scaled, 2):
        if gi <= 0 or gj <= 0:
            dropped["a pilot crossed both levels in one round"] += 1
            continue
        r = gi / gj
        if abs(1.0 - r) < _MIN_RATIO_GAP:
            dropped[f"gap ratio within {_MIN_RATIO_GAP} of 1"] += 1
            continue
        rho = (r * xj - xi) / (1.0 - r)
        if rho > 0:
            estimates.append(rho)
        else:
            dropped["rho <= 0"] += 1
    counts = ", ".join(f"{n} with {reason}" for reason, n in dropped.items())
    if not estimates:
        raise EstimationError(
            f"every pilot pair was discarded ({counts}); "
            "re-plan with a wider (K, E) spread or loss levels further apart"
        )
    return float(np.mean(estimates)), len(estimates), counts


def estimate_rho(plan, dataset, profile, train):
    """Estimate rho from pilot runs trained like `train` (see run_pilots).
    The pilots' local step count is kept: over a solution's K* E* R* it is
    the estimation overhead."""
    records = run_pilots(plan, dataset, profile, train)
    rho, averaged, discarded = _pair_rhos(records, dataset.n_clients)
    return RhoEstimate(
        rho=rho,
        records=tuple(records),
        pilot_steps=sum(r.k * r.e * r.rounds_to_b for r in records),
        averaged=averaged,
        discarded=discarded,
    )


@dataclass(frozen=True)
class PropertyFinding:
    name: str
    passed: bool
    detail: str


def verify_properties(costs, coeffs):
    """Numerically check the qualitative behavior of the continuous optima.

    Verified claims: K* is non-increasing in gamma with K*(1) = 1; K* moves
    up with t_p and down with t_m, e_p, e_m (and up with t_p/t_m at
    gamma = 0); the objective in E is unimodal at every fixed K; E* moves up
    when t_p or e_p shrinks, with t_m/t_p driving it at gamma = 0 and
    e_m/e_p at gamma = 1.  Violations are reported as findings, not raised.
    """
    findings = []
    gammas = (0.0, 0.25, 0.5, 0.75, 1.0)
    mid = 0.5  # the gamma at which K* and E* are moved
    scale = 4.0  # factor each cost parameter is moved by; x * (1 / 4) equals x / 4 exactly
    k_fixed = min(5, costs.n_clients)  # the K at which E* is solved

    def check(name, passed, detail):
        findings.append(PropertyFinding(name=name, passed=bool(passed), detail=detail))

    def moved(gamma, name, factor):  # costs at gamma, with cost `name` times factor
        change = {} if name is None else {name: getattr(costs, name) * factor}
        return replace(costs, gamma=float(gamma), **change)

    def k_at(gamma, name=None, factor=1.0):
        return solve_k_given_e(20.0, moved(gamma, name, factor), coeffs)

    def e_at(k, gamma, name=None, factor=1.0):
        return solve_e_given_k(k, moved(gamma, name, factor), coeffs)

    ks = [k_at(g) for g in gammas]
    check(
        "k_star_non_increasing_in_gamma",
        all(a >= b - 1e-9 for a, b in zip(ks, ks[1:])),
        f"gammas={list(gammas)} k_star={[round(v, 4) for v in ks]}",
    )
    check("k_star_is_one_at_gamma_one", ks[-1] == 1.0, f"k_star(1)={ks[-1]}")

    base = k_at(mid)
    for cost, direction in (("t_p", "up"), ("t_m", "down"), ("e_p", "down"), ("e_m", "down")):
        val = k_at(mid, cost, scale)
        ok = val > base if direction == "up" else val < base
        detail = f"gamma={mid} base={base:.4f} scaled={val:.4f}"
        check(f"k_star_moves_{direction}_with_{cost}", ok, detail)
    base, val = ks[0], k_at(0.0, "t_p", scale)
    detail = f"base={base:.4f} scaled={val:.4f}"
    check("k_star_increases_with_tp_over_tm_at_gamma_zero", val > base, detail)

    e_values = np.arange(1, 101, dtype=float)
    for k in (1, 2, 5, 10):
        if k > costs.n_clients:
            continue
        diffs = np.diff(p3_objective(float(k), e_values, costs, coeffs))
        signs = np.sign(diffs[diffs != 0])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        detail = f"sign changes of successive differences: {changes}"
        check(f"objective_unimodal_in_e_at_k_{k}", changes <= 1, detail)

    # each row moves one cost parameter at a fixed (K, gamma); E* must rise
    for name, k, gamma, cost, factor in (
        ("e_star_rises_when_tp_falls", k_fixed, mid, "t_p", 1 / scale),
        ("e_star_rises_when_ep_falls", k_fixed, mid, "e_p", 1 / scale),
        ("e_star_increases_with_tm_over_tp_at_gamma_zero", k_fixed, 0.0, "t_m", scale),
        ("e_star_increases_with_em_over_ep_at_gamma_one", 1, 1.0, "e_m", scale),
    ):
        base, val = e_at(k, gamma), e_at(k, gamma, cost, factor)
        check(name, val > base, f"base={base:.4f} moved={val:.4f}")
    return findings


def write_estimation_csv(records, path):
    write_csv(
        path,
        ["pilot_k", "pilot_e", "rounds_to_loss_a", "rounds_to_loss_b"],
        ([r.k, r.e, r.rounds_to_a, r.rounds_to_b] for r in records),
    )


def write_solution_csv(solution, path, rho, overhead=None):
    header = ["k_star", "e_star", "r_star", "predicted_cost", "converged", "rho"]
    row = [
        solution.k_star,
        solution.e_star,
        solution.r_star,
        solution.predicted_cost,
        solution.converged,
        rho,
    ]
    if overhead is not None:
        header.append("overhead_ratio")
        row.append(overhead)
    write_csv(path, header, [row])


def write_properties_csv(findings, path):
    write_csv(
        path,
        ["property", "passed", "detail"],
        ([f.name, f.passed, f.detail] for f in findings),
    )
