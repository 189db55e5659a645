"""Experiment configuration: a flat "key = value" text format.

Lines are `key = value`; blank lines and `#` comments are ignored.  Keys are
dotted (dataset.*, system.*, train.*, control.*, estimate.*, sweep.*) and
fully enumerated in SCHEMA below; unknown keys are hard errors, and every
violation found is reported, not just the first.  Each key's SCHEMA parser
is the one place that converts and checks its value; which keys a command
requires is decided in fedcost.cli.
"""

import math

from .scheduler import Strategy


class ConfigError(ValueError):
    """Carries every problem found in a config file."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.problems))


def _checked(parse, ok, reason):
    """A parser that converts with `parse`, then rejects values failing `ok`."""

    def check(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(reason)
        return value

    return check


def _choice(*choices, parse=str):
    return _checked(parse, lambda v: v in choices, "must be one of: " + ", ".join(choices))


def _int_from(low):
    return _checked(int, lambda v: v >= low, f"must be >= {low}")


_count = _int_from(1)
_finite = _checked(float, math.isfinite, "must be finite")
_positive = _checked(_finite, lambda v: v > 0, "must be > 0")
_non_negative = _checked(_finite, lambda v: v >= 0, "must be >= 0")
# A sampled profile's costs and spreads, and the synthetic shard sizes.  A
# price multiplies a cost by counts (K, E, rounds, clients), e_comp's spread
# is t_p_std / t_p_mean times e_p_mean, and validate-properties scales costs
# by small factors.  These bounds keep each such product of keys within
# [1e-150, 1e150], far from where numpy overflows (its error names no key) or
# a cost turns 0; and a log-normal's relative spread (size_std / size_mean,
# or comm_spread) at most 1e100, so its square, which sets sigma, is finite.
_cost = _checked(_positive, lambda v: 1e-50 <= v <= 1e50, "must lie in [1e-50, 1e50]")
_spread = _checked(_non_negative, lambda v: v <= 1e50, "must be <= 1e50")


def _split(item):
    """A parser of a list of `item`s, split at commas and whitespace."""
    return lambda text: [item(tok) for tok in text.replace(",", " ").split()]


def _pair(tok):
    k, colon, e = tok.partition(":")
    if not colon:
        raise ValueError(f"expected K:E, got {tok!r}")
    return _count(k), _count(e)


_counts = _checked(_split(_count), bool, "needs at least one value")
_pairs = _checked(
    _split(_pair), lambda v: len(set(v)) == len(v) >= 2, "needs at least two distinct K:E pairs"
)


# key -> (parser, default); a default of None means the key has none, so a
# command that needs the key requires it (see cli.needs_for_command).
# control.k_max has the one derived default: N, the dataset's client count.
SCHEMA = {
    "mode": (_choice("fixed", "optimize", "grid"), None),
    "seed": (_int_from(0), 0),
    "out": (str, "out"),
    "gamma": (_checked(float, lambda v: 0 <= v <= 1, "must lie in [0, 1]"), None),
    "rho": (_positive, None),
    "scheduler": (lambda text: Strategy.parse(text).value, "optimal-ts"),
    "dataset.kind": (_choice("synthetic", "idx"), None),
    "dataset.n_clients": (_count, None),
    "dataset.alpha": (_non_negative, 1.0),
    "dataset.beta": (_non_negative, 1.0),
    "dataset.size_mean": (_cost, 100.0),
    "dataset.size_std": (_spread, 50.0),
    "dataset.dim": (_count, 60),
    "dataset.classes": (_int_from(2), 10),
    "dataset.images": (str, None),
    "dataset.labels": (str, None),
    "dataset.labels_per_client": (_count, 2),
    "dataset.samples_per_client": (_count, None),
    "system.profile": (str, None),
    "system.t_p_mean": (_cost, 0.5),
    "system.t_p_std": (_spread, 0.15),
    "system.e_p_mean": (_cost, 0.01),
    "system.t_m_mean": (_cost, 0.2),
    "system.e_m_mean": (_cost, 0.02),
    "system.jitter": (_spread, 0.1),
    "system.comm_spread": (_spread, 0.2),
    "train.batch_size": (_count, 64),
    "train.eta0": (_non_negative, 0.1),
    "train.max_rounds": (_count, 300),
    "train.target_loss": (_finite, None),
    "control.k": (_count, None),
    "control.e": (_count, None),
    "control.k_max": (_count, None),
    "control.e_max": (_count, 100),
    "estimate.pairs": (_pairs, None),
    "estimate.loss_a": (_finite, None),
    "estimate.loss_b": (_finite, None),
    "estimate.round_cap": (_count, 500),
    "sweep.variable": (_choice("k", "e", parse=str.lower), None),
    "sweep.values": (_counts, None),
    "sweep.k": (_count, None),
    "sweep.e": (_count, None),
}


def parse_config(path):
    """Parse one config file into the resolved config: a dict that holds
    every SCHEMA key, set from the file or else to its default."""
    problems = []
    parsed = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            key, eq, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq or not key:
                problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
                continue
            if key not in SCHEMA:
                problems.append(f"line {lineno}: unknown key {key!r}")
                continue
            if key in parsed:
                problems.append(f"line {lineno}: duplicate key {key!r}")
                continue
            try:
                parsed[key] = SCHEMA[key][0](value)
            except ValueError as exc:
                problems.append(f"line {lineno}: bad value for {key}: {exc}")
    if problems:
        raise ConfigError(problems)
    return {key: parsed.get(key, default) for key, (_, default) in SCHEMA.items()}
