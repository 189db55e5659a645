"""Experiment configuration: a flat "key = value" text format.

Lines are `key = value`; blank lines and `#` comments are ignored.  Keys are
dotted (dataset.*, system.*, train.*, control.*, estimate.*, sweep.*) and
fully enumerated in SCHEMA below; unknown keys are hard errors, and every
violation found is reported, not just the first.
"""

from dataclasses import dataclass, field

from .scheduler import Strategy


class ConfigError(ValueError):
    """Carries every problem found in a config file."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.problems))


def _to_int_list(text):
    return [int(tok) for tok in text.replace(",", " ").split()]


def _to_pairs(text):
    pairs = []
    for tok in text.replace(",", " ").split():
        k, _, e = tok.partition(":")
        if not _:
            raise ValueError(f"expected K:E, got {tok!r}")
        pairs.append((int(k), int(e)))
    return pairs


SCHEMA = {
    "mode": str,
    "seed": int,
    "out": str,
    "gamma": float,
    "rho": float,
    "scheduler": str,
    "dataset.kind": str,
    "dataset.n_clients": int,
    "dataset.alpha": float,
    "dataset.beta": float,
    "dataset.size_mean": float,
    "dataset.size_std": float,
    "dataset.dim": int,
    "dataset.classes": int,
    "dataset.images": str,
    "dataset.labels": str,
    "dataset.labels_per_client": int,
    "dataset.samples_per_client": int,
    "system.profile": str,
    "system.t_p_mean": float,
    "system.t_p_std": float,
    "system.e_p_mean": float,
    "system.t_m_mean": float,
    "system.e_m_mean": float,
    "system.jitter": float,
    "system.comm_spread": float,
    "train.batch_size": int,
    "train.eta0": float,
    "train.max_rounds": int,
    "train.target_loss": float,
    "control.k": int,
    "control.e": int,
    "control.k_max": int,
    "control.e_max": int,
    "estimate.pairs": _to_pairs,
    "estimate.loss_a": float,
    "estimate.loss_b": float,
    "estimate.round_cap": int,
    "sweep.variable": str,
    "sweep.values": _to_int_list,
    "sweep.k": int,
    "sweep.e": int,
}


@dataclass
class ExperimentConfig:
    """Typed view of one experiment file; raw holds the parsed key/values."""

    raw: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def require(self, key):
        if key not in self.raw:
            raise ConfigError([f"missing required key: {key}"])
        return self.raw[key]

    @property
    def seed(self):
        return self.raw.get("seed", 0)

    @property
    def out(self):
        return self.raw.get("out", "out")

    @property
    def gamma(self):
        return self.require("gamma")

    @property
    def strategy(self):
        return Strategy.parse(self.raw.get("scheduler", "optimal-ts"))


def parse_config(path):
    """Parse and statically validate one config file."""
    problems = []
    raw = {}
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
            if key in raw:
                problems.append(f"line {lineno}: duplicate key {key!r}")
                continue
            try:
                raw[key] = SCHEMA[key](value)
            except ValueError as exc:
                problems.append(f"line {lineno}: bad value for {key}: {exc}")
    problems.extend(_static_problems(raw))
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(raw=raw)


def _static_problems(raw):
    problems = []
    if "gamma" in raw and not 0.0 <= raw["gamma"] <= 1.0:
        problems.append("gamma must lie in [0, 1]")
    if "rho" in raw and raw["rho"] <= 0:
        problems.append("rho must be > 0")
    if "mode" in raw and raw["mode"] not in ("fixed", "optimize", "grid"):
        problems.append("mode must be one of: fixed, optimize, grid")
    if "scheduler" in raw:
        try:
            Strategy.parse(raw["scheduler"])
        except ValueError as exc:
            problems.append(str(exc))
    if "dataset.kind" in raw and raw["dataset.kind"] not in ("synthetic", "idx"):
        problems.append("dataset.kind must be 'synthetic' or 'idx'")
    if "sweep.variable" in raw and raw["sweep.variable"].lower() not in ("k", "e"):
        problems.append("sweep.variable must be 'k' or 'e'")
    if "estimate.pairs" in raw and len(raw["estimate.pairs"]) < 2:
        problems.append("estimate.pairs needs at least two K:E pairs")
    for key in ("dataset.n_clients", "train.batch_size", "train.max_rounds",
                "control.k", "control.e", "control.k_max", "control.e_max",
                "estimate.round_cap", "sweep.k", "sweep.e"):
        if key in raw and raw[key] < 1:
            problems.append(f"{key} must be >= 1")
    return problems


# the commands that build the dataset; the others take N from dataset.n_clients
_BUILDS_DATASET = ("run", "optimize", "estimate", "compare-schedulers")


def needs_for_command(config, command):
    """Per-command requirement check; returns a list of problems."""
    problems = []
    raw = config.raw

    def need(*keys):
        problems.extend(f"missing required key: {k}" for k in keys if k not in raw)

    need("gamma", "dataset.kind", "dataset.n_clients")
    if raw.get("dataset.kind") == "idx" and command in _BUILDS_DATASET:
        need("dataset.images", "dataset.labels", "dataset.samples_per_client")

    has_rho = "rho" in raw
    has_plan = all(k in raw for k in ("estimate.pairs", "estimate.loss_a", "estimate.loss_b"))

    if command == "run":
        need("mode")
        mode = raw.get("mode")
        if mode == "fixed":
            need("control.k", "control.e")
        elif mode in ("optimize", "grid") and not (has_rho or has_plan):
            problems.append(
                "mode=%s needs rho or a complete estimation plan "
                "(estimate.pairs, estimate.loss_a, estimate.loss_b)" % mode
            )
    elif command == "optimize":
        if not (has_rho or has_plan):
            problems.append("optimize needs rho or a complete estimation plan")
    elif command == "estimate":
        if not has_plan:
            problems.append(
                "estimate needs estimate.pairs, estimate.loss_a and estimate.loss_b"
            )
    elif command == "compare-schedulers":
        need("sweep.variable", "sweep.values", "train.target_loss")
        if raw.get("sweep.variable", "").lower() == "e":
            need("sweep.k")
        elif raw.get("sweep.variable", "").lower() == "k":
            need("sweep.e")
    elif command in ("validate-properties", "cost-surface"):
        if not has_rho:
            problems.append(f"{command} needs rho")
    return problems
