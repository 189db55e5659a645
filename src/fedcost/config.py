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


# key -> (parser, default); a default of None means the key has none, so a
# command that needs the key requires it (see needs_for_command).
# control.k_max has the one derived default: N, the dataset's client count.
SCHEMA = {
    "mode": (str, None),
    "seed": (int, 0),
    "out": (str, "out"),
    "gamma": (float, None),
    "rho": (float, None),
    "scheduler": (str, "optimal-ts"),
    "dataset.kind": (str, None),
    "dataset.n_clients": (int, None),
    "dataset.alpha": (float, 1.0),
    "dataset.beta": (float, 1.0),
    "dataset.size_mean": (float, 100.0),
    "dataset.size_std": (float, 50.0),
    "dataset.dim": (int, 60),
    "dataset.classes": (int, 10),
    "dataset.images": (str, None),
    "dataset.labels": (str, None),
    "dataset.labels_per_client": (int, 2),
    "dataset.samples_per_client": (int, None),
    "system.profile": (str, None),
    "system.t_p_mean": (float, 0.5),
    "system.t_p_std": (float, 0.15),
    "system.e_p_mean": (float, 0.01),
    "system.t_m_mean": (float, 0.2),
    "system.e_m_mean": (float, 0.02),
    "system.jitter": (float, 0.1),
    "system.comm_spread": (float, 0.2),
    "train.batch_size": (int, 64),
    "train.eta0": (float, 0.1),
    "train.max_rounds": (int, 300),
    "train.target_loss": (float, None),
    "control.k": (int, None),
    "control.e": (int, None),
    "control.k_max": (int, None),
    "control.e_max": (int, 100),
    "estimate.pairs": (_to_pairs, None),
    "estimate.loss_a": (float, None),
    "estimate.loss_b": (float, None),
    "estimate.round_cap": (int, 500),
    "sweep.variable": (str, None),
    "sweep.values": (_to_int_list, None),
    "sweep.k": (int, None),
    "sweep.e": (int, None),
}


@dataclass
class ExperimentConfig:
    """Typed view of one experiment file; raw holds the parsed key/values."""

    raw: dict = field(default_factory=dict)

    def get(self, key):
        """The key's parsed value, or its SCHEMA default."""
        return self.raw[key] if key in self.raw else SCHEMA[key][1]

    def require(self, key):
        if key not in self.raw:
            raise ConfigError([f"missing required key: {key}"])
        return self.raw[key]

    @property
    def seed(self):
        return self.get("seed")

    @property
    def out(self):
        return self.get("out")

    @property
    def gamma(self):
        return self.require("gamma")

    @property
    def strategy(self):
        return Strategy.parse(self.get("scheduler"))


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
                raw[key] = SCHEMA[key][0](value)
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
