"""fedcost benchmark: three CLI workloads, timed from outside the program.

    python3 perfbench/run.py --workload opt-run --seed 7 --seconds 55 --trace 0

Each invocation is a fresh single-threaded Python process (child.py) that
imports ``fedcost.cli`` from this checkout's ``src/`` and calls its ``main``
with the workload's argument lists, ``--seed`` and an output directory
under ``perfbench/_work/``.  Invocations repeat, one at a time, until the
``--seconds`` budget is spent.  Every artifact is checked for its schema and
shape and hashed: all repeats of a seed must agree byte for byte, and at the
reference seed the hashes must equal ``reference_digests.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced invocations and reports the per-layer
metrics.  The last line of standard output is one JSON object; a provenance
record and the raw per-invocation numbers go to
``perfbench/_work/results/``.  See NOTES.md for the workloads and metrics.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, "_work")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference_digests.json")
REFERENCE_SEED = 7

# Keeps every BLAS and OpenMP pool to one thread, so the program is
# single-threaded and timings do not depend on the core count.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 10
MIN_REPEATS = 2
# No invocation starts that would end, by the length of the last one, after
# this many seconds, even to reach MIN_REPEATS: the heaviest opt-run seeds
# take about 40 s an invocation on a 2-core x86 box, and a run must end
# within 180 s.
HARD_STOP_S = 120.0
INVOCATION_TIMEOUT_S = 150.0
# Share of an invocation's CLI time that the traced cli.main spans may miss.
ROOT_SPAN_TOLERANCE = 0.01
# Per-layer values that run.py adds to the tracer's report.
RUN_LAYER_METRICS = ("work.sim_steps", "work.cells", "workload.wall_s", "process.cpu_s",
                     "trace.overhead_s")

FLEET_E = 2
FLEET_ROUNDS = 30
FLEET_CFG = f"""\
# N=200 shards, E={FLEET_E}, K swept: many cheap rounds, so the round engine
# (global_loss, aggregate, sampling, pricing) dominates, not local SGD.  The
# target loss of 0 is never reached, so every point runs all {FLEET_ROUNDS} rounds
# and the work is the same at every seed.
gamma = 0.0
dataset.kind = synthetic
dataset.n_clients = 200
dataset.size_mean = 50
dataset.size_std = 25
system.t_p_mean = 0.05
system.t_p_std = 0.015
system.t_m_mean = 2.0
system.jitter = 0.1
train.eta0 = 0.3
train.target_loss = 0
train.max_rounds = {FLEET_ROUNDS}
sweep.variable = k
sweep.values = 5 10 20 40 80
sweep.e = {FLEET_E}
"""

SURFACE_CFG = """\
# N=500 clients with rho given: a 500 x 400 cost surface and the solves,
# with no training at all.
gamma = 0.5
rho = 1000
dataset.kind = synthetic
dataset.n_clients = 500
dataset.size_mean = 100
dataset.size_std = 50
system.t_p_mean = 0.05
system.t_p_std = 0.015
system.e_p_mean = 0.01
system.t_m_mean = 2.0
system.e_m_mean = 0.02
system.jitter = 0.1
control.k_max = 500
control.e_max = 400
"""

HEADERS = {
    "estimation.csv": ["pilot_k", "pilot_e", "rounds_to_loss_a", "rounds_to_loss_b"],
    "traces.csv": ["round", "loss", "round_time_s", "round_energy_J", "sampled_ids"],
    "schedulers.csv": ["strategy", "sweep_variable", "sweep_value", "total_time_s",
                       "rounds", "reached"],
    "cost_surface.csv": ["k", "e", "objective", "time_term", "energy_term"],
    "properties.csv": ["property", "passed", "detail"],
}
SOLUTION_HEADER = ["k_star", "e_star", "r_star", "predicted_cost", "converged", "rho"]


class CheckError(Exception):
    """An artifact is missing or malformed."""


def read_csv(out_dir, name, header=None):
    path = os.path.join(out_dir, name)
    if not os.path.isfile(path):
        raise CheckError(f"missing artifact {name}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expected = HEADERS.get(name) if header is None else header
    if not rows or rows[0] != expected:
        raise CheckError(f"{name}: header {rows[:1]} is not {expected}")
    if len(rows) < 2:
        raise CheckError(f"{name}: no data rows")
    return rows[1:]


def opt_run_work(out_dir):
    """Simulated SGD steps: sum of K*E*rounds over the pilots and the run."""
    pilots = read_csv(out_dir, "estimation.csv")
    (sol,) = read_csv(out_dir, "solution.csv", SOLUTION_HEADER + ["overhead_ratio"])
    traces = read_csv(out_dir, "traces.csv")
    k_star, e_star = int(sol[0]), int(sol[1])
    if len(pilots) != 4:
        raise CheckError(f"estimation.csv: {len(pilots)} pilots, expected 4")
    for i, row in enumerate(traces):
        if int(row[0]) != i or len(row[4].split(";")) != k_star:
            raise CheckError(f"traces.csv: round {i} is malformed")
    steps = sum(int(k) * int(e) * int(r_b) for k, e, _, r_b in pilots)
    return steps + len(traces) * k_star * e_star, 0


def fleet_sweep_work(out_dir):
    """Simulated SGD steps: sum of K*E*rounds over every sweep row."""
    rows = read_csv(out_dir, "schedulers.csv")
    if len(rows) != 15:
        raise CheckError(f"schedulers.csv: {len(rows)} rows, expected 5 points x 3 strategies")
    # the target loss is never reached, so every point and strategy runs all rounds
    counts = sorted({int(row[4]) for row in rows})
    if counts != [FLEET_ROUNDS]:
        raise CheckError(f"schedulers.csv: round counts {counts}, expected {FLEET_ROUNDS} in every row")
    return sum(int(k) * FLEET_E * int(rounds) for _, _, k, _, rounds, _ in rows), 0


def surface_work(out_dir):
    """Cost-surface cells written."""
    cells = read_csv(out_dir, "cost_surface.csv")
    if len(cells) != 500 * 400 or cells[0][:2] != ["1", "1"] or cells[-1][:2] != ["500", "400"]:
        raise CheckError(f"cost_surface.csv: {len(cells)} cells, expected a 500 x 400 grid")
    if len(read_csv(out_dir, "properties.csv")) != 15:
        raise CheckError("properties.csv: expected 15 findings")
    read_csv(out_dir, "solution.csv", SOLUTION_HEADER)
    return 0, len(cells)


# Why each workload exists is in NOTES.md.  Each command list is passed to
# fedcost.cli.main with --seed and --out appended; "{cfg}" is the generated
# config file.
WORKLOADS = {
    "opt-run": {
        "config": None,
        "commands": [["run", "--config", "configs/synthetic_optimize.cfg"]],
        "artifacts": ["estimation.csv", "solution.csv", "traces.csv"],
        "work": opt_run_work,
    },
    "fleet-sweep": {
        "config": FLEET_CFG,
        "commands": [["compare-schedulers", "--config", "{cfg}"]],
        "artifacts": ["schedulers.csv"],
        "work": fleet_sweep_work,
    },
    "surface": {
        "config": SURFACE_CFG,
        "commands": [
            ["cost-surface", "--config", "{cfg}"],
            ["validate-properties", "--config", "{cfg}"],
            ["optimize", "--config", "{cfg}"],
        ],
        "artifacts": ["cost_surface.csv", "properties.csv", "solution.csv"],
        "work": surface_work,
    },
}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Starts the processes of one workload's run: probes and invocations."""

    def __init__(self, name, seed, run_dir):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
        self.env.pop("PYTHONPATH", None)
        self.count = 0
        cfg = os.path.join(run_dir, f"{name}.cfg")
        if self.spec["config"] is not None:
            with open(cfg, "w") as fh:
                fh.write(self.spec["config"])
        self.commands = [[a.replace("{cfg}", cfg) for a in argv] for argv in self.spec["commands"]]

    def _start(self, probe, trace=False, out_dir=None):
        self.count += 1
        tag = f"{self.count:03d}"
        spec_path = os.path.join(self.run_dir, f"spec-{tag}.json")
        result_path = os.path.join(self.run_dir, f"result-{tag}.json")
        commands = [] if probe else [
            argv + ["--seed", str(self.seed), "--out", out_dir] for argv in self.commands
        ]
        with open(spec_path, "w") as fh:
            json.dump({"root": ROOT, "probe": probe, "trace": trace,
                       "commands": commands, "result": result_path}, fh)
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=INVOCATION_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"killed after {INVOCATION_TIMEOUT_S:.0f} s"
        if proc.returncode != 0 or not os.path.isfile(result_path):
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        with open(result_path) as fh:
            result = json.load(fh)
        expected_module = os.path.join(ROOT, "src", "fedcost", "cli.py")
        if result["module"] != expected_module:
            raise SystemExit(f"fedcost was imported from {result['module']}, not {expected_module}")
        result["setup_s"] = result["imported_at"] - started
        return result, None

    def probe(self):
        result, error = self._start(probe=True)
        if error is not None:
            raise SystemExit(f"cannot import fedcost.cli from {ROOT}/src: {error}")
        return result["setup_s"]

    def invoke(self, trace=False):
        """One CLI invocation; returns its result with digests and work
        counts, or an error string."""
        out_dir = os.path.join(self.run_dir, f"out-{self.count + 1:03d}")
        result, error = self._start(probe=False, trace=trace, out_dir=out_dir)
        if error is None and any(result["codes"]):
            error = f"exit codes {result['codes']}"
        if error is None:
            try:
                found = sorted(os.listdir(out_dir))
                if found != sorted(self.spec["artifacts"]):
                    raise CheckError(f"artifacts {found}, expected {self.spec['artifacts']}")
                result["digests"] = {n: sha256(os.path.join(out_dir, n)) for n in found}
                result["sim_steps"], result["cells"] = self.spec["work"](out_dir)
            except CheckError as exc:
                error = str(exc)
        shutil.rmtree(out_dir, ignore_errors=True)
        return (None, error) if error is not None else (result, None)


def provenance(seed, seconds, trace):
    """Where and on what the numbers were taken."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)), timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "fedcost")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            src.update(name.encode() + b"\0")
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREAD_ENV,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def median_report(results):
    """Median of each per-layer value over the traced invocations."""
    keys = results[0]["trace"].keys()
    return {k: statistics.median(r["trace"][k] for r in results) for k in keys}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's digests as the reference (seed {REFERENCE_SEED})")
    args = parser.parse_args(argv)

    for needed in ("src/fedcost/cli.py", "configs/synthetic_optimize.cfg"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a fedcost checkout",
                  file=sys.stderr)
            return 2
    if args.record_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--record-reference needs --seed {REFERENCE_SEED}")
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    layer_units = per_layer_units() if args.trace else None

    run_dir = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    runner = Runner(args.workload, args.seed, run_dir)

    runner.probe()  # warm-up: byte-compiles the package in a fresh checkout
    setups = [runner.probe() for _ in range(SETUP_PROBES)]

    plain, traced, errors = [], [], []
    begin = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        for trace in ((False, True) if args.trace else (False,)):
            result, error = runner.invoke(trace=trace)
            if error is not None:
                errors.append(error)
                print(f"invocation failed: {error}", file=sys.stderr)
            else:
                (traced if trace else plain).append(result)
        now = time.perf_counter()
        next_end = now - begin + (now - unit_start)  # if one more unit runs
        enough = args.trace or len(plain) + len(errors) >= MIN_REPEATS
        if next_end > HARD_STOP_S or (enough and next_end > args.seconds):
            break

    failures = list(errors)
    done = plain + traced
    if args.record_reference and done:
        reference["workloads"][args.workload] = done[0]["digests"]
        with open(REFERENCE_PATH, "w") as fh:
            json.dump(reference, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.seed == reference["seed"]:
        expected = reference["workloads"].get(args.workload)
    else:
        expected = done[0]["digests"] if done else None
    bad = 0
    for r in done:
        problems = []
        if r["digests"] != expected:
            problems.append(f"digests {r['digests']} differ from {expected}")
        if "trace" in r:
            # the root span is timed by the tracer, wall_s by child.py around
            # the same CLI calls; they part only if cli.main went untraced
            missed = r["wall_s"] - r["trace"]["cli.main.s"]
            if abs(missed) > ROOT_SPAN_TOLERANCE * r["wall_s"]:
                problems.append(f"the cli.main spans miss {missed:.6f} s of the "
                                f"{r['wall_s']:.6f} s spent in the CLI calls")
        bad += bool(problems)
        failures += [("traced " if "trace" in r else "") + p for p in problems]
    attempted = len(done) + len(errors)
    failed = len(errors) + bad
    correct = not failures and bool(plain) and (bool(traced) or not args.trace)

    metrics = {}
    if correct:
        walls = [r["wall_s"] for r in plain]
        work = plain[0]["sim_steps"] + plain[0]["cells"]
        if args.trace:
            layer = median_report(traced)
            layer["work.sim_steps"] = plain[0]["sim_steps"]
            layer["work.cells"] = plain[0]["cells"]
            layer["workload.wall_s"] = statistics.median(walls)
            layer["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
            layer["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                         - statistics.median(walls))
            metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in layer.items()}
        else:
            setups += [r["setup_s"] for r in plain]
            metrics = {
                "work_per_s": {"value": work / statistics.median(walls), "unit": "1/s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                                "unit": "MB"},
            }
        q1, q2, q3 = quartiles(walls)
        print(f"{args.workload} seed={args.seed}: {len(plain)} untraced invocations, "
              f"wall_s median {q2:.3f} (quartiles {q1:.3f}-{q3:.3f}), work {work}, "
              f"setup_s median {statistics.median(setups):.3f} over {len(setups)} processes, "
              f"failed_share {failed}/{attempted}")

    record = {
        "workload": args.workload,
        "provenance": provenance(args.seed, args.seconds, args.trace),
        "setup_s_samples": setups,
        "invocations": plain + traced,
        "failures": failures,
        "failed_share": failed / attempted if attempted else 1.0,
        "metrics": metrics,
    }
    results_path = os.path.join(
        WORK_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def per_layer_units():
    """Units of the per-layer metrics in BENCHMARK.json, after checking that
    they name exactly what a traced run reports."""
    import spans

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    reported = set(spans.Tracer().report()) | set(RUN_LAYER_METRICS)
    missing, extra = sorted(units.keys() - reported), sorted(reported - units.keys())
    if missing or extra:
        raise SystemExit(f"BENCHMARK.json per_layer does not match the traced report: "
                         f"listed but not reported {missing}, reported but not listed {extra}")
    return units


if __name__ == "__main__":
    sys.exit(main())
