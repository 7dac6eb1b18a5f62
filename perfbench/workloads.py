"""The benchmark's workloads: the CLI stages each one times, the inputs it
derives from a seed, and the correctness gates on each stage's artifacts.

Standard library only, so the orchestrator can plan and gate without
importing armid. Every path is relative to the workload's work directory,
which is the working directory of the processes that run the stages, so the
config hashes embedded in the artifacts do not depend on where the checkout
lives.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Explicit 2x2 tune-filters grid (Hz): several medium solves instead of one big one.
TUNE_GRID = "4,8:4,8"
# AL evaluations per outer iteration of the design stage. Small enough that a
# run repeats the stage about ten times and reports the median pass.
DESIGN_BUDGET = 120
PAYLOAD_MASS = 0.4271
PAYLOAD_RADIUS = 0.05
PAYLOAD_COM = (0.0, 0.02, 0.10)
# Criterion 3 bounds on the payload estimate.
MAX_MASS_PCT = 2.0
MAX_COM_PCT = 5.0

# Why each workload is here is recorded in BENCHMARK.json and METRICS.md.
# The tune-filters stage on a chain3 dataset is the last stage of pipeline-arm7.
WORKLOADS = ("design-chain3", "pipeline-arm7")

# Spans the traced run must see at least once on each workload, where the
# workload does work in that layer; a rename that drops one fails the run.
REQUIRED_SPANS = {
    "design-chain3": (
        "cli.design",
        "excite.design_trajectory",
        "excite.augmented_lagrangian_minimize",
        "excite.information_objective",
        "excite.evaluate_constraints",
        "dynamics.regressor_batch",
        "identify.identifiable_subspace",
        "linalg.svd",
    ),
    "pipeline-arm7": (
        "cli.simulate",
        "simulate.generate_dataset",
        "dynamics.inverse_dynamics_batch",
        "signals.trial_to_csv",
        "cli.identify",
        "signals.trial_from_csv",
        "signals.average_trials",
        "signals.process_trial",
        "dynamics.stack_regressor",
        "dynamics.regressor_batch",
        "identify.identifiable_subspace",
        "identify.ols_identify",
        "identify.consistent_identify",
        "identify.payload_identify",
        "cli.tune_filters",
        "signals.tune_filter_cutoffs",
        "linalg.svd",
    ),
}


@dataclass(frozen=True)
class Stage:
    """One timed CLI invocation."""

    name: str  # also the gate that checks its artifacts
    metric: str  # end-to-end stage metric its wall time adds to
    argv: tuple[str, ...]
    out: str  # directory the stage writes
    # The hostspeed.py loop that reads the host's speed around the stage:
    # the one whose work is most like the stage's.
    host_loop: str


@dataclass(frozen=True)
class Plan:
    """Everything a workload does for one seed."""

    prepare: dict | None  # untimed input generation, run by child.py
    stages: tuple[Stage, ...]


def _simulate_argv(fixture, seed, out, payload=None):
    argv = [
        "simulate", "--fixture", fixture, "--traj", f"in/traj_{fixture}.json", "--trials", "10",
        "--rate", "100", "--noise-rel", "0.01", "--seed", str(seed), "--out", out,
    ]
    if payload:
        argv += ["--payload", payload]
    return tuple(argv)


def plan(workload: str, seed: int) -> Plan:
    """Derive a workload's inputs and stage invocations from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "design-chain3":
        argv = (
            "design", "--fixture", "chain3", "--harmonics", "5", "--base-freq", "0.05",
            "--sample-rate", "20", "--budget", str(DESIGN_BUDGET), "--outer", "2",
            "--seed", str(rng.randrange(2**31)), "--out", "out/design",
        )
        return Plan(None, (Stage("design", "design_s", argv, "out/design", "interp"),))
    trajectories = {"arm7": rng.randrange(2**31), "chain3": rng.randrange(2**31)}
    com = [c + rng.uniform(-0.01, 0.01) for c in PAYLOAD_COM]
    prepare = {
        "trajectories": trajectories,
        "payload": {"mass": PAYLOAD_MASS, "radius": PAYLOAD_RADIUS, "com": com},
        "simulate": _simulate_argv("chain3", rng.randrange(2**31), "in/tune_data"),
    }
    stages = (
        Stage("simulate", "simulate_s",
              _simulate_argv("arm7", rng.randrange(2**31), "out/data"), "out/data", "interp"),
        Stage("simulate", "simulate_s",
              _simulate_argv("arm7", rng.randrange(2**31), "out/data_grasped",
                             "in/payload.json"), "out/data_grasped", "interp"),
        Stage("identify_robot", "identify_robot_s",
              ("identify", "--mode", "robot", "--data", "out/data", "--out", "out/robot"),
              "out/robot", "dense"),
        Stage("identify_payload", "identify_payload_s",
              ("identify", "--mode", "payload", "--data", "out/data_grasped",
               "--base-params", "out/robot/identification.json", "--out", "out/payload"),
              "out/payload", "dense"),
        Stage("tune", "tune_s",
              ("tune-filters", "--data", "in/tune_data", "--grid", TUNE_GRID,
               "--out", "out/tuning"),
              "out/tuning", "dense"),
    )
    return Plan(prepare, stages)


def digests(work: Path) -> dict:
    """SHA-256 of every input and artifact file, by path relative to ``work``."""
    return {
        str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
        for top in ("in", "out")
        for path in sorted((work / top).rglob("*"))
        if path.is_file()
    }


# --- gates ------------------------------------------------------------------------
#
# Each gate reads one stage's artifacts from the work directory and returns
# (problems, values): a list of reasons the stage's output is wrong, and the
# quality numbers the benchmark reports from it.


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _gate_design(work: Path, out: str):
    report = _load_json(work / out / "design_report.json")["report"]
    problems = []
    if not report["feasible"]:
        problems.append("design is not feasible")
    if not report["boundary_within_tolerance"]:
        problems.append("design boundary conditions are outside tolerance")
    f_c = report["final"]["f_c"]
    if not math.isfinite(f_c):
        problems.append(f"design final f_c is {f_c}")
    return problems, {"al_evals": report["evaluations"], "design_f_c": f_c}


def _gate_simulate(work: Path, out: str):
    manifest = _load_json(work / out / "manifest.json")
    found = len(list((work / out).glob("trial_*.csv")))
    if found != manifest["trials"]:
        return [f"{out} holds {found} trials, manifest says {manifest['trials']}"], {}
    return [], {}


def _gate_identify_robot(work: Path, out: str):
    consistent = _load_json(work / out / "identification.json")["consistent"]
    problems = [
        f"consistent link {i} fails link_feasibility"
        for i, report in enumerate(consistent["link_feasibility"])
        if not report["feasible"]
    ]
    return problems, {"robot_residual": consistent["residual"]}


def _gate_identify_payload(work: Path, out: str):
    payload = _load_json(work / out / "payload.json")["payload"]
    with open(work / out / "metrics.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    mass_pct, com_pct = float(row["mass_pct"]), float(row["com_pct"])
    problems = []
    if payload["mass"] < 0:
        problems.append(f"payload mass {payload['mass']} < 0")
    if not mass_pct < MAX_MASS_PCT:
        problems.append(f"payload mass error {mass_pct:.3f}% >= {MAX_MASS_PCT}%")
    if not com_pct < MAX_COM_PCT:
        problems.append(f"payload CoM error {com_pct:.3f}% of char_length >= {MAX_COM_PCT}%")
    return problems, {"payload_mass_pct": mass_pct, "payload_com_pct": com_pct}


def _gate_tune(work: Path, out: str):
    with open(work / out / "cutoff_search.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    best = _load_json(work / out / "best_cutoffs.json")
    pos_values, torque_values = (
        [float(v) for v in part.split(",")] for part in TUNE_GRID.split(":")
    )
    grid = {(p, t) for p in pos_values for t in torque_values}
    failed = [r for r in rows if r["error"]]
    problems = [f"grid point {r['position_cutoff']}:{r['torque_cutoff']} errored: {r['error']}"
                for r in failed]
    pair = (best["position_cutoff"], best["torque_cutoff"])
    if pair not in grid:
        problems.append(f"best cutoffs {pair} are not on the grid")
    residuals = {
        (float(r["position_cutoff"]), float(r["torque_cutoff"])): float(r["residual"])
        for r in rows
        if not r["error"]
    }
    values = {"failed_points": len(failed)}
    if pair in residuals:
        values["tune_residual"] = residuals[pair]
    return problems, values


GATES = {
    "design": _gate_design,
    "simulate": _gate_simulate,
    "identify_robot": _gate_identify_robot,
    "identify_payload": _gate_identify_payload,
    "tune": _gate_tune,
}


def check_stage(work: Path, stage: Stage):
    """Run a stage's gate; unreadable or missing artifacts are a problem too."""
    try:
        return GATES[stage.name](work, stage.out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{stage.out}: unreadable artifacts ({type(exc).__name__}: {exc})"], {}
