"""Batch command line: design -> simulate -> identify -> report.

Every command reads plain files, writes plain files, and exits 0 on success,
1 on usage or data errors, and 2 when it completed but flagged a warning
(e.g. an infeasible design). All randomness flows from the --seed flag and
every artifact embeds the resolved config and its hash, so a rerun with the
same inputs reproduces outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import excite, identify, model as model_mod, signals, simulate
from .dynamics import stack_regressor
from .excite import ALOptions, DesignProblem
from .identify import IdentifyError
from .model import ModelError
from .signals import SignalError, _json_hash, _write_csv, _write_json
from .simulate import SimulateError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNINGS = 2

_USER_ERRORS = (
    ModelError,
    SignalError,
    SimulateError,
    IdentifyError,
    excite.ExciteError,
    OSError,
    json.JSONDecodeError,
    ValueError,
    KeyError,
)


_UNRECORDED = ("command", "func")  # argparse's own attributes, not flags of the run
_PATH_FLAGS = ("model", "traj", "payload", "data", "base_params", "out")


def _stamp(args, **resolved) -> dict:
    """The ``config`` and ``config_hash`` every artifact carries: every parsed flag,
    with the values the stage resolved, so a run directory replays from its artifacts."""
    flags = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
    flags.update(resolved)
    if "fixture" in flags:
        fixture = flags.pop("fixture")
        flags["model"] = flags["model"] or f"fixture:{fixture}"
    seed = flags.pop("seed", None)
    paths = {k: flags.pop(k) for k in _PATH_FLAGS if k in flags}
    config = {"command": args.command, "paths": paths, "parameters": flags, "seed": seed}
    return {"config": config, "config_hash": _json_hash(config)}


def _load_fixture(args) -> simulate.Fixture:
    """The robot of ``--fixture`` or ``--model`` (length scale 0.3); ``--char-length``,
    where the command has it and it is given, replaces the length scale."""
    if args.fixture:
        fixture = simulate.builtin_fixture(args.fixture)
    elif args.model:
        robot = model_mod.parse_robot_description(Path(args.model).read_text())
        fixture = simulate.Fixture(name=robot.name, model=robot)
    else:
        raise ValueError("either --model or --fixture is required")
    if getattr(args, "char_length", None) is not None:
        fixture = dataclasses.replace(fixture, char_length=args.char_length)
    return fixture


def _parse_cutoff(raw: str):
    """``--pos-cutoff``/``--torque-cutoff``: None, "auto", or a frequency > 0."""
    if raw.lower() in ("none", "off"):
        return None
    if raw.lower() == "auto":
        return "auto"
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected Hz > 0, 'none' or 'auto', got {raw!r}")
    return value


def _required(spec, key: str, path):
    """``spec[key]`` from the JSON file at ``path``; a missing key is an error
    that names the file and the key."""
    if not isinstance(spec, dict) or key not in spec:
        raise ValueError(f"{path}: no {key!r} entry")
    return spec[key]


def _rigid_body(spec, where) -> model_mod.LinkInertialParams:
    """A body from a spec's ``mass``, ``first_moment`` and ``rotational_inertia``;
    a missing entry is an error that names ``where`` and the key."""
    for key in ("mass", "first_moment", "rotational_inertia"):
        _required(spec, key, where)
    return model_mod.rigid_body_from_dict(spec)


def _load_dataset(data_dir: Path) -> tuple[dict, model_mod.RobotModel, signals.RawTrial]:
    """A dataset directory's manifest, its robot model, and its averaged trial."""
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise SignalError(f"no manifest.json in {data_dir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    robot = model_mod.model_from_dict(_required(manifest, "model", manifest_path))
    paths = sorted(data_dir.glob("trial_*.csv"))
    if not paths:
        raise SignalError(f"no trial_*.csv files in {data_dir}")
    trials = [signals.trial_from_csv(p) for p in paths]
    first = trials[0].timestamps
    for path, trial in zip(paths, trials):
        if trial.num_joints != robot.num_joints:
            raise SignalError(
                f"{path}: {trial.num_joints} joints, but the manifest's model has "
                f"{robot.num_joints}"
            )
        if trial.timestamps.size != first.size:
            size = trial.timestamps.size
            raise SignalError(f"{path}: {size} samples, but {paths[0]} has {first.size}")
        if np.max(np.abs(trial.timestamps - first)) > 1e-9:
            raise SignalError(f"{path}: time grid differs from {paths[0]}")
    return manifest, robot, signals.average_trials(trials)


_METRICS_HEADER = ["method", "link", "mass_pct", "com_pct", "inertia_pct"]


def _metrics_row(method: str, link: str, estimate, truth, char_length) -> list:
    return [method, link, *identify.error_metrics(estimate, truth, char_length)]


def _metrics_rows(model, alpha_hat, truth, char_length, method):
    return [
        _metrics_row(
            method,
            model.joint_specs[i].name,
            model_mod.LinkInertialParams.from_vector(alpha_hat[13 * i : 13 * i + 13]),
            model_mod.LinkInertialParams.from_vector(truth[13 * i : 13 * i + 13]),
            char_length,
        )
        for i in range(model.num_joints)
    ]


# --- design -----------------------------------------------------------------------


def cmd_design(args) -> int:
    robot = _load_fixture(args).model
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    omega = 2.0 * math.pi * args.base_freq
    problem = DesignProblem(
        model=robot, sample_rate=args.sample_rate, gamma=args.gamma
    )
    opts = ALOptions(
        seed=args.seed,
        subproblem_budget=args.budget,
        outer_iterations=args.outer,
        restarts=args.restarts,
        constraint_tolerance=args.tolerance,
    )
    traj, report = excite.design_trajectory(problem, omega, args.harmonics, opts)

    stamp = _stamp(args)
    provenance = {
        **stamp,
        "problem_hash": excite.problem_fingerprint(problem, omega, args.harmonics),
        "seed": args.seed,
        "objective_history": [h["objective"] for h in report.history],
    }
    excite.save_trajectory(out_dir / "trajectory.json", traj, provenance)
    excite.export_trajectory_csv(out_dir / "trajectory.csv", traj, args.sample_rate)
    _write_json(out_dir / "design_report.json", {"report": report.as_dict(), **stamp})
    if not report.feasible:
        print("design completed with infeasibility flag", file=sys.stderr)
        return EXIT_WARNINGS
    return EXIT_OK


# --- simulate ---------------------------------------------------------------------


def _payload_from_spec(path: str) -> model_mod.LinkInertialParams:
    with open(path) as fh:
        spec = json.load(fh)
    if "first_moment" in spec:
        return _rigid_body(spec, path)
    return model_mod.solid_sphere_params(
        _required(spec, "mass", path), spec.get("radius", 0.05), spec.get("com", [0.0, 0.0, 0.0])
    )


def cmd_simulate(args) -> int:
    fixture = _load_fixture(args)
    if args.payload:
        fixture = fixture.with_payload(_payload_from_spec(args.payload))
    traj, _ = excite.load_trajectory(args.traj)
    noise = simulate.NoiseSpec(
        torque_abs_std=args.noise_abs,
        torque_rel_std=args.noise_rel,
        position_std=args.noise_pos,
        seed=args.seed,
    )
    simulate.write_dataset(
        Path(args.out),
        fixture,
        traj,
        args.rate,
        args.trials,
        noise,
        extra_manifest=_stamp(args),
    )
    return EXIT_OK


# --- identify ---------------------------------------------------------------------


def _resolve_cutoffs(args, manifest) -> tuple[float | None, float | None]:
    pos, torque = args.pos_cutoff, args.torque_cutoff
    noise = manifest.get("noise", {})
    noisy = any(
        noise.get(k, 0.0) > 0.0
        for k in ("torque_abs_std", "torque_rel_std", "position_std")
    )
    rate = float(manifest.get("rate", 100.0))
    default = min(10.0, rate / 4.0) if noisy else None
    if pos == "auto":
        pos = default
    if torque == "auto":
        torque = default
    return pos, torque


def _load_base_params(args, n: int) -> np.ndarray:
    """The file's ``alpha``, or its ``labeled_sets`` entry labeled nearest
    ``--configuration``. Errors name the file and the key."""
    path = args.base_params
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")

    def numeric(key: str, value) -> np.ndarray:
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: {key} is not numeric") from None

    if "labeled_sets" in data:
        if not isinstance(data["labeled_sets"], dict):
            raise ValueError(f"{path}: 'labeled_sets' is not a JSON object")
        keys, sets = {}, {}
        for k, v in data["labeled_sets"].items():
            label = float(numeric(f"labeled_sets key {k!r}", k))
            keys[label], sets[label] = f"labeled_sets[{k!r}]", numeric(f"labeled_sets[{k!r}]", v)
        chosen, alpha = identify.nearest_base_params(sets, args.configuration)
        print(f"using base parameter set labeled {chosen}", file=sys.stderr)
        key = keys[chosen]
    elif "alpha" in data:
        key = "'alpha'"
        alpha = numeric(key, data["alpha"])
    else:
        raise ValueError(f"{path}: needs 'alpha' or 'labeled_sets'")
    if alpha.shape != (13 * n,):
        raise ValueError(f"{path}: {key} has {alpha.size} entries, expected {13 * n}")
    return alpha


def cmd_identify(args) -> int:
    manifest, robot, averaged = _load_dataset(Path(args.data))
    pos_cut, torque_cut = _resolve_cutoffs(args, manifest)
    dataset = signals.process_trial(averaged, pos_cut, torque_cut)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth = (
        np.asarray(manifest["truth_parameters"], dtype=float)
        if "truth_parameters" in manifest
        else None
    )
    char_length = manifest.get("char_length", 0.3)
    stamp = _stamp(args, pos_cutoff=pos_cut, torque_cutoff=torque_cut)

    if args.mode == "robot":
        stack = stack_regressor(robot, dataset.q, dataset.qd, dataset.qdd, dataset.tau)
        prior = signals.identification_prior(robot)
        system = identify.least_squares(stack)
        result_ols = identify.ols_identify(system, prior=prior)
        result_cons = identify.consistent_identify(system, prior, reg_weight=args.reg_weight)
        payload = {
            **stamp,
            "cutoffs": {"position": pos_cut, "torque": torque_cut},
            "ols": result_ols.as_dict(),
            "consistent": result_cons.as_dict(),
            "alpha": result_cons.alpha_hat.tolist(),
        }
        _write_json(out_dir / "identification.json", payload)
        if truth is not None:
            rows = _metrics_rows(robot, result_ols.alpha_hat, truth, char_length, "ols")
            rows += _metrics_rows(robot, result_cons.alpha_hat, truth, char_length, "consistent")
            _write_csv(out_dir / "metrics.csv", _METRICS_HEADER, rows)
        return EXIT_OK

    # payload mode
    if not args.base_params:
        raise ValueError("payload mode requires --base-params")
    base = _load_base_params(args, robot.num_joints)
    stack = stack_regressor(
        robot, dataset.q, dataset.qd, dataset.qdd, dataset.tau,
        fixed_mask=identify.payload_fixed_mask(robot.num_joints), fixed_values=base,
    )
    system = identify.least_squares(stack)
    result = identify.payload_identify(system, base, reg_weight=args.reg_weight)
    payload = {
        **stamp,
        "cutoffs": {"position": pos_cut, "torque": torque_cut},
        "payload": result.as_dict(),
    }
    _write_json(out_dir / "payload.json", payload)
    if manifest.get("payload"):
        where = f"{Path(args.data) / 'manifest.json'} 'payload'"
        truth_payload = _rigid_body(manifest["payload"], where)
        row = _metrics_row(
            "payload", robot.joint_specs[-1].name, result.params, truth_payload, char_length
        )
        _write_csv(out_dir / "metrics.csv", _METRICS_HEADER, [row])
    if result.boundary_warning:
        print("payload estimate hugs the feasibility boundary", file=sys.stderr)
        return EXIT_WARNINGS
    return EXIT_OK


# --- tune-filters -----------------------------------------------------------------


def _parse_grid(raw: str):
    if raw == "default":
        return signals.DEFAULT_CUTOFF_GRID
    try:
        pos_part, torque_part = raw.split(":")
        pos_values = [float(v) for v in pos_part.split(",") if v]
        torque_values = [float(v) for v in torque_part.split(",") if v]
    except ValueError:
        raise ValueError(
            "grid must be 'default' or 'p1,p2,...:t1,t2,...' in Hz"
        ) from None
    return tuple((p, t) for p in pos_values for t in torque_values)


def cmd_tune_filters(args) -> int:
    _, robot, averaged = _load_dataset(Path(args.data))
    grid = _parse_grid(args.grid)
    best, table = signals.tune_filter_cutoffs(averaged, robot, grid)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "cutoff_search.csv",
        [field.name for field in dataclasses.fields(signals.CutoffSearchEntry)],
        [dataclasses.astuple(e) for e in table],
    )
    _write_json(
        out_dir / "best_cutoffs.json",
        {
            **_stamp(args),
            "position_cutoff": best[0],
            "torque_cutoff": best[1],
        },
    )
    return EXIT_OK


# --- report -----------------------------------------------------------------------


def cmd_report(args) -> int:
    rows = []
    for run in args.runs:
        metrics_path = Path(run) / "metrics.csv"
        if not metrics_path.exists():
            print(f"skipping {run}: no metrics.csv", file=sys.stderr)
            continue
        with open(metrics_path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                row["run"] = str(run)
                rows.append(row)
    if not rows:
        raise ValueError("no metrics found in the given run directories")
    fieldnames = ["run", *_METRICS_HEADER]
    out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out_fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out_fh.close()
    return EXIT_OK


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armid",
        description="excitation design and inertial identification for serial arms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="optimize an excitation trajectory")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--model", help="robot description file (URDF subset)")
    src.add_argument("--fixture", help="builtin fixture name instead of --model")
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--harmonics", type=int, default=5)
    p.add_argument("--base-freq", type=float, default=0.1, help="Hz")
    p.add_argument("--sample-rate", type=float, default=100.0, help="Hz")
    p.add_argument("--budget", type=int, default=2000, help="evaluations per outer iteration")
    p.add_argument("--outer", type=int, default=6)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="generate synthetic measurement trials")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--model")
    src.add_argument("--fixture")
    p.add_argument("--traj", required=True, help="trajectory JSON from 'design'")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--noise-rel", type=float, default=0.0)
    p.add_argument("--noise-abs", type=float, default=0.0)
    p.add_argument("--noise-pos", type=float, default=0.0)
    p.add_argument("--payload", help="payload spec JSON (mass/com/radius or full params)")
    p.add_argument("--char-length", type=float, help="m; default: the fixture's, 0.3 for --model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="estimate parameters from a dataset")
    p.add_argument("--mode", choices=("robot", "payload"), default="robot")
    p.add_argument("--data", required=True, help="dataset directory with manifest.json")
    p.add_argument("--base-params", help="robot identification JSON (payload mode)")
    p.add_argument("--configuration", type=float, default=0.0,
                   help="configuration label for selecting among labeled base sets")
    p.add_argument("--pos-cutoff", type=_parse_cutoff, default="auto",
                   help="Hz, 'none', or 'auto'")
    p.add_argument("--torque-cutoff", type=_parse_cutoff, default="auto",
                   help="Hz, 'none', or 'auto'")
    p.add_argument("--reg-weight", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("tune-filters", help="grid-search filter cutoffs")
    p.add_argument("--data", required=True)
    p.add_argument("--grid", default="default")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune_filters)

    p = sub.add_parser("report", help="aggregate metrics from run directories")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
