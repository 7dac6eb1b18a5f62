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
import io
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import excite, identify, model as model_mod, signals, simulate
from .dynamics import stack_regressor
from .excite import ALOptions, DesignProblem
from .identify import IdentifyError
from .model import (
    ArmidError, check_number, json_entry, json_hash, json_number, read_json, read_text, write_csv,
    write_json,
)
from .signals import SignalError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNINGS = 2

# armid's own errors name the file and the entry at fault; any other
# exception is a bug and propagates.
_USER_ERRORS = (ArmidError, OSError)


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
    return {"config": config, "config_hash": json_hash(config)}


def _load_fixture(args) -> simulate.Fixture:
    """The robot of ``--fixture`` or ``--model`` (length scale 0.3); ``--char-length``,
    where the command has it and it is given, replaces the length scale."""
    if args.fixture:
        fixture = simulate.builtin_fixture(args.fixture)
    elif args.model:
        robot = model_mod.parse_robot_description(read_text(args.model), args.model)
        fixture = simulate.Fixture(name=robot.name, model=robot)
    else:
        raise ArmidError("either --model or --fixture is required")
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


_METRICS_HEADER = ["method", "link", "mass_pct", "com_pct", "inertia_pct"]


def _metrics_rows(model, alpha_hat, truth, char_length, method):
    estimates, truths = (
        model_mod.unpack_params(v, model).inertial_params for v in (alpha_hat, truth)
    )
    return [
        [method, joint.name, *identify.error_metrics(estimate, true, char_length)]
        for joint, estimate, true in zip(model.joint_specs, estimates, truths)
    ]


# --- design -----------------------------------------------------------------------


def cmd_design(args) -> list[str]:
    robot = _load_fixture(args).model
    out_dir = Path(args.out)
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
    write_json(out_dir / "design_report.json", {"report": report.as_dict(), **stamp})
    return [] if report.feasible else ["design completed with infeasibility flag"]


# --- simulate ---------------------------------------------------------------------


def _payload_from_spec(path: str) -> model_mod.LinkInertialParams:
    """The ``--payload`` body: a rigid body if the spec has ``first_moment``,
    else a solid sphere from ``mass``, ``radius`` and ``com``."""
    spec = read_json(path)
    if "first_moment" in spec:
        return model_mod.rigid_body_from_dict(spec, path)
    radius = json_number(spec, "radius", path, 0.05, positive=True)
    return model_mod.solid_sphere_params(
        json_entry(spec, "mass", path, ()),
        radius,
        json_entry(spec, "com", path, (3,), default=np.zeros(3)),
    )


def cmd_simulate(args) -> list[str]:
    fixture = _load_fixture(args)
    if args.payload:
        try:
            fixture = dataclasses.replace(fixture, payload=_payload_from_spec(args.payload))
        except simulate.SimulateError as exc:  # an infeasible body; spec errors name the file
            raise simulate.SimulateError(f"{args.payload}: {exc}") from None
    traj, _ = excite.load_trajectory(args.traj)
    noise = simulate.NoiseSpec(
        torque_abs_std=args.noise_abs,
        torque_rel_std=args.noise_rel,
        position_std=args.noise_pos,
        seed=args.seed,
    )
    simulate.write_dataset(
        args.out, fixture, traj, args.rate, args.trials, noise, extra_manifest=_stamp(args)
    )
    return []


# --- identify ---------------------------------------------------------------------


def _resolve_cutoffs(args, manifest, where, rate: float) -> tuple[float | None, float | None]:
    """The cutoff flags, ``auto`` as min(10 Hz, ``rate`` / 4) on noisy data, else None;
    ``rate`` is the trials' own."""
    noise = json_entry(manifest, "noise", where, default={})
    stds = [
        json_number(noise, k, f"{where} 'noise'", 0.0, SignalError)
        for k in ("torque_abs_std", "torque_rel_std", "position_std")
    ]
    default = min(10.0, rate / 4.0) if any(std > 0.0 for std in stds) else None
    return tuple(default if c == "auto" else c for c in (args.pos_cutoff, args.torque_cutoff))


def _load_base_params(args, size: int) -> np.ndarray:
    """The ``--base-params`` file's ``alpha``, or its ``labeled_sets`` entry labeled nearest
    ``--configuration``, which must hold ``size`` entries. Errors name the file and the key."""
    path = args.base_params
    if not path:
        raise ArmidError("payload mode requires --base-params")
    data = read_json(path, IdentifyError)
    entry = partial(json_entry, kind=(None,), error=IdentifyError)
    if "labeled_sets" in data:
        if not isinstance(data["labeled_sets"], dict):
            raise IdentifyError(f"{path}: 'labeled_sets' is not a JSON object")
        keys, sets = {}, {}
        for k in data["labeled_sets"]:
            try:
                label = float(k)
            except ValueError:
                label = math.nan
            if not math.isfinite(label):
                raise IdentifyError(f"{path}: labeled_sets key {k!r} is not numeric")
            keys[label] = f"labeled_sets[{k!r}]"
            sets[label] = entry(data["labeled_sets"], k, f"{path} labeled_sets")
        chosen, alpha = identify.nearest_base_params(sets, args.configuration)
        print(f"using base parameter set labeled {chosen}", file=sys.stderr)
        key = keys[chosen]
    elif "alpha" in data:
        key, alpha = "'alpha'", entry(data, "alpha", path)
    else:
        raise IdentifyError(f"{path}: needs 'alpha' or 'labeled_sets'")
    if alpha.shape != (size,):
        raise IdentifyError(f"{path}: {key} has {alpha.size} entries, expected {size}")
    return alpha


def cmd_identify(args) -> list[str]:
    if not math.isfinite(args.configuration):  # labeled base sets or not
        raise IdentifyError(f"configuration must be finite, got {args.configuration}")
    manifest, robot, trials = signals.load_dataset(args.data)
    averaged = signals.average_trials(trials)
    del trials  # only the mean is used from here on
    where = Path(args.data) / signals.MANIFEST_NAME
    entry = partial(json_entry, manifest, where=where)
    truth = entry("truth_parameters", kind=(model_mod.num_params(robot),), default=None)
    char_length = json_number(manifest, "char_length", where, 0.3, SignalError, positive=True)
    truth_payload = entry("payload", default=None)
    if truth_payload:
        truth_payload = model_mod.rigid_body_from_dict(truth_payload, f"{where} 'payload'")
    pos_cut, torque_cut = _resolve_cutoffs(args, manifest, where, averaged.sample_rate)
    payload_mode = args.mode == "payload"
    base = _load_base_params(args, model_mod.num_params(robot)) if payload_mode else None
    samples = signals.process_trial(averaged, pos_cut, torque_cut)  # (q, qd, qdd, tau)
    # Payload mode fixes every link but the last at the base parameters.
    mask = identify.payload_fixed_mask(robot.num_joints) if payload_mode else None
    stack = stack_regressor(robot, *samples, fixed_mask=mask, fixed_values=base)
    system = identify.least_squares(stack)

    out_dir = Path(args.out)
    stamp = {
        **_stamp(args, pos_cutoff=pos_cut, torque_cutoff=torque_cut),
        "cutoffs": {"position": pos_cut, "torque": torque_cut},
    }
    if payload_mode:
        estimator = "payload"
        try:
            result = identify.payload_identify(system, reg_weight=args.reg_weight)
        except identify.InfeasiblePriorError as exc:  # the base parameters' last link
            raise IdentifyError(f"{args.base_params}: {exc}") from None
        write_json(out_dir / "payload.json", {**stamp, "payload": result.as_dict()})
        rows = [] if not truth_payload else [[
            "payload", robot.joint_specs[-1].name,
            *identify.error_metrics(result.params, truth_payload, char_length),
        ]]
        hugs = "payload estimate hugs the feasibility boundary"
        flags = [hugs] if result.boundary_warning else []
    else:
        estimator = "consistent"
        prior = signals.identification_prior(robot)
        ols = identify.ols_identify(system, prior=prior)
        result = identify.consistent_identify(system, prior, reg_weight=args.reg_weight)
        write_json(out_dir / "identification.json", {
            **stamp, "ols": ols.as_dict(), "consistent": result.as_dict(),
            "alpha": result.alpha_hat.tolist(),
        })
        rows = [] if truth is None else [
            *_metrics_rows(robot, ols.alpha_hat, truth, char_length, "ols"),
            *_metrics_rows(robot, result.alpha_hat, truth, char_length, "consistent"),
        ]
        flags = [
            f"{method} estimate of link '{link}' has mass <= 0: "
            "its com_pct and inertia_pct are empty in metrics.csv"
            for method, link, _, com_pct, _ in rows if com_pct is None
        ]
    if rows:
        write_csv(out_dir / "metrics.csv", _METRICS_HEADER, rows)
    if not result.trace.converged:
        flags.insert(0, f"{estimator} estimate: the barrier did not converge")
    return flags


# --- tune-filters -----------------------------------------------------------------


def _parse_grid(raw: str):
    if raw == "default":
        return signals.DEFAULT_CUTOFF_GRID
    check = partial(check_number, name="grid cutoff (Hz)", error=ArmidError, positive=True)

    def cutoff(v: str):  # Hz, or None (no filter) for 'none' or 'off', as --pos-cutoff takes
        return None if v.lower() in ("none", "off") else check(float(v))

    try:
        pos, torque = ([cutoff(v) for v in part.split(",") if v] for part in raw.split(":"))
    except ValueError:
        raise ArmidError("grid must be 'default' or 'p1,p2,...:t1,t2,...' (Hz or none)") from None
    return tuple((p, t) for p in pos for t in torque)


def cmd_tune_filters(args) -> list[str]:
    grid = _parse_grid(args.grid)
    _, robot, trials = signals.load_dataset(args.data)
    averaged = signals.average_trials(trials)
    del trials  # only the mean is searched
    best, table = signals.tune_filter_cutoffs(averaged, robot, grid)

    out_dir = Path(args.out)
    write_csv(
        out_dir / "cutoff_search.csv",
        [field.name for field in dataclasses.fields(signals.CutoffSearchEntry)],
        [dataclasses.astuple(e) for e in table],
    )
    if best is None:
        errors = "; ".join(dict.fromkeys(e.error for e in table))
        raise SignalError(f"every grid point failed during cutoff tuning ({errors})")
    cutoffs = {"position_cutoff": best[0], "torque_cutoff": best[1]}
    write_json(out_dir / "best_cutoffs.json", {**_stamp(args), **cutoffs})
    return []


# --- report -----------------------------------------------------------------------


def cmd_report(args) -> list[str]:
    table = []
    for run in args.runs:
        metrics_path = Path(run) / "metrics.csv"
        if not metrics_path.exists():
            print(f"skipping {run}: no metrics.csv", file=sys.stderr)
            continue
        reader = csv.DictReader(io.StringIO(read_text(metrics_path, ArmidError)))
        table += ([str(run), *map(row.get, _METRICS_HEADER)] for row in reader)  # missing: None
    if not table:
        raise ArmidError("no metrics found in the given run directories")
    header = ["run", *_METRICS_HEADER]
    if args.out:
        write_csv(args.out, header, table)
    else:
        csv.writer(sys.stdout).writerows([header, *table])
    return []


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
    p.add_argument("--data", required=True, help=f"dataset directory with {signals.MANIFEST_NAME}")
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
        warnings = args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for line in warnings:  # after the command's last artifact
        print(line, file=sys.stderr)
    return EXIT_WARNINGS if warnings else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
