"""Synthetic measurement generation: the hardware stand-in.

Datasets are produced by sampling a trajectory, computing torques with the
inverse dynamics of a ground-truth model (payload lumped into the last link
when present), and adding seeded sensor noise. Perfect tracking is assumed;
the identification pipeline consumes (q, tau) pairs exactly as it would from
a real arm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import inverse_dynamics_batch
from .excite import FourierTrajectory, sample_trajectory, trajectory_to_dict
from .model import (
    JointSpec,
    LinkInertialParams,
    RobotModel,
    Transform,
    combine_inertial,
    is_physically_feasible,
    model_to_dict,
    pack_params,
    params_from_com,
    rigid_body_to_dict,
)
from .signals import RawTrial, trial_to_csv


class SimulateError(Exception):
    """Raised for invalid generation setups (unknown fixture, aliasing, ...)."""


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian sensor noise: multiplicative and additive on torque, additive
    on position. All draws derive deterministically from the seed."""

    torque_abs_std: float = 0.0
    torque_rel_std: float = 0.0
    position_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("torque_abs_std", "torque_rel_std", "position_std"):
            if getattr(self, name) < 0:
                raise SimulateError(f"{name} must be >= 0")


@dataclass(frozen=True)
class Fixture:
    """A ground-truth robot, optional payload, and a length scale for metrics."""

    name: str
    model: RobotModel
    payload: LinkInertialParams | None = None
    char_length: float = 0.3

    def __post_init__(self):
        if self.payload is not None:
            report = is_physically_feasible(self.payload)
            if not report.feasible:
                raise SimulateError(
                    f"fixture payload is infeasible ({report.binding_constraint})"
                )

    def with_payload(self, payload: LinkInertialParams) -> "Fixture":
        return replace(self, payload=payload)


def _revolute(name, axis, xyz, rpy, limits, vel, acc) -> JointSpec:
    return JointSpec(
        name=name,
        axis=np.asarray(axis, dtype=float),
        parent_frame_pose=Transform.from_xyz_rpy(xyz, rpy),
        position_limits=limits,
        velocity_limit=vel,
        acceleration_limit=acc,
    )


def _pendulum1() -> Fixture:
    joint = _revolute("j1", [0, 1, 0], [0, 0, 0], [0, 0, 0], (-3.0, 3.0), 3.0, 20.0)
    params = params_from_com(
        1.2, [0.0, 0.0, -0.5], np.diag([0.10, 0.10, 0.002]), 0.05, 0.10, 1e-4
    )
    model = RobotModel(links=((joint, params),), name="pendulum1")
    return Fixture(name="pendulum1", model=model, char_length=0.5)


def _planar2() -> Fixture:
    j1 = _revolute("shoulder", [0, 1, 0], [0, 0, 0], [0, 0, 0], (-2.2, 2.2), 3.0, 20.0)
    j2 = _revolute("elbow", [0, 1, 0], [0.5, 0, 0], [0, 0, 0], (-2.2, 2.2), 3.0, 20.0)
    p1 = params_from_com(
        2.0, [0.25, 0.0, 0.0], np.diag([0.002, 0.045, 0.045]), 0.12, 0.20, 2e-4
    )
    p2 = params_from_com(
        1.2, [0.20, 0.0, 0.0], np.diag([0.001, 0.018, 0.018]), 0.08, 0.15, 1e-4
    )
    model = RobotModel(links=((j1, p1), (j2, p2)), name="planar2")
    return Fixture(name="planar2", model=model, char_length=0.5)


def _chain3() -> Fixture:
    j1 = _revolute("base_yaw", [0, 0, 1], [0, 0, 0.20], [0, 0, 0], (-2.9, 2.9), 2.0, 12.0)
    j2 = _revolute("shoulder", [0, 1, 0], [0.05, 0, 0.15], [0, 0, 0], (-2.2, 2.2), 2.0, 12.0)
    j3 = _revolute("wrist_roll", [1, 0, 0], [0.25, 0, 0.05], [0, 0, 0], (-2.9, 2.9), 2.5, 15.0)
    p1 = params_from_com(
        2.5, [0.02, 0.01, 0.08], np.diag([0.020, 0.020, 0.010]), 0.15, 0.25, 3e-4
    )
    p2 = params_from_com(
        1.8, [0.12, 0.0, 0.03], np.diag([0.015, 0.020, 0.012]), 0.12, 0.20, 2e-4
    )
    p3 = params_from_com(
        0.9, [0.10, 0.02, 0.0], np.diag([0.006, 0.008, 0.005]), 0.08, 0.12, 1e-4
    )
    model = RobotModel(links=((j1, p1), (j2, p2), (j3, p3)), name="chain3")
    return Fixture(name="chain3", model=model, char_length=0.4)


# arm7 joint limits: +-2.9 rad positions, +-1.7 rad/s velocities on every joint.
_ARM7_POSITION_LIMIT = 2.9
_ARM7_VELOCITY_LIMIT = 1.7
_ARM7_ACCELERATION_LIMIT = 10.0


def _arm7() -> Fixture:
    axes = [[0, 0, 1], [0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1]]
    offsets = [
        [0, 0, 0.15],
        [0, 0.01, 0.19],
        [0, -0.01, 0.21],
        [0, 0.01, 0.19],
        [0, -0.01, 0.21],
        [0, 0.01, 0.19],
        [0, 0, 0.08],
    ]
    masses = [3.4, 3.4, 4.0, 2.7, 1.7, 1.8, 0.3]
    coms = [
        [0.0, -0.03, 0.12],
        [0.0, 0.04, 0.08],
        [0.0, 0.03, 0.13],
        [0.0, -0.03, 0.07],
        [0.0, -0.02, 0.12],
        [0.0, 0.04, 0.06],
        [0.0, 0.0, 0.02],
    ]
    inertias = [
        [0.020, 0.020, 0.008],
        [0.020, 0.020, 0.008],
        [0.030, 0.030, 0.010],
        [0.015, 0.015, 0.006],
        [0.010, 0.010, 0.004],
        [0.008, 0.008, 0.003],
        [0.001, 0.001, 0.001],
    ]
    links = []
    for i in range(7):
        joint = _revolute(
            f"joint_{i + 1}",
            axes[i],
            offsets[i],
            [0, 0, 0],
            (-_ARM7_POSITION_LIMIT, _ARM7_POSITION_LIMIT),
            _ARM7_VELOCITY_LIMIT,
            _ARM7_ACCELERATION_LIMIT,
        )
        params = params_from_com(
            masses[i], coms[i], np.diag(inertias[i]), 0.20, 0.30, 5e-4
        )
        links.append((joint, params))
    model = RobotModel(links=tuple(links), name="arm7")
    return Fixture(name="arm7", model=model, char_length=0.3)


_FIXTURES = {
    "pendulum1": _pendulum1,
    "planar2": _planar2,
    "chain3": _chain3,
    "arm7": _arm7,
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def builtin_fixture(name: str) -> Fixture:
    """Deterministic ground-truth fixtures: pendulum1, planar2, chain3, arm7."""
    try:
        factory = _FIXTURES[name]
    except KeyError:
        raise SimulateError(
            f"unknown fixture '{name}'; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
    fixture = factory()
    for i, params in enumerate(fixture.model.inertial_params):
        report = is_physically_feasible(params)
        if not report.feasible:
            raise SimulateError(
                f"fixture '{name}' link {i} infeasible ({report.binding_constraint})"
            )
    return fixture


def lump_payload(model: RobotModel, payload: LinkInertialParams) -> RobotModel:
    """Merge a payload into the last link (composite-body addition)."""
    joint, params = model.links[-1]
    merged = combine_inertial(params, payload)
    return RobotModel(
        links=model.links[:-1] + ((joint, merged),),
        gravity=model.gravity,
        name=model.name,
    )


def generate_dataset(
    fixture: Fixture,
    traj: FourierTrajectory,
    rate: float,
    trials: int,
    noise: NoiseSpec,
) -> list[RawTrial]:
    """Simulate noisy measurement trials along a trajectory.

    Torques come from inverse dynamics of the fixture model (payload merged
    into the last link when present). Per trial k, with i.i.d. standard
    normal draws from a (seed, k) stream:

        tau_meas = tau * (1 + rel * xi1) + abs * xi2
        q_meas   = q + position_std * xi3
    """
    if trials < 1:
        raise SimulateError("need at least one trial")
    nyquist_needed = 2.0 * traj.base_frequency * traj.harmonics / (2.0 * math.pi)
    if rate <= nyquist_needed:
        raise SimulateError(
            f"rate {rate} Hz aliases harmonic content up to {nyquist_needed / 2.0} Hz"
        )
    model = fixture.model
    if fixture.payload is not None:
        model = lump_payload(model, fixture.payload)
    t, q, qd, qdd = sample_trajectory(traj, rate)
    tau = inverse_dynamics_batch(model, q, qd, qdd)

    out = []
    for k in range(trials):
        rng = np.random.default_rng([noise.seed, k])
        xi1 = rng.standard_normal(tau.shape)
        xi2 = rng.standard_normal(tau.shape)
        xi3 = rng.standard_normal(q.shape)
        tau_meas = tau * (1.0 + noise.torque_rel_std * xi1) + noise.torque_abs_std * xi2
        q_meas = q + noise.position_std * xi3
        out.append(RawTrial(timestamps=t.copy(), q=q_meas, tau=tau_meas))
    return out


def write_dataset(
    out_dir,
    fixture: Fixture,
    traj: FourierTrajectory,
    rate: float,
    trials: int,
    noise: NoiseSpec,
    extra_manifest: dict | None = None,
) -> list[Path]:
    """Emit trial CSVs plus a manifest carrying the ground truth and config."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_dataset(fixture, traj, rate, trials, noise)
    paths = []
    for k, trial in enumerate(dataset):
        path = out_dir / f"trial_{k:03d}.csv"
        trial_to_csv(trial, path)
        paths.append(path)
    manifest = {
        "fixture": fixture.name,
        "model": model_to_dict(fixture.model),
        "truth_parameters": pack_params(fixture.model).tolist(),
        "char_length": fixture.char_length,
        "payload": None if fixture.payload is None else rigid_body_to_dict(fixture.payload),
        "trajectory": trajectory_to_dict(traj),
        "rate": rate,
        "trials": trials,
        "noise": {
            "torque_abs_std": noise.torque_abs_std,
            "torque_rel_std": noise.torque_rel_std,
            "position_std": noise.position_std,
            "seed": noise.seed,
        },
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths

