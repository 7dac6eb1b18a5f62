"""Synthetic measurement generation: the hardware stand-in.

Datasets are produced by sampling a trajectory, computing torques with the
inverse dynamics of a ground-truth model (payload lumped into the last link
when present), and adding seeded sensor noise. Perfect tracking is assumed;
the identification pipeline consumes (q, tau) pairs exactly as it would from
a real arm.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dynamics import inverse_dynamics_batch
from .excite import FourierTrajectory, sample_trajectory, trajectory_to_dict
from .model import (
    ArmidError,
    JointSpec,
    LinkInertialParams,
    RobotModel,
    Transform,
    check_number,
    combine_inertial,
    is_physically_feasible,
    model_to_dict,
    pack_params,
    params_from_com,
    rigid_body_to_dict,
)
from .signals import RawTrial, save_dataset


class SimulateError(ArmidError):
    """Raised for invalid generation setups (unknown fixture, bad noise, ...)."""


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian sensor noise: multiplicative and additive on torque, additive
    on position. All draws derive deterministically from the seed."""

    torque_abs_std: float = 0.0
    torque_rel_std: float = 0.0
    position_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("torque_abs_std", "torque_rel_std", "position_std", "seed"):
            check_number(getattr(self, name), name, SimulateError, integer=name == "seed")


@dataclass(frozen=True)
class Fixture:
    """A ground-truth robot, optional payload, and a length scale for metrics."""

    name: str
    model: RobotModel
    payload: LinkInertialParams | None = None
    char_length: float = 0.3

    def __post_init__(self):
        check_number(self.char_length, "char_length", SimulateError, positive=True)
        if self.payload is not None:
            report = is_physically_feasible(self.payload)
            if not report.feasible:
                raise SimulateError(
                    f"fixture payload is infeasible ({report.binding_constraint})"
                )


# One row per link: joint name, axis, origin xyz, (position limit, velocity and
# acceleration limits), mass, CoM, principal CoM inertias, (viscous friction,
# Coulomb friction, rotor inertia). Position limits are symmetric.
# arm7: +-2.9 rad positions, +-1.7 rad/s velocities on every joint.
_ARM7_LIMITS, _ARM7_FRICTION = (2.9, 1.7, 10.0), (0.20, 0.30, 5e-4)
_FIXTURES = {  # name: (char_length, rows)
    "pendulum1": (0.5, [
        ("j1", [0, 1, 0], [0, 0, 0], (3.0, 3.0, 20.0),
         1.2, [0.0, 0.0, -0.5], [0.10, 0.10, 0.002], (0.05, 0.10, 1e-4)),
    ]),
    "planar2": (0.5, [
        ("shoulder", [0, 1, 0], [0, 0, 0], (2.2, 3.0, 20.0),
         2.0, [0.25, 0.0, 0.0], [0.002, 0.045, 0.045], (0.12, 0.20, 2e-4)),
        ("elbow", [0, 1, 0], [0.5, 0, 0], (2.2, 3.0, 20.0),
         1.2, [0.20, 0.0, 0.0], [0.001, 0.018, 0.018], (0.08, 0.15, 1e-4)),
    ]),
    "chain3": (0.4, [
        ("base_yaw", [0, 0, 1], [0, 0, 0.20], (2.9, 2.0, 12.0),
         2.5, [0.02, 0.01, 0.08], [0.020, 0.020, 0.010], (0.15, 0.25, 3e-4)),
        ("shoulder", [0, 1, 0], [0.05, 0, 0.15], (2.2, 2.0, 12.0),
         1.8, [0.12, 0.0, 0.03], [0.015, 0.020, 0.012], (0.12, 0.20, 2e-4)),
        ("wrist_roll", [1, 0, 0], [0.25, 0, 0.05], (2.9, 2.5, 15.0),
         0.9, [0.10, 0.02, 0.0], [0.006, 0.008, 0.005], (0.08, 0.12, 1e-4)),
    ]),
    "arm7": (0.3, [
        (f"joint_{i + 1}", axis, xyz, _ARM7_LIMITS, mass, com, inertia, _ARM7_FRICTION)
        for i, (axis, xyz, mass, com, inertia) in enumerate([
            ([0, 0, 1], [0, 0, 0.15], 3.4, [0.0, -0.03, 0.12], [0.020, 0.020, 0.008]),
            ([0, 1, 0], [0, 0.01, 0.19], 3.4, [0.0, 0.04, 0.08], [0.020, 0.020, 0.008]),
            ([0, 0, 1], [0, -0.01, 0.21], 4.0, [0.0, 0.03, 0.13], [0.030, 0.030, 0.010]),
            ([0, -1, 0], [0, 0.01, 0.19], 2.7, [0.0, -0.03, 0.07], [0.015, 0.015, 0.006]),
            ([0, 0, 1], [0, -0.01, 0.21], 1.7, [0.0, -0.02, 0.12], [0.010, 0.010, 0.004]),
            ([0, 1, 0], [0, 0.01, 0.19], 1.8, [0.0, 0.04, 0.06], [0.008, 0.008, 0.003]),
            ([0, 0, 1], [0, 0, 0.08], 0.3, [0.0, 0.0, 0.02], [0.001, 0.001, 0.001]),
        ])
    ]),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def builtin_fixture(name: str) -> Fixture:
    """Deterministic ground-truth fixtures: pendulum1, planar2, chain3, arm7."""
    try:
        char_length, rows = _FIXTURES[name]
    except KeyError:
        raise SimulateError(
            f"unknown fixture '{name}'; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
    links = []
    for joint, axis, xyz, (limit, vel, acc), mass, com, inertia, friction in rows:
        params = params_from_com(mass, com, np.diag(inertia), *friction)
        report = is_physically_feasible(params)
        if not report.feasible:
            raise SimulateError(
                f"fixture '{name}' link {len(links)} infeasible ({report.binding_constraint})"
            )
        pose = Transform.from_xyz_rpy(xyz, [0, 0, 0])
        links.append((JointSpec(joint, axis, pose, (-limit, limit), vel, acc), params))
    model = RobotModel(links=tuple(links), name=name)
    return Fixture(name=name, model=model, char_length=char_length)


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
    check_number(trials, "trials", SimulateError, positive=True, integer=True)
    model = fixture.model
    if traj.num_joints != model.num_joints:
        raise SimulateError(
            f"trajectory has {traj.num_joints} joints, but robot '{fixture.name}' has "
            f"{model.num_joints}"
        )
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
    """Simulate trials and save them with a manifest of the ground truth and config."""
    dataset = generate_dataset(fixture, traj, rate, trials, noise)
    manifest = {
        "fixture": fixture.name,
        "model": model_to_dict(fixture.model),
        "truth_parameters": pack_params(fixture.model).tolist(),
        "char_length": fixture.char_length,
        "payload": None if fixture.payload is None else rigid_body_to_dict(fixture.payload),
        "trajectory": trajectory_to_dict(traj),
        "rate": rate,
        "trials": trials,
        "noise": asdict(noise),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    return save_dataset(out_dir, dataset, manifest)
