import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from armid.model import (
    JointSpec,
    RobotModel,
    Transform,
    params_from_com,
)

# Property tests run the same bounded set of examples on every run, so the
# suite stays deterministic and writes no example database.
settings.register_profile("armid", derandomize=True, max_examples=30, deadline=None, database=None)
settings.load_profile("armid")


def _peak_bytes(fn):
    """``fn()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """The helper that runs ``fn()`` under tracemalloc: ``result, peak = peak_bytes(fn)``."""
    return _peak_bytes


@pytest.fixture
def pendulum_model() -> RobotModel:
    """1-link pendulum: joint at origin, axis y, CoM 0.5 m below, m = 1."""
    joint = JointSpec(
        name="swing",
        axis=np.array([0.0, 1.0, 0.0]),
        parent_frame_pose=Transform.identity(),
        position_limits=(-3.0, 3.0),
        velocity_limit=2.5,
        acceleration_limit=15.0,
    )
    params = params_from_com(1.0, [0.0, 0.0, -0.5], np.diag([0.1, 0.1, 0.01]))
    return RobotModel(links=((joint, params),), name="pendulum")


@pytest.fixture
def twolink_model() -> RobotModel:
    """2-link chain with mixed axes and nonzero friction everywhere."""
    j1 = JointSpec(
        name="a",
        axis=np.array([0.0, 0.0, 1.0]),
        parent_frame_pose=Transform.from_xyz_rpy([0, 0, 0.3], [0, 0, 0]),
        position_limits=(-2.9, 2.9),
        velocity_limit=1.7,
        acceleration_limit=10.0,
    )
    j2 = JointSpec(
        name="b",
        axis=np.array([0.0, 1.0, 0.0]),
        parent_frame_pose=Transform.from_xyz_rpy([0.1, 0, 0.2], [0.3, -0.2, 0.1]),
        position_limits=(-2.9, 2.9),
        velocity_limit=1.7,
        acceleration_limit=10.0,
    )
    p1 = params_from_com(2.0, [0.05, 0.02, -0.1], np.diag([0.02, 0.03, 0.015]), 0.1, 0.2, 1e-4)
    p2 = params_from_com(1.0, [0.1, 0.0, 0.05], np.diag([0.01, 0.012, 0.006]), 0.05, 0.1, 2e-4)
    return RobotModel(links=((j1, p1), (j2, p2)), name="twolink")
