import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from armid.dynamics import (
    RegressorStack,
    SMOOTH_SIGN_EPS,
    energy,
    forward_kinematics,
    inverse_dynamics_batch,
    regressor_batch,
    smooth_sign,
    stack_regressor,
)
from armid.identify import least_squares
from armid.model import (
    PARAMS_PER_LINK,
    JointSpec,
    RobotModel,
    Transform,
    ValidationError,
    num_params,
    pack_params,
    params_from_com,
    rpy_matrix,
    unpack_params,
)
from armid.simulate import FIXTURE_NAMES, builtin_fixture


def _assert_columns_pinned(model, q, qd, qdd):
    """Column c of the regressor is the inverse dynamics of the c-th unit
    parameter vector, and link k's columns are exactly 0 at joints past k."""
    W = regressor_batch(model, q, qd, qdd)
    atol = 1e-12 * np.max(np.abs(W))
    for col, unit in enumerate(np.eye(num_params(model))):
        tau = inverse_dynamics_batch(unpack_params(unit, model), q, qd, qdd)
        np.testing.assert_allclose(W[:, :, col], tau, rtol=0, atol=atol, err_msg=f"column {col}")
    for k in range(model.num_joints):
        np.testing.assert_array_equal(
            W[:, k + 1 :, k * PARAMS_PER_LINK : (k + 1) * PARAMS_PER_LINK], 0.0
        )


def _random_states(model, rng, count, accel_scale=6.0):
    n = model.num_joints
    lo = np.array([j.position_limits[0] for j in model.joint_specs])
    hi = np.array([j.position_limits[1] for j in model.joint_specs])
    vmax = np.array([j.velocity_limit for j in model.joint_specs])
    q = rng.uniform(lo, hi, (count, n))
    qd = rng.uniform(-vmax, vmax, (count, n))
    qdd = rng.uniform(-accel_scale, accel_scale, (count, n))
    return q, qd, qdd


class TestInverseDynamics:
    def test_hanging_equilibrium(self, pendulum_model):
        tau = inverse_dynamics_batch(pendulum_model, np.zeros(1), np.zeros(1), np.zeros(1))[0]
        np.testing.assert_allclose(tau, [0.0], atol=1e-12)

    def test_horizontal_gravity_torque(self, pendulum_model):
        # Static torque = m g l = 1.0 * 9.81 * 0.5 = 4.905 N m, by hand.
        tau = inverse_dynamics_batch(
            pendulum_model, np.array([np.pi / 2]), np.zeros(1), np.zeros(1)
        )[0]
        assert abs(tau[0]) == pytest.approx(4.905, abs=1e-12)

    def test_zero_gravity_rest_is_zero(self, twolink_model):
        model = RobotModel(links=twolink_model.links, gravity=np.zeros(3))
        tau = inverse_dynamics_batch(model, np.array([0.3, -0.7]), np.zeros(2), np.zeros(2))[0]
        np.testing.assert_allclose(tau, np.zeros(2), atol=1e-12)

    def test_friction_terms(self, pendulum_model):
        vec = pack_params(pendulum_model).copy()
        vec[10] = 0.3  # viscous
        vec[11] = 0.2  # coulomb
        vec[12] = 0.05  # rotor
        model = unpack_params(vec, pendulum_model)
        qd = 0.8
        qdd = 1.5
        base = inverse_dynamics_batch(
            pendulum_model, np.zeros(1), np.array([qd]), np.array([qdd])
        )[0]
        tau = inverse_dynamics_batch(model, np.zeros(1), np.array([qd]), np.array([qdd]))[0]
        extra = 0.3 * qd + 0.2 * np.tanh(qd / SMOOTH_SIGN_EPS) + 0.05 * qdd
        assert tau[0] - base[0] == pytest.approx(extra, abs=1e-12)

    def test_rejects_non_finite(self, pendulum_model):
        with pytest.raises(ValidationError):
            inverse_dynamics_batch(pendulum_model, np.array([np.nan]), np.zeros(1), np.zeros(1))
        with pytest.raises(ValidationError):
            inverse_dynamics_batch(
                pendulum_model, np.array([[np.inf]]), np.zeros((1, 1)), np.zeros((1, 1))
            )

    def test_mass_matrix_symmetric_pd(self, twolink_model):
        vec = pack_params(twolink_model).copy()
        vec[10:13] = 0.0
        vec[23:26] = 0.0
        frictionless = unpack_params(vec, twolink_model)
        model = RobotModel(links=frictionless.links, gravity=np.zeros(3))
        rng = np.random.default_rng(5)
        for _ in range(5):
            q = rng.uniform(-2.0, 2.0, 2)
            M = np.column_stack(
                [
                    inverse_dynamics_batch(model, q, np.zeros(2), e)[0]
                    for e in np.eye(2)
                ]
            )
            np.testing.assert_allclose(M, M.T, atol=1e-12)
            assert np.linalg.eigvalsh(M)[0] > 0

    def test_energy_balance(self, twolink_model):
        # Power in equals rate of change of mechanical energy when friction and
        # rotor terms are off; energy comes from the kinematics, not the torque
        # recursion, so this cross-checks the dynamics end to end.
        vec = pack_params(twolink_model).copy()
        vec[10:13] = 0.0
        vec[23:26] = 0.0
        model = unpack_params(vec, twolink_model)

        def traj(t):
            q = np.array([0.7 * np.sin(t), 0.5 * np.sin(1.3 * t + 0.4)])
            qd = np.array([0.7 * np.cos(t), 0.65 * np.cos(1.3 * t + 0.4)])
            qdd = np.array([-0.7 * np.sin(t), -0.845 * np.sin(1.3 * t + 0.4)])
            return q, qd, qdd

        dt = 1e-5
        for t0 in (0.3, 1.234, 2.9):
            q, qd, qdd = traj(t0)
            power = float(inverse_dynamics_batch(model, q, qd, qdd)[0] @ qd)
            e_plus = sum(energy(model, *traj(t0 + dt)[:2]))
            e_minus = sum(energy(model, *traj(t0 - dt)[:2]))
            d_energy = (e_plus - e_minus) / (2 * dt)
            assert power == pytest.approx(d_energy, abs=1e-6)


class TestRegressor:
    def test_identity_on_random_states(self, twolink_model):
        rng = np.random.default_rng(0)
        q, qd, qdd = _random_states(twolink_model, rng, 1000)
        W = regressor_batch(twolink_model, q, qd, qdd)
        tau = inverse_dynamics_batch(twolink_model, q, qd, qdd)
        alpha = pack_params(twolink_model)
        assert np.max(np.abs(W @ alpha - tau)) < 1e-9

    def test_zero_state_zero_gravity_is_zero_matrix(self, twolink_model):
        model = RobotModel(links=twolink_model.links, gravity=np.zeros(3))
        W = regressor_batch(model, np.zeros(2), np.zeros(2), np.zeros(2))[0]
        np.testing.assert_array_equal(W, np.zeros((2, 26)))

    def test_friction_columns(self, twolink_model):
        rng = np.random.default_rng(1)
        q, qd, qdd = _random_states(twolink_model, rng, 1)
        W = regressor_batch(twolink_model, q[0], qd[0], qdd[0])[0]
        for i in range(2):
            viscous = np.zeros(2)
            viscous[i] = qd[0, i]
            np.testing.assert_allclose(W[:, 13 * i + 10], viscous, atol=1e-12)
            coulomb = np.zeros(2)
            coulomb[i] = smooth_sign(qd[0, i])
            np.testing.assert_allclose(W[:, 13 * i + 11], coulomb, atol=1e-12)
            rotor = np.zeros(2)
            rotor[i] = qdd[0, i]
            np.testing.assert_allclose(W[:, 13 * i + 12], rotor, atol=1e-12)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_column_is_unit_parameter_dynamics(self, name):
        model = builtin_fixture(name).model
        q, qd, qdd = _random_states(model, np.random.default_rng(12), 40)
        _assert_columns_pinned(model, q, qd, qdd)

    def test_peak_memory_is_small_multiple_of_output(self):
        # Memory must stay linear in the sample count: no per-parameter or
        # per-descendant copies of the output.
        model = builtin_fixture("arm7").model
        q, qd, qdd = _random_states(model, np.random.default_rng(13), 2000)
        tracemalloc.start()
        try:
            W = regressor_batch(model, q, qd, qdd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * W.nbytes, f"peak {peak / W.nbytes:.2f}x the output"


@st.composite
def _random_chain(draw):
    """A serial chain of 1-7 links with random axes, poses and realizable inertias."""
    angle = st.floats(-np.pi, np.pi)
    coord = st.floats(-0.5, 0.5)
    links = []
    for i in range(draw(st.integers(1, 7))):
        polar, azimuth = draw(st.floats(0.0, np.pi)), draw(angle)
        axis = [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]
        pose = Transform.from_xyz_rpy([draw(coord) for _ in range(3)], [draw(angle) for _ in range(3)])
        joint = JointSpec(f"j{i}", np.array(axis), pose, (-3.0, 3.0), 2.0, 10.0)
        # I = tr(S) 1 - S for a positive second moment S is always realizable.
        second_moment = np.diag([draw(st.floats(1e-3, 0.2)) for _ in range(3)])
        turn = rpy_matrix(*(draw(angle) for _ in range(3)))
        inertia_com = turn @ (np.trace(second_moment) * np.eye(3) - second_moment) @ turn.T
        params = params_from_com(
            draw(st.floats(0.1, 5.0)), [draw(coord) for _ in range(3)], inertia_com,
            *(draw(st.floats(0.0, 1.0)) for _ in range(3)),
        )
        links.append((joint, params))
    return RobotModel(links=tuple(links))


class TestRandomChains:
    @given(model=_random_chain(), seed=st.integers(0, 2**32 - 1))
    def test_regressor_identity_and_columns(self, model, seed):
        rng = np.random.default_rng(seed)
        q, qd, qdd = _random_states(model, rng, 50)
        W = regressor_batch(model, q, qd, qdd)
        tau = inverse_dynamics_batch(model, q, qd, qdd)
        scale = max(1.0, float(np.max(np.abs(tau))))
        assert np.max(np.abs(W @ pack_params(model) - tau)) <= 1e-9 * scale
        _assert_columns_pinned(model, q[:3], qd[:3], qdd[:3])

    @given(model=_random_chain(), seed=st.integers(0, 2**32 - 1))
    def test_energy_balance(self, model, seed):
        # d(KE + PE)/dt = qd . (tau - viscous qd - coulomb sign(qd) - rotor qdd)
        # along a smooth trajectory; energy comes from the kinematics, so this
        # checks the torque recursion end to end on any chain.
        rng = np.random.default_rng(seed)
        n = model.num_joints
        amp, freq, phase = rng.uniform(0.2, 1.0, n), rng.uniform(0.5, 2.0, n), rng.uniform(0, 6, n)

        def state(t):
            arg = freq * t + phase
            return amp * np.sin(arg), amp * freq * np.cos(arg), -amp * freq**2 * np.sin(arg)

        t0, dt = rng.uniform(0.0, 3.0), 1e-3
        q, qd, qdd = state(t0)
        joint_side = np.array(
            [
                p.viscous_friction * qd[i]
                + p.coulomb_friction * smooth_sign(qd[i])
                + p.rotor_inertia * qdd[i]
                for i, (_, p) in enumerate(model.links)
            ]
        )
        tau = inverse_dynamics_batch(model, q, qd, qdd)[0]
        power = float(qd @ (tau - joint_side))
        e = [sum(energy(model, *state(t0 + k * dt)[:2])) for k in (-2, -1, 1, 2)]
        d_energy = (e[0] - 8 * e[1] + 8 * e[2] - e[3]) / (12 * dt)  # five-point stencil
        scale = 1.0 + float(np.abs(qd * tau).sum())
        assert power == pytest.approx(d_energy, abs=1e-9 * scale)


class TestStack:
    def test_shapes_and_zero_offset(self, twolink_model):
        rng = np.random.default_rng(3)
        q, qd, qdd = _random_states(twolink_model, rng, 10)
        torques = inverse_dynamics_batch(twolink_model, q, qd, qdd)
        fixed = np.zeros(26, dtype=bool)
        fixed[:13] = True
        fixed[13:21] = True  # leave 5 free columns
        stack = stack_regressor(
            twolink_model, q, qd, qdd, torques, fixed_mask=fixed,
            fixed_values=pack_params(twolink_model),
        )
        assert stack.W.shape == (20, 5)
        assert stack.w0.shape == (20,)

    def test_no_fixed_means_zero_w0(self, twolink_model):
        rng = np.random.default_rng(4)
        q, qd, qdd = _random_states(twolink_model, rng, 5)
        torques = inverse_dynamics_batch(twolink_model, q, qd, qdd)
        stack = stack_regressor(twolink_model, q, qd, qdd, torques)
        np.testing.assert_array_equal(stack.w0, np.zeros(10))

    def test_all_fixed_at_truth_consumes_signal(self, twolink_model):
        rng = np.random.default_rng(5)
        q, qd, qdd = _random_states(twolink_model, rng, 50)
        torques = inverse_dynamics_batch(twolink_model, q, qd, qdd)
        stack = stack_regressor(
            twolink_model, q, qd, qdd, torques,
            fixed_mask=np.ones(26, dtype=bool),
            fixed_values=pack_params(twolink_model),
        )
        assert stack.W.shape == (100, 0)
        assert np.max(np.abs(stack.T - stack.w0)) < 1e-9

    def test_dimension_mismatch(self, twolink_model):
        q = qd = qdd = np.zeros((1, 2))
        with pytest.raises(ValidationError):
            stack_regressor(twolink_model, q, qd, qdd, np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            stack_regressor(twolink_model, q, qd, qdd, np.zeros((1, 3)))

    def test_no_mask_stack_holds_no_regressor_copy(self):
        # The robot identify path fixes nothing; its stack must reuse the
        # regressor's memory rather than copy every column.
        model = builtin_fixture("arm7").model
        q, qd, qdd = _random_states(model, np.random.default_rng(13), 2000)
        tau = np.zeros_like(q)
        tracemalloc.start()
        try:
            stack = stack_regressor(model, q, qd, qdd, tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stack.W.nbytes, f"peak {peak / stack.W.nbytes:.2f}x W"

    def test_embed_roundtrip(self, twolink_model):
        rng = np.random.default_rng(6)
        q, qd, qdd = _random_states(twolink_model, rng, 3)
        torques = inverse_dynamics_batch(twolink_model, q, qd, qdd)
        truth = pack_params(twolink_model)
        fixed = np.zeros(26, dtype=bool)
        fixed[5] = True
        stack = stack_regressor(
            twolink_model, q, qd, qdd, torques, fixed_mask=fixed, fixed_values=truth
        )
        free_part = truth[~fixed]
        embedded = least_squares(stack).embed(free_part)
        np.testing.assert_array_equal(embedded, truth)


class TestKinematics:
    def test_forward_kinematics_pendulum(self, pendulum_model):
        q = np.array([[0.0], [np.pi / 2]])
        R, p = forward_kinematics(pendulum_model, q)
        np.testing.assert_allclose(R[0, 0], np.eye(3), atol=1e-12)
        np.testing.assert_allclose(p[0, 0], np.zeros(3), atol=1e-12)
        # rotation about +y by pi/2 maps +z to +x
        np.testing.assert_allclose(R[1, 0] @ np.array([0, 0, 1.0]), [1, 0, 0], atol=1e-12)

    def test_chain_composition(self, twolink_model):
        q = np.array([[0.4, -0.9]])
        R, p = forward_kinematics(twolink_model, q)
        j2 = twolink_model.joint_specs[1]
        expected_p2 = p[0, 0] + R[0, 0] @ j2.parent_frame_pose.translation
        np.testing.assert_allclose(p[0, 1], expected_p2, atol=1e-12)
