from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from armid.model import (
    FeasibilityReport,
    JointSpec,
    LinkInertialParams,
    RobotDescriptionError,
    RobotModel,
    Transform,
    UnsupportedTopologyError,
    ValidationError,
    combine_inertial,
    inertia_about_com,
    is_physically_feasible,
    model_from_dict,
    model_to_dict,
    pack_params,
    params_from_com,
    parse_robot_description,
    pseudo_inertia,
    rpy_matrix,
    solid_sphere_params,
    unpack_params,
)

PENDULUM_URDF = """
<robot name="pendulum">
  <link name="base"/>
  <link name="bob">
    <inertial>
      <origin xyz="0 0 -0.5" rpy="0 0 0"/>
      <mass value="1.0"/>
      <inertia ixx="0.1" ixy="0" ixz="0" iyy="0.1" iyz="0" izz="0.01"/>
    </inertial>
  </link>
  <joint name="swing" type="revolute">
    <parent link="base"/>
    <child link="bob"/>
    <origin xyz="0 0 0" rpy="0 0 0"/>
    <axis xyz="0 1 0"/>
    <limit lower="-3.0" upper="3.0" velocity="2.5" acceleration="15.0"/>
  </joint>
</robot>
"""

TWOLINK_URDF = """
<robot name="planar">
  <link name="base"/>
  <link name="upper">
    <inertial>
      <origin xyz="0.25 0 0"/>
      <mass value="2.0"/>
      <inertia ixx="0.002" ixy="0" ixz="0" iyy="0.045" iyz="0" izz="0.045"/>
    </inertial>
  </link>
  <link name="lower">
    <inertial>
      <origin xyz="0.2 0 0"/>
      <mass value="1.2"/>
      <inertia ixx="0.001" ixy="0" ixz="0" iyy="0.018" iyz="0" izz="0.018"/>
    </inertial>
  </link>
  <joint name="shoulder" type="revolute">
    <parent link="base"/>
    <child link="upper"/>
    <axis xyz="0 1 0"/>
    <limit lower="-2.2" upper="2.2" velocity="3.0" acceleration="20.0"/>
  </joint>
  <joint name="elbow" type="revolute">
    <parent link="upper"/>
    <child link="lower"/>
    <origin xyz="0.5 0 0"/>
    <axis xyz="0 1 0"/>
    <limit lower="-2.2" upper="2.2" velocity="3.0" acceleration="20.0"/>
  </joint>
</robot>
"""


class TestParse:
    def test_pendulum_parallel_axis(self):
        # Hand parallel-axis: I_xx = 0.1 + 1.0 * 0.5^2 = 0.35 about the joint.
        model = parse_robot_description(PENDULUM_URDF)
        assert model.num_joints == 1
        params = model.inertial_params[0]
        assert params.mass == 1.0
        np.testing.assert_allclose(params.first_moment, [0.0, 0.0, -0.5])
        assert params.rotational_inertia[0, 0] == pytest.approx(0.35, abs=1e-12)
        assert params.rotational_inertia[1, 1] == pytest.approx(0.35, abs=1e-12)
        assert params.rotational_inertia[2, 2] == pytest.approx(0.01, abs=1e-12)

    def test_missing_velocity_limit(self):
        bad = PENDULUM_URDF.replace(' velocity="2.5"', "")
        missing = "joint 'swing' <limit>: 'velocity' is missing"
        with pytest.raises(RobotDescriptionError, match=missing):
            parse_robot_description(bad)

    def test_missing_limit_element(self):
        bad = PENDULUM_URDF.replace(
            '<limit lower="-3.0" upper="3.0" velocity="2.5" acceleration="15.0"/>', ""
        )
        with pytest.raises(ValidationError, match="swing"):
            parse_robot_description(bad)

    def test_two_link_param_count(self):
        model = parse_robot_description(TWOLINK_URDF)
        assert model.num_joints == 2
        assert pack_params(model).shape == (26,)

    def test_malformed_xml_reports_line(self):
        with pytest.raises(RobotDescriptionError, match="line"):
            parse_robot_description("<robot name='x'>\n<link name='a'>\n</robot>")

    _LOOP = """
  <link name="a"/>
  <link name="b"/>
  <joint name="ab" type="revolute"><parent link="a"/><child link="b"/></joint>
  <joint name="ba" type="revolute"><parent link="b"/><child link="a"/></joint>
</robot>"""

    @pytest.mark.parametrize(
        "old, new, error, message",
        [
            ('<parent link="upper"/>', '<parent link="base"/>', UnsupportedTopologyError,
             "link 'base' has more than one child joint; chains must not branch"),
            ('<link name="base"/>', '<link name="base"/><link name="tool"/>',
             UnsupportedTopologyError, "expected exactly one base link, found ['base', 'tool']"),
            ('<parent link="upper"/>\n    <child link="lower"/>',
             '<parent link="lower"/>\n    <child link="upper"/>', UnsupportedTopologyError,
             "link 'upper' has more than one parent joint"),
            ('<parent link="upper"/>', '<parent link="uper"/>', RobotDescriptionError,
             "joint 'elbow': unknown parent link 'uper'"),
            ('<child link="lower"/>', '<child link="lowr"/>', RobotDescriptionError,
             "joint 'elbow': unknown child link 'lowr'"),
            ('<child link="lower"/>', "", RobotDescriptionError,
             "joint 'elbow' needs <parent> and <child>"),
            ("joint", "hinge", RobotDescriptionError, "document declares no joints"),
            ("</robot>", _LOOP, UnsupportedTopologyError,
             "joints do not form a single connected chain"),
            ('<link name="base"/>', "<link/>", RobotDescriptionError, "a <link> has no name"),
            ('<link name="base"/>', '<link name="base"/><link name="upper"/>',
             RobotDescriptionError, "link 'upper' is declared twice"),
        ],
        ids=["branching", "two-bases", "two-parents", "unknown-parent", "unknown-child",
             "missing-child", "no-joints", "detached-loop", "nameless-link", "duplicate-link"],
    )
    def test_branching_chain_rejected(self, old, new, error, message):
        doc = TWOLINK_URDF.replace(old, new)
        assert doc != TWOLINK_URDF
        with pytest.raises(error) as info:
            parse_robot_description(doc)
        assert str(info.value) == f"robot description: {message}"

    def test_prismatic_rejected(self):
        bad = PENDULUM_URDF.replace('type="revolute"', 'type="prismatic"')
        with pytest.raises(UnsupportedTopologyError, match="prismatic"):
            parse_robot_description(bad)

    def test_missing_inertial_rejected(self):
        bad = PENDULUM_URDF.replace("<inertial>", "<disabled>").replace(
            "</inertial>", "</disabled>"
        )
        with pytest.raises(ValidationError, match="bob"):
            parse_robot_description(bad)

    def test_gravity_override(self):
        doc = PENDULUM_URDF.replace(
            "</robot>", '<gravity xyz="0 0 -3.71"/></robot>'
        )
        model = parse_robot_description(doc)
        np.testing.assert_allclose(model.gravity, [0, 0, -3.71])

    def test_parallel_axis_involutive(self):
        # Converting origin-frame inertia back to the CoM frame recovers the file.
        model = parse_robot_description(PENDULUM_URDF)
        back = inertia_about_com(model.inertial_params[0])
        np.testing.assert_allclose(back, np.diag([0.1, 0.1, 0.01]), atol=1e-12)

    def test_inertial_origin_rotation(self):
        doc = PENDULUM_URDF.replace(
            '<origin xyz="0 0 -0.5" rpy="0 0 0"/>',
            '<origin xyz="0 0 -0.5" rpy="0 0 1.5707963267948966"/>',
        )
        model = parse_robot_description(doc)
        # Rotating diag(0.1, 0.1, 0.01) about z by 90 degrees leaves it unchanged
        # in the xx/yy entries because they are equal.
        back = inertia_about_com(model.inertial_params[0])
        np.testing.assert_allclose(back, np.diag([0.1, 0.1, 0.01]), atol=1e-12)


class TestParamCodec:
    def test_pack_single_mass(self):
        joint = JointSpec(
            "j", np.array([0.0, 0.0, 1.0]), Transform.identity(), (-1, 1), 1.0, 1.0
        )
        params = LinkInertialParams(2.0, np.zeros(3), np.zeros((3, 3)))
        model = RobotModel(links=((joint, params),))
        vec = pack_params(model)
        assert vec.shape == (13,)
        assert vec[0] == 2.0
        assert np.all(vec[1:] == 0)

    def test_pack_length_scales_with_links(self, twolink_model):
        assert pack_params(twolink_model).shape == (26,)

    def test_roundtrip_pack_unpack(self, twolink_model):
        vec = pack_params(twolink_model)
        rebuilt = unpack_params(vec, twolink_model)
        np.testing.assert_array_equal(pack_params(rebuilt), vec)
        for (j1, p1), (j2, p2) in zip(twolink_model.links, rebuilt.links):
            assert j1 is j2
            np.testing.assert_array_equal(p1.to_vector(), p2.to_vector())

    def test_roundtrip_unpack_pack_random(self, twolink_model):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vec = rng.standard_normal(26)
            np.testing.assert_array_equal(
                pack_params(unpack_params(vec, twolink_model)), vec
            )

    def test_zero_vector_unpacks_to_zero_dynamics(self, twolink_model):
        model = unpack_params(np.zeros(26), twolink_model)
        for params in model.inertial_params:
            assert params.mass == 0.0
            assert np.all(params.first_moment == 0)
            assert np.all(params.rotational_inertia == 0)

    def test_length_mismatch(self, pendulum_model):
        with pytest.raises(ValidationError):
            unpack_params(np.zeros(12), pendulum_model)


class TestPseudoInertia:
    def test_point_mass(self):
        # Point mass m=2 at (1,0,0): I_origin = diag(0,2,2), Sigma = diag(2,0,0).
        p = params_from_com(2.0, [1.0, 0.0, 0.0], np.zeros((3, 3)))
        np.testing.assert_allclose(p.rotational_inertia, np.diag([0.0, 2.0, 2.0]))
        J = pseudo_inertia(p)
        np.testing.assert_allclose(J[:3, :3], np.diag([2.0, 0.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(J[3], [2.0, 0.0, 0.0, 2.0])
        np.testing.assert_allclose(J[:, 3], [2.0, 0.0, 0.0, 2.0])
        eigs = np.linalg.eigvalsh(J)
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert np.sum(eigs > 1e-12) == 1  # rank one

    def test_solid_sphere(self):
        # Unit sphere at origin: I = (2/5) E, Sigma = (1/5) E, J = diag(.2,.2,.2,1).
        p = solid_sphere_params(1.0, 1.0, [0.0, 0.0, 0.0])
        J = pseudo_inertia(p)
        np.testing.assert_allclose(J, np.diag([0.2, 0.2, 0.2, 1.0]), atol=1e-15)

    def test_zero_body(self):
        p = LinkInertialParams(0.0, np.zeros(3), np.zeros((3, 3)))
        np.testing.assert_array_equal(pseudo_inertia(p), np.zeros((4, 4)))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p1 = _random_body(rng)
            p2 = _random_body(rng)
            a, b = rng.uniform(0.1, 3.0, 2)
            combined = LinkInertialParams(
                a * p1.mass + b * p2.mass,
                a * p1.first_moment + b * p2.first_moment,
                a * p1.rotational_inertia + b * p2.rotational_inertia,
            )
            np.testing.assert_allclose(
                pseudo_inertia(combined),
                a * pseudo_inertia(p1) + b * pseudo_inertia(p2),
                atol=1e-12,
            )


def _random_body(rng) -> LinkInertialParams:
    # sampling the CoM second moment SPD guarantees strict realizability
    mass = rng.uniform(0.2, 3.0)
    com = rng.uniform(-0.2, 0.2, 3)
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    second_moment = basis @ np.diag(rng.uniform(0.005, 0.04, 3)) @ basis.T
    inertia_com = np.trace(second_moment) * np.eye(3) - second_moment
    return params_from_com(mass, com, inertia_com)


_TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
_ANGLE = st.floats(-np.pi, np.pi)
_COORD = st.floats(-0.5, 0.5)


@st.composite
def _point_mass_body(draw):
    """Positive point masses, four of them on a tetrahedron so none are coplanar."""
    turn = rpy_matrix(*(draw(_ANGLE) for _ in range(3)))
    center = np.array([draw(_COORD) for _ in range(3)])
    size = draw(st.floats(0.01, 0.5))
    points = [center + size * turn @ corner for corner in _TETRAHEDRON]
    points += [np.array([draw(_COORD) for _ in range(3)]) for _ in range(draw(st.integers(0, 4)))]
    masses = [draw(st.floats(0.01, 5.0)) for _ in points]
    return LinkInertialParams(
        sum(masses),
        sum(m * p for m, p in zip(masses, points)),
        sum(m * (p @ p * np.eye(3) - np.outer(p, p)) for m, p in zip(masses, points)),
    )


class TestFeasibility:
    @given(body=_point_mass_body())
    def test_point_mass_bodies_are_feasible(self, body):
        assert is_physically_feasible(body).feasible

    @given(
        mass=st.floats(0.05, 5.0),
        com=st.lists(_COORD, min_size=3, max_size=3),
        angles=st.lists(_ANGLE, min_size=3, max_size=3),
        others=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=2),
        excess=st.floats(1e-3, 1.0),
        axis=st.integers(0, 2),
    )
    def test_triangle_inequality_violation_is_infeasible(
        self, mass, com, angles, others, excess, axis
    ):
        # One principal moment about the CoM exceeds the sum of the other two.
        moments = np.roll([others[0] + others[1] + excess, *others], axis)
        turn = rpy_matrix(*angles)
        body = params_from_com(mass, com, turn @ np.diag(moments) @ turn.T)
        assert not is_physically_feasible(body).feasible

    def test_sphere_margin(self):
        p = solid_sphere_params(1.0, 1.0, [0.0, 0.0, 0.0])
        report = is_physically_feasible(p, tol=1e-9)
        assert report.feasible
        assert report.pseudo_inertia_min_eig == pytest.approx(0.2, abs=1e-12)
        assert report.margin == pytest.approx(0.2, abs=1e-12)

    def test_point_mass_boundary(self):
        p = params_from_com(2.0, [1.0, 0.0, 0.0], np.zeros((3, 3)))
        report = is_physically_feasible(p, tol=1e-9)
        assert not report.feasible
        assert report.binding_constraint == "pseudo_inertia"

    def test_negative_coulomb(self):
        p = solid_sphere_params(1.0, 0.2, [0.0, 0.0, 0.0])
        p = LinkInertialParams(
            p.mass, p.first_moment, p.rotational_inertia, coulomb_friction=-0.1
        )
        report = is_physically_feasible(p, tol=1e-9)
        assert not report.feasible
        assert report.binding_constraint == "coulomb_friction"
        assert report.margin == pytest.approx(-0.1)

    def test_closed_under_addition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p1 = _random_body(rng)
            p2 = _random_body(rng)
            assert is_physically_feasible(p1).feasible
            assert is_physically_feasible(p2).feasible
            assert is_physically_feasible(combine_inertial(p1, p2)).feasible

    def test_tolerance_must_be_finite_and_nonnegative(self):
        p = solid_sphere_params(1.0, 0.5, [0.1, 0.0, 0.0])
        for tol in (np.nan, np.inf, -1e-9):  # NaN once called every body feasible
            with pytest.raises(ValidationError, match="tolerance must be finite and >= 0"):
                is_physically_feasible(p, tol=tol)

    def test_report_is_dataclass(self):
        p = solid_sphere_params(1.0, 0.5, [0.1, 0.0, 0.0])
        report = is_physically_feasible(p)
        assert isinstance(report, FeasibilityReport)
        assert set(asdict(report)) >= {"feasible", "margin", "binding_constraint"}


class TestInvariantsAndSerialization:
    def test_joint_validation(self):
        with pytest.raises(ValidationError, match="axis"):
            JointSpec("j", np.array([0.0, 0.0, 2.0]), Transform.identity(), (-1, 1), 1.0, 1.0)
        with pytest.raises(ValidationError, match="reversed"):
            JointSpec("j", np.array([0.0, 0.0, 1.0]), Transform.identity(), (1, -1), 1.0, 1.0)
        with pytest.raises(ValidationError, match="velocity"):
            JointSpec("j", np.array([0.0, 0.0, 1.0]), Transform.identity(), (-1, 1), 0.0, 1.0)

    def test_inertia_symmetry_enforced(self):
        bad = np.array([[0.1, 1e-6, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
        with pytest.raises(ValidationError, match="asymmetry"):
            LinkInertialParams(1.0, np.zeros(3), bad)

    def test_dict_roundtrip(self, twolink_model):
        rebuilt = model_from_dict(model_to_dict(twolink_model))
        np.testing.assert_array_equal(pack_params(rebuilt), pack_params(twolink_model))
        for (j1, _), (j2, _) in zip(twolink_model.links, rebuilt.links):
            np.testing.assert_array_equal(j1.axis, j2.axis)
            np.testing.assert_array_equal(
                j1.parent_frame_pose.rotation, j2.parent_frame_pose.rotation
            )
