"""Robot data model: kinematic chain description, inertial parameters,
pseudo-inertia feasibility, and the flat parameter vector codec.

A robot is a fixed-base serial chain of revolute joints. Each link carries
13 dynamic parameters ordered as

    [m, h_x, h_y, h_z, I_xx, I_xy, I_xz, I_yy, I_yz, I_zz, mu_v, mu_c, I_r]

where ``h = m * p_com`` is the first mass moment about the link frame origin
and ``I`` is the rotational inertia about the link frame origin (not the
center of mass). Friction is viscous (``mu_v``) plus Coulomb (``mu_c``), and
``I_r`` is the reflected rotor inertia seen at the joint.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

PARAMS_PER_LINK = 13

# Indices into the per-link 13-slot layout.
MASS_INDEX = 0
FIRST_MOMENT_SLICE = slice(1, 4)
INERTIA_SLICE = slice(4, 10)
VISCOUS_INDEX = 10
COULOMB_INDEX = 11
ROTOR_INDEX = 12
INERTIAL_PARAMS_PER_LINK = 10


class ModelError(Exception):
    """Base error for robot model construction and parsing."""


class RobotDescriptionError(ModelError):
    """The robot description document cannot be parsed."""


class UnsupportedTopologyError(RobotDescriptionError):
    """The document describes a robot outside the supported serial-chain subset."""


class ValidationError(ModelError):
    """A structural or numeric invariant is violated."""


def _as_array(values, shape, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix from fixed-axis roll-pitch-yaw angles (URDF convention)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


@dataclass(frozen=True)
class Transform:
    """Rigid transform: ``x_parent = rotation @ x_child + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_array(self.rotation, (3, 3), "rotation"))
        object.__setattr__(
            self, "translation", _as_array(self.translation, (3,), "translation")
        )
        err = np.max(np.abs(self.rotation @ self.rotation.T - np.eye(3)))
        if err > 1e-9:
            raise ValidationError(f"rotation is not orthonormal (deviation {err:.2e})")

    @staticmethod
    def identity() -> "Transform":
        return Transform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_xyz_rpy(xyz: Sequence[float], rpy: Sequence[float]) -> "Transform":
        return Transform(rpy_matrix(*rpy), np.asarray(xyz, dtype=float))


@dataclass(frozen=True)
class JointSpec:
    """A revolute joint and the limits that constrain its motion."""

    name: str
    axis: np.ndarray
    parent_frame_pose: Transform
    position_limits: tuple[float, float]
    velocity_limit: float
    acceleration_limit: float

    def __post_init__(self):
        object.__setattr__(self, "axis", _as_array(self.axis, (3,), "axis"))
        norm = float(np.linalg.norm(self.axis))
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"joint '{self.name}': axis norm {norm} is not 1")
        lo, hi = self.position_limits
        object.__setattr__(self, "position_limits", (float(lo), float(hi)))
        if not lo <= hi:
            raise ValidationError(
                f"joint '{self.name}': position limits [{lo}, {hi}] are reversed"
            )
        if not self.velocity_limit > 0:
            raise ValidationError(f"joint '{self.name}': velocity limit must be > 0")
        if not self.acceleration_limit > 0:
            raise ValidationError(f"joint '{self.name}': acceleration limit must be > 0")


@dataclass(frozen=True)
class LinkInertialParams:
    """Dynamic parameters of one link, about the link frame origin.

    Instances may hold physically infeasible values (raw estimates often do);
    use :func:`is_physically_feasible` to check realizability.
    """

    mass: float
    first_moment: np.ndarray
    rotational_inertia: np.ndarray
    viscous_friction: float = 0.0
    coulomb_friction: float = 0.0
    rotor_inertia: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(
            self, "first_moment", _as_array(self.first_moment, (3,), "first_moment")
        )
        inertia = _as_array(self.rotational_inertia, (3, 3), "rotational_inertia")
        asym = float(np.max(np.abs(inertia - inertia.T)))
        if asym > 1e-12:
            raise ValidationError(f"rotational inertia asymmetry {asym:.2e} exceeds 1e-12")
        object.__setattr__(self, "rotational_inertia", inertia)
        for name in ("viscous_friction", "coulomb_friction", "rotor_inertia"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def com(self) -> np.ndarray:
        """Center of mass in the link frame (requires mass != 0)."""
        return self.first_moment / self.mass

    def to_vector(self) -> np.ndarray:
        out = np.empty(PARAMS_PER_LINK)
        out[MASS_INDEX] = self.mass
        out[FIRST_MOMENT_SLICE] = self.first_moment
        ine = self.rotational_inertia
        out[INERTIA_SLICE] = (
            ine[0, 0], ine[0, 1], ine[0, 2], ine[1, 1], ine[1, 2], ine[2, 2]
        )
        out[VISCOUS_INDEX] = self.viscous_friction
        out[COULOMB_INDEX] = self.coulomb_friction
        out[ROTOR_INDEX] = self.rotor_inertia
        return out

    @staticmethod
    def from_vector(values: np.ndarray) -> "LinkInertialParams":
        v = np.asarray(values, dtype=float)
        if v.shape != (PARAMS_PER_LINK,):
            raise ValidationError(f"expected {PARAMS_PER_LINK} entries, got {v.shape}")
        ixx, ixy, ixz, iyy, iyz, izz = v[INERTIA_SLICE]
        inertia = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
        return LinkInertialParams(
            mass=v[MASS_INDEX],
            first_moment=v[FIRST_MOMENT_SLICE],
            rotational_inertia=inertia,
            viscous_friction=v[VISCOUS_INDEX],
            coulomb_friction=v[COULOMB_INDEX],
            rotor_inertia=v[ROTOR_INDEX],
        )


@dataclass(frozen=True)
class RobotModel:
    """Fixed-base serial chain: link i hangs from link i-1 via a revolute joint."""

    links: tuple[tuple[JointSpec, LinkInertialParams], ...]
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    name: str = "robot"

    def __post_init__(self):
        links = tuple((j, p) for j, p in self.links)
        if len(links) < 1:
            raise ValidationError("a robot needs at least one link")
        for joint, params in links:
            if not isinstance(joint, JointSpec) or not isinstance(params, LinkInertialParams):
                raise ValidationError("links must be (JointSpec, LinkInertialParams) pairs")
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "gravity", _as_array(self.gravity, (3,), "gravity"))

    @property
    def num_joints(self) -> int:
        return len(self.links)

    @property
    def joint_specs(self) -> tuple[JointSpec, ...]:
        return tuple(j for j, _ in self.links)

    @property
    def inertial_params(self) -> tuple[LinkInertialParams, ...]:
        return tuple(p for _, p in self.links)


def num_params(model: RobotModel) -> int:
    return PARAMS_PER_LINK * model.num_joints


def pack_params(model: RobotModel) -> np.ndarray:
    """Flatten all link parameters into the 13N vector, link-major."""
    return np.concatenate([p.to_vector() for _, p in model.links])


def unpack_params(values: np.ndarray, skeleton: RobotModel) -> RobotModel:
    """Rebuild a model with the skeleton's kinematics and the given parameters."""
    v = np.asarray(values, dtype=float)
    expected = num_params(skeleton)
    if v.shape != (expected,):
        raise ValidationError(
            f"parameter vector has {v.size} entries, model needs {expected}"
        )
    links = tuple(
        (joint, LinkInertialParams.from_vector(v[i * PARAMS_PER_LINK:(i + 1) * PARAMS_PER_LINK]))
        for i, (joint, _) in enumerate(skeleton.links)
    )
    return RobotModel(links=links, gravity=skeleton.gravity, name=skeleton.name)


def pseudo_inertia(p: LinkInertialParams) -> np.ndarray:
    """4x4 pseudo-inertia; positive definiteness is equivalent to physical realizability."""
    inertia = p.rotational_inertia
    sigma = 0.5 * np.trace(inertia) * np.eye(3) - inertia
    out = np.empty((4, 4))
    out[:3, :3] = sigma
    out[:3, 3] = p.first_moment
    out[3, :3] = p.first_moment
    out[3, 3] = p.mass
    return out


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    pseudo_inertia_min_eig: float
    viscous_friction: float
    coulomb_friction: float
    rotor_inertia: float
    binding_constraint: str
    margin: float

    def as_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "pseudo_inertia_min_eig": self.pseudo_inertia_min_eig,
            "viscous_friction": self.viscous_friction,
            "coulomb_friction": self.coulomb_friction,
            "rotor_inertia": self.rotor_inertia,
            "binding_constraint": self.binding_constraint,
            "margin": self.margin,
        }


def is_physically_feasible(p: LinkInertialParams, tol: float = 1e-9) -> FeasibilityReport:
    """Check strict pseudo-inertia positive definiteness and nonnegative friction.

    Feasible iff ``min eig(J) > tol`` and all of ``mu_v, mu_c, I_r >= -tol``.
    The report carries the binding (smallest) margin.
    """
    if tol < 0:
        raise ValidationError("tolerance must be >= 0")
    min_eig = float(np.linalg.eigvalsh(pseudo_inertia(p))[0])
    violations = {}
    if min_eig <= tol:
        violations["pseudo_inertia"] = min_eig
    for name in ("viscous_friction", "coulomb_friction", "rotor_inertia"):
        value = getattr(p, name)
        if value < -tol:
            violations[name] = value
    if violations:
        binding = min(violations, key=violations.get)
        margin = violations[binding]
        feasible = False
    else:
        # Everything holds; the interesting slack is the eigenvalue margin
        # (frictions at exactly zero sit on the boundary but are allowed).
        binding = "pseudo_inertia"
        margin = min_eig
        feasible = True
    return FeasibilityReport(
        feasible=feasible,
        pseudo_inertia_min_eig=min_eig,
        viscous_friction=p.viscous_friction,
        coulomb_friction=p.coulomb_friction,
        rotor_inertia=p.rotor_inertia,
        binding_constraint=binding,
        margin=margin,
    )


def combine_inertial(a: LinkInertialParams, b: LinkInertialParams) -> LinkInertialParams:
    """Lump two rigidly attached bodies expressed in the same frame.

    Mass, first moment, and origin-frame inertia are additive, as are the
    joint-side friction and rotor terms (payloads normally carry zeros there).
    """
    return LinkInertialParams(
        mass=a.mass + b.mass,
        first_moment=a.first_moment + b.first_moment,
        rotational_inertia=a.rotational_inertia + b.rotational_inertia,
        viscous_friction=a.viscous_friction + b.viscous_friction,
        coulomb_friction=a.coulomb_friction + b.coulomb_friction,
        rotor_inertia=a.rotor_inertia + b.rotor_inertia,
    )


def inertia_about_com(p: LinkInertialParams) -> np.ndarray:
    """Rotational inertia re-expressed about the center of mass (mass must be > 0)."""
    if p.mass <= 0:
        raise ValidationError("center-of-mass inertia requires mass > 0")
    c = p.first_moment / p.mass
    shift = p.mass * (np.dot(c, c) * np.eye(3) - np.outer(c, c))
    return p.rotational_inertia - shift


def params_from_com(
    mass: float,
    com: Sequence[float],
    inertia_com: np.ndarray,
    viscous_friction: float = 0.0,
    coulomb_friction: float = 0.0,
    rotor_inertia: float = 0.0,
) -> LinkInertialParams:
    """Build link parameters from CoM-frame quantities via the parallel axis theorem."""
    c = np.asarray(com, dtype=float)
    inertia_com = np.asarray(inertia_com, dtype=float)
    shift = mass * (np.dot(c, c) * np.eye(3) - np.outer(c, c))
    inertia_origin = 0.5 * (inertia_com + inertia_com.T) + shift
    return LinkInertialParams(
        mass=mass,
        first_moment=mass * c,
        rotational_inertia=inertia_origin,
        viscous_friction=viscous_friction,
        coulomb_friction=coulomb_friction,
        rotor_inertia=rotor_inertia,
    )


def solid_sphere_params(mass: float, radius: float, center: Sequence[float]) -> LinkInertialParams:
    """Uniform solid sphere, expressed about the link frame origin."""
    inertia_com = (2.0 / 5.0) * mass * radius**2 * np.eye(3)
    return params_from_com(mass, center, inertia_com)


# --- robot description parsing -------------------------------------------------

_SUPPORTED_JOINT_TYPES = ("revolute",)
_DEFAULT_ACCELERATION_LIMIT = 10.0


def _parse_floats(text: str, count: int, context: str) -> list[float]:
    parts = text.split()
    if len(parts) != count:
        raise RobotDescriptionError(f"{context}: expected {count} numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise RobotDescriptionError(f"{context}: bad number in {text!r}") from exc


def _origin_transform(element, context: str) -> Transform:
    origin = element.find("origin")
    if origin is None:
        return Transform.identity()
    xyz = _parse_floats(origin.get("xyz", "0 0 0"), 3, context)
    rpy = _parse_floats(origin.get("rpy", "0 0 0"), 3, context)
    return Transform.from_xyz_rpy(xyz, rpy)


def _parse_inertial(link_el, link_name: str) -> LinkInertialParams:
    inertial = link_el.find("inertial")
    if inertial is None:
        raise ValidationError(f"link '{link_name}' has no <inertial> block")
    mass_el = inertial.find("mass")
    inertia_el = inertial.find("inertia")
    if mass_el is None or inertia_el is None:
        raise ValidationError(f"link '{link_name}': <inertial> needs <mass> and <inertia>")
    mass = float(mass_el.get("value"))
    pose = _origin_transform(inertial, f"link '{link_name}' inertial origin")
    try:
        entries = {k: float(inertia_el.get(k)) for k in ("ixx", "ixy", "ixz", "iyy", "iyz", "izz")}
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"link '{link_name}': incomplete <inertia> attributes") from exc
    inertia_local = np.array(
        [
            [entries["ixx"], entries["ixy"], entries["ixz"]],
            [entries["ixy"], entries["iyy"], entries["iyz"]],
            [entries["ixz"], entries["iyz"], entries["izz"]],
        ]
    )
    # The file stores inertia about the CoM in the inertial frame; rotate into
    # link axes, then shift to the link origin.
    inertia_com = pose.rotation @ inertia_local @ pose.rotation.T
    return params_from_com(mass, pose.translation, inertia_com)


def _parse_limits(joint_el, joint_name: str) -> tuple[tuple[float, float], float, float]:
    limit = joint_el.find("limit")
    if limit is None:
        raise ValidationError(f"joint '{joint_name}' has no <limit> element")
    values = {}
    for attr in ("lower", "upper", "velocity"):
        raw = limit.get(attr)
        if raw is None:
            raise ValidationError(f"joint '{joint_name}': <limit> missing '{attr}'")
        values[attr] = float(raw)
    acceleration = float(limit.get("acceleration", _DEFAULT_ACCELERATION_LIMIT))
    return (values["lower"], values["upper"]), values["velocity"], acceleration


def parse_robot_description(text: str) -> RobotModel:
    """Parse a URDF-subset document into a RobotModel.

    Supported subset: a single fixed-base serial chain of revolute joints,
    with required ``<limit>`` on every joint and ``<inertial>`` on every moving
    link. Optional extensions: ``acceleration`` attribute on ``<limit>``
    (default 10 rad/s^2), ``rotor_inertia`` on ``<dynamics>``, and a top-level
    ``<gravity xyz="..."/>`` element overriding (0, 0, -9.81).
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise RobotDescriptionError(
            f"malformed XML at line {line}, column {column}: {exc.msg if hasattr(exc, 'msg') else exc}"
        ) from exc
    if root.tag != "robot":
        raise RobotDescriptionError(f"expected <robot> root element, got <{root.tag}>")
    name = root.get("name", "robot")

    links = {el.get("name"): el for el in root.findall("link")}
    if not links:
        raise RobotDescriptionError("document declares no links")

    joints = []
    for el in root.findall("joint"):
        jname = el.get("name", "<unnamed>")
        jtype = el.get("type")
        if jtype not in _SUPPORTED_JOINT_TYPES:
            raise UnsupportedTopologyError(
                f"joint '{jname}' has type '{jtype}'; only revolute joints are supported"
            )
        parent = el.find("parent")
        child = el.find("child")
        if parent is None or child is None:
            raise RobotDescriptionError(f"joint '{jname}' needs <parent> and <child>")
        joints.append((jname, parent.get("link"), child.get("link"), el))

    if not joints:
        raise RobotDescriptionError("document declares no joints")

    children_of: dict[str, list] = {}
    child_names = set()
    for jname, parent, child, el in joints:
        if parent not in links:
            raise RobotDescriptionError(f"joint '{jname}': unknown parent link '{parent}'")
        if child not in links:
            raise RobotDescriptionError(f"joint '{jname}': unknown child link '{child}'")
        if child in child_names:
            raise UnsupportedTopologyError(f"link '{child}' has more than one parent joint")
        child_names.add(child)
        children_of.setdefault(parent, []).append((jname, child, el))

    roots = [n for n in links if n not in child_names]
    if len(roots) != 1:
        raise UnsupportedTopologyError(
            f"expected exactly one base link, found {sorted(roots)}"
        )
    for parent, outgoing in children_of.items():
        if len(outgoing) > 1:
            raise UnsupportedTopologyError(
                f"link '{parent}' has {len(outgoing)} child joints; chains must not branch"
            )

    chain = []
    current = roots[0]
    while current in children_of:
        jname, child, el = children_of[current][0]
        chain.append((jname, child, el))
        current = child
    if len(chain) != len(joints):
        raise UnsupportedTopologyError("joints do not form a single connected chain")

    model_links = []
    for jname, child, el in chain:
        axis_el = el.find("axis")
        axis = np.array([1.0, 0.0, 0.0])
        if axis_el is not None:
            axis = np.asarray(_parse_floats(axis_el.get("xyz", "1 0 0"), 3, f"joint '{jname}' axis"))
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValidationError(f"joint '{jname}': zero axis")
        axis = axis / norm
        pose = _origin_transform(el, f"joint '{jname}' origin")
        position_limits, velocity_limit, acceleration_limit = _parse_limits(el, jname)
        joint = JointSpec(
            name=jname,
            axis=axis,
            parent_frame_pose=pose,
            position_limits=position_limits,
            velocity_limit=velocity_limit,
            acceleration_limit=acceleration_limit,
        )
        params = _parse_inertial(links[child], child)
        dynamics = el.find("dynamics")
        if dynamics is not None:
            params = LinkInertialParams(
                mass=params.mass,
                first_moment=params.first_moment,
                rotational_inertia=params.rotational_inertia,
                viscous_friction=float(dynamics.get("damping", 0.0)),
                coulomb_friction=float(dynamics.get("friction", 0.0)),
                rotor_inertia=float(dynamics.get("rotor_inertia", 0.0)),
            )
        model_links.append((joint, params))

    gravity = np.array([0.0, 0.0, -9.81])
    gravity_el = root.find("gravity")
    if gravity_el is not None:
        gravity = np.asarray(_parse_floats(gravity_el.get("xyz", "0 0 -9.81"), 3, "gravity"))

    return RobotModel(links=tuple(model_links), gravity=gravity, name=name)


# --- serialization --------------------------------------------------------------


def model_to_dict(model: RobotModel) -> dict:
    """Full round-trippable serialization (kinematics and parameters)."""
    return {
        "name": model.name,
        "gravity": model.gravity.tolist(),
        "links": [
            {
                "joint": {
                    "name": j.name,
                    "axis": j.axis.tolist(),
                    "rotation": j.parent_frame_pose.rotation.tolist(),
                    "translation": j.parent_frame_pose.translation.tolist(),
                    "position_limits": list(j.position_limits),
                    "velocity_limit": j.velocity_limit,
                    "acceleration_limit": j.acceleration_limit,
                },
                "params": p.to_vector().tolist(),
            }
            for j, p in model.links
        ],
    }


def model_from_dict(data: dict) -> RobotModel:
    links = []
    for entry in data["links"]:
        j = entry["joint"]
        joint = JointSpec(
            name=j["name"],
            axis=np.asarray(j["axis"], dtype=float),
            parent_frame_pose=Transform(
                np.asarray(j["rotation"], dtype=float),
                np.asarray(j["translation"], dtype=float),
            ),
            position_limits=tuple(j["position_limits"]),
            velocity_limit=j["velocity_limit"],
            acceleration_limit=j["acceleration_limit"],
        )
        params = LinkInertialParams.from_vector(np.asarray(entry["params"], dtype=float))
        links.append((joint, params))
    return RobotModel(
        links=tuple(links),
        gravity=np.asarray(data["gravity"], dtype=float),
        name=data["name"],
    )


def rigid_body_to_dict(p: LinkInertialParams) -> dict:
    """JSON-ready ``mass``, ``first_moment`` and ``rotational_inertia`` of ``p``."""
    return {
        "mass": p.mass,
        "first_moment": p.first_moment.tolist(),
        "rotational_inertia": p.rotational_inertia.tolist(),
    }


def rigid_body_from_dict(data: dict) -> LinkInertialParams:
    """Inverse of :func:`rigid_body_to_dict`; joint-side terms are zero."""
    return LinkInertialParams(data["mass"], data["first_moment"], data["rotational_inertia"])
