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

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
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


class ArmidError(Exception):
    """Base of every error armid raises: bad input or an unusable result. Any
    other exception out of armid is a bug."""


class ModelError(ArmidError):
    """Base error for robot model construction and parsing."""


class RobotDescriptionError(ModelError):
    """The robot description document cannot be parsed."""


class UnsupportedTopologyError(RobotDescriptionError):
    """The document describes a robot outside the supported serial-chain subset."""


class ValidationError(ModelError):
    """A structural or numeric invariant is violated."""


def check_number(value, name: str, error: type[ArmidError], positive: bool = False) -> float:
    """``value`` as a float if it is finite and >= 0, or > 0 with ``positive``, else
    ``error`` naming ``name`` and the value: the one rule for armid's numeric settings."""
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not (math.isfinite(number) and (number > 0.0 if positive else number >= 0.0)):
        raise error(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
    return number


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
        for key in ("velocity_limit", "acceleration_limit"):
            check_number(getattr(self, key), f"joint '{self.name}': {key}", ValidationError, True)


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


def is_physically_feasible(p: LinkInertialParams, tol: float = 1e-9) -> FeasibilityReport:
    """Check strict pseudo-inertia positive definiteness and nonnegative friction.

    Feasible iff ``min eig(J) > tol`` and all of ``mu_v, mu_c, I_r >= -tol``.
    The report carries the binding (smallest) margin.
    """
    check_number(tol, "tolerance", ValidationError)
    min_eig = float(np.linalg.eigvalsh(pseudo_inertia(p))[0])
    violations = {"pseudo_inertia": min_eig} if min_eig <= tol else {}
    for name in ("viscous_friction", "coulomb_friction", "rotor_inertia"):
        if getattr(p, name) < -tol:
            violations[name] = getattr(p, name)
    # When everything holds, the interesting slack is the eigenvalue margin
    # (frictions at exactly zero sit on the boundary but are allowed).
    binding = min(violations, key=violations.get, default="pseudo_inertia")
    return FeasibilityReport(
        feasible=not violations,
        pseudo_inertia_min_eig=min_eig,
        viscous_friction=p.viscous_friction,
        coulomb_friction=p.coulomb_friction,
        rotor_inertia=p.rotor_inertia,
        binding_constraint=binding,
        margin=violations.get(binding, min_eig),
    )


def combine_inertial(a: LinkInertialParams, b: LinkInertialParams) -> LinkInertialParams:
    """Lump two rigidly attached bodies expressed in the same frame.

    Mass, first moment, and origin-frame inertia are additive, as are the
    joint-side friction and rotor terms (payloads normally carry zeros there).
    """
    return LinkInertialParams.from_vector(a.to_vector() + b.to_vector())


def _parallel_axis_shift(mass: float, c: np.ndarray) -> np.ndarray:
    """Origin-frame inertia minus CoM-frame inertia of ``mass`` centered at ``c``."""
    return mass * (np.dot(c, c) * np.eye(3) - np.outer(c, c))


def inertia_about_com(p: LinkInertialParams) -> np.ndarray:
    """Rotational inertia re-expressed about the center of mass (mass must be > 0)."""
    if p.mass <= 0:
        raise ValidationError("center-of-mass inertia requires mass > 0")
    return p.rotational_inertia - _parallel_axis_shift(p.mass, p.first_moment / p.mass)


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
    return LinkInertialParams(
        mass=mass,
        first_moment=mass * c,
        rotational_inertia=0.5 * (inertia_com + inertia_com.T) + _parallel_axis_shift(mass, c),
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


def _numbers(element, name: str, context: str, default: str | None = None, count: int = 1):
    """Attribute ``name`` of ``element`` as ``count`` finite numbers, or as one
    float when ``count`` is 1. ``default`` is the text a missing attribute, or
    a missing (None) element, reads as; without one, a missing attribute is an
    error. Errors name ``context``, the element and the attribute."""
    raw = default if element is None else element.get(name, default)
    if raw is None:
        raise RobotDescriptionError(f"{context} <{element.tag}>: {name!r} is missing")
    try:
        values = [float(part) for part in raw.split()]
    except ValueError:
        values = []
    if len(values) != count or not all(map(math.isfinite, values)):
        what = "a finite number" if count == 1 else f"{count} finite numbers"
        raise RobotDescriptionError(f"{context} <{element.tag}>: {name!r} is not {what}: {raw!r}")
    return values[0] if count == 1 else values


def _origin_transform(element, context: str) -> Transform:
    origin = element.find("origin")
    if origin is None:
        return Transform.identity()
    xyz = _numbers(origin, "xyz", context, "0 0 0", 3)
    rpy = _numbers(origin, "rpy", context, "0 0 0", 3)
    return Transform.from_xyz_rpy(xyz, rpy)


def _parse_inertial(link_el, link_name: str) -> LinkInertialParams:
    context = f"link '{link_name}'"
    inertial = link_el.find("inertial")
    if inertial is None:
        raise ValidationError(f"{context} has no <inertial> block")
    mass_el = inertial.find("mass")
    inertia_el = inertial.find("inertia")
    if mass_el is None or inertia_el is None:
        raise ValidationError(f"{context}: <inertial> needs <mass> and <inertia>")
    mass = _numbers(mass_el, "value", context)
    ixx, ixy, ixz, iyy, iyz, izz = (
        _numbers(inertia_el, k, context) for k in ("ixx", "ixy", "ixz", "iyy", "iyz", "izz")
    )
    inertia_local = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
    # The file stores inertia about the CoM in the inertial frame; rotate into
    # link axes, then shift to the link origin.
    pose = _origin_transform(inertial, f"{context} <inertial>")
    inertia_com = pose.rotation @ inertia_local @ pose.rotation.T
    return params_from_com(mass, pose.translation, inertia_com)


def parse_robot_description(text: str, where="robot description") -> RobotModel:
    """Parse a URDF-subset document into a RobotModel.

    Supported subset: a single fixed-base serial chain of revolute joints,
    with required ``<limit>`` on every joint and ``<inertial>`` on every moving
    link. Optional extensions: ``acceleration`` attribute on ``<limit>``
    (default 10 rad/s^2), ``rotor_inertia`` on ``<dynamics>``, and a top-level
    ``<gravity xyz="..."/>`` element overriding (0, 0, -9.81). Every number
    must be finite. Each error is a :class:`ModelError` whose message starts
    with ``where``, the file the text came from.
    """
    try:
        return _robot_from_xml(text)
    except ModelError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _robot_from_xml(text: str) -> RobotModel:
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

    links: dict[str, ET.Element] = {}
    for el in root.findall("link"):
        link = el.get("name")
        if not link:
            raise RobotDescriptionError("a <link> has no name")
        if link in links:
            raise RobotDescriptionError(f"link '{link}' is declared twice")
        links[link] = el
    if not links:
        raise RobotDescriptionError("document declares no links")

    parent_joint: dict[str, str] = {}  # link -> name of the joint it hangs from
    child_joint: dict[str, tuple] = {}  # link -> (joint name, child link, element)
    for el in root.findall("joint"):
        jname = el.get("name", "<unnamed>")
        jtype = el.get("type")
        if jtype not in _SUPPORTED_JOINT_TYPES:
            raise UnsupportedTopologyError(
                f"joint '{jname}' has type '{jtype}'; only revolute joints are supported"
            )
        parent_el, child_el = el.find("parent"), el.find("child")
        if parent_el is None or child_el is None:
            raise RobotDescriptionError(f"joint '{jname}' needs <parent> and <child>")
        parent, child = parent_el.get("link"), child_el.get("link")
        for role, link in (("parent", parent), ("child", child)):
            if link not in links:
                raise RobotDescriptionError(f"joint '{jname}': unknown {role} link '{link}'")
        if child in parent_joint:
            raise UnsupportedTopologyError(f"link '{child}' has more than one parent joint")
        if parent in child_joint:
            raise UnsupportedTopologyError(
                f"link '{parent}' has more than one child joint; chains must not branch"
            )
        parent_joint[child] = jname
        child_joint[parent] = (jname, child, el)

    if not parent_joint:
        raise RobotDescriptionError("document declares no joints")
    roots = [n for n in links if n not in parent_joint]
    if len(roots) != 1:
        raise UnsupportedTopologyError(
            f"expected exactly one base link, found {sorted(roots)}"
        )

    chain = []
    current = roots[0]
    while current in child_joint:
        chain.append(child_joint[current])
        current = chain[-1][1]
    if len(chain) != len(parent_joint):
        raise UnsupportedTopologyError("joints do not form a single connected chain")

    model_links = []
    for jname, child, el in chain:
        context = f"joint '{jname}'"
        axis = np.array(_numbers(el.find("axis"), "xyz", context, "1 0 0", 3))
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValidationError(f"{context}: zero axis")
        axis = axis / norm
        limit = el.find("limit")
        if limit is None:
            raise ValidationError(f"{context} has no <limit> element")
        lower, upper, velocity = (
            _numbers(limit, k, context) for k in ("lower", "upper", "velocity")
        )
        joint = JointSpec(
            name=jname,
            axis=axis,
            parent_frame_pose=_origin_transform(el, context),
            position_limits=(lower, upper),
            velocity_limit=velocity,
            acceleration_limit=_numbers(limit, "acceleration", context, "10"),
        )
        params = _parse_inertial(links[child], child)
        dynamics = el.find("dynamics")
        if dynamics is not None:
            params = replace(
                params,
                viscous_friction=_numbers(dynamics, "damping", context, "0"),
                coulomb_friction=_numbers(dynamics, "friction", context, "0"),
                rotor_inertia=_numbers(dynamics, "rotor_inertia", context, "0"),
            )
        model_links.append((joint, params))

    gravity = np.array(_numbers(root.find("gravity"), "xyz", f"robot '{name}'", "0 0 -9.81", 3))

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


def read_text(path, error=ModelError) -> str:
    """The text of the file ``path``; a file that is not text raises ``error`` naming it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a text file ({exc.reason})") from None


def read_json(path, error=ModelError) -> dict:
    """The JSON object in the file ``path``; anything else raises ``error`` naming it."""
    try:
        data = json.loads(read_text(path, error))
    except ValueError as exc:  # a JSONDecodeError, or a number too long to read
        raise error(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise error(f"{path}: not a JSON object")
    return data


def float_rows(table: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as its comma-joined values.

    Each value is the ``repr`` of a Python float, the shortest decimal that
    reads back to the same 64-bit value.
    """
    # tolist() first: under numpy 2, repr(np.float64(x)) is 'np.float64(x)'.
    return [",".join(map(repr, row)) for row in table.tolist()]


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write ``header`` then ``rows``; every CSV table armid writes uses this.

    A float table comes as its rows formatted by :func:`float_rows` (a list
    of str). Those lines end in ``\\r\\n``: the bytes ``csv`` writes, made
    without its per-cell work. Any other ``rows`` go through ``csv``, which
    writes None as an empty cell and quotes text where needed. Like
    :func:`write_json`, it creates the directory it writes into.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if rows and isinstance(rows[0], str):
            fh.write("".join(line + "\r\n" for line in rows))
        else:
            writer.writerows(rows)


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys; every JSON
    artifact armid writes uses this, so field order never changes its bytes. The
    directory it writes into is created here, so a command that fails before its
    first artifact leaves no ``--out`` behind."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_hash(payload: dict) -> str:
    """SHA-256 of ``payload`` as compact sorted-key JSON: config and problem hashes."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


_REQUIRED = object()


def json_entry(spec, key: str, where, kind=None, error=ModelError, default=_REQUIRED):
    """``spec[key]`` of a JSON object read from ``where``. A ``kind`` that is a shape
    tuple (None leaves a length open) makes it a finite float array of that shape, or a
    float for ``()``; any other ``kind`` is the exact type of the entry (no 2.9, "2" or
    true for ``int``). A missing entry reads as ``default`` if one is given. Otherwise a
    missing entry, one of another type or shape, or a ``spec`` that is not a JSON object
    raises ``error`` naming ``where`` and ``key``."""
    if not isinstance(spec, dict):
        raise error(f"{where}: not a JSON object")
    if key not in spec:
        if default is _REQUIRED:
            raise error(f"{where}: no {key!r} entry")
        return default
    if not isinstance(kind, tuple):
        if kind is not None and type(spec[key]) is not kind:
            raise error(f"{where}: {key!r} must be a JSON {kind.__name__}, got {spec[key]!r}")
        return spec[key]
    try:
        array = np.asarray(spec[key], dtype=float)
    except (TypeError, ValueError, OverflowError):
        array = np.array(np.nan)
    if not np.all(np.isfinite(array)):
        raise error(f"{where}: {key!r} is not numeric")
    if array.ndim != len(kind) or any(k not in (None, s) for k, s in zip(kind, array.shape)):
        raise error(f"{where}: {key!r} has shape {array.shape}, expected {kind}")
    return float(array) if kind == () else array


def model_from_dict(data: dict, where="model") -> RobotModel:
    """Inverse of :func:`model_to_dict`; a missing or malformed entry, or one
    the model rejects, raises :class:`ModelError` naming ``where``."""
    links, at = [], where  # ``at``: the entry a constructor's error is about
    try:
        for i, entry in enumerate(json_entry(data, "links", where, list)):
            link_at = f"{where} links[{i}]"
            j, at = json_entry(entry, "joint", link_at), f"{link_at} joint"
            joint = JointSpec(
                name=json_entry(j, "name", at),
                axis=json_entry(j, "axis", at, (3,)),
                parent_frame_pose=Transform(
                    json_entry(j, "rotation", at, (3, 3)),
                    json_entry(j, "translation", at, (3,)),
                ),
                position_limits=json_entry(j, "position_limits", at, (2,)),
                velocity_limit=json_entry(j, "velocity_limit", at, ()),
                acceleration_limit=json_entry(j, "acceleration_limit", at, ()),
            )
            at = link_at
            params = json_entry(entry, "params", at, (PARAMS_PER_LINK,))
            links.append((joint, LinkInertialParams.from_vector(params)))
        at = where
        return RobotModel(
            links=tuple(links),
            gravity=json_entry(data, "gravity", where, (3,)),
            name=json_entry(data, "name", where),
        )
    except ValidationError as exc:  # json_entry's own errors already name the entry
        raise ValidationError(f"{at}: {exc}") from None


def rigid_body_to_dict(p: LinkInertialParams) -> dict:
    """JSON-ready ``mass``, ``first_moment`` and ``rotational_inertia`` of ``p``."""
    return {
        "mass": p.mass,
        "first_moment": p.first_moment.tolist(),
        "rotational_inertia": p.rotational_inertia.tolist(),
    }


def rigid_body_from_dict(data: dict, where="rigid body") -> LinkInertialParams:
    """Inverse of :func:`rigid_body_to_dict`; joint-side terms are zero. A
    missing or malformed entry raises :class:`ModelError` naming ``where``
    and the key."""
    entry = partial(json_entry, data, where=where)
    return LinkInertialParams(
        entry("mass", kind=()), entry("first_moment", kind=(3,)),
        entry("rotational_inertia", kind=(3, 3)),
    )
