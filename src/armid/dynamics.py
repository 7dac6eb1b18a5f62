"""Inverse dynamics and torque regressor for serial chains.

Joint torques follow the manipulator equations with viscous plus Coulomb
friction and reflected rotor inertia:

    tau = M(q) qdd + C(q, qd) qd - tau_g(q) + mu_v qd + mu_c sign(qd) + I_r qdd

computed by a recursive Newton-Euler pass. The torques are linear in the 13
per-link dynamic parameters, ``tau = W @ alpha``; :func:`regressor_batch`
builds W in closed form from the same kinematic pass, and the Newton-Euler
torques are the independent check on it.

All core routines are batched over samples: ``q, qd, qdd`` have shape (S, N),
and a single (N,) state counts as S = 1.
Inside, vectors are (3, S) arrays and rotations (3, 3, S), so each numpy call
works on whole rows of samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    COULOMB_INDEX,
    FIRST_MOMENT_SLICE,
    INERTIA_SLICE,
    INERTIAL_PARAMS_PER_LINK,
    MASS_INDEX,
    PARAMS_PER_LINK,
    ROTOR_INDEX,
    VISCOUS_INDEX,
    RobotModel,
    ValidationError,
    num_params,
)

# Width of the Coulomb friction smoothing, rad/s. The same smooth sign is used
# in simulation and in the regressor so the linear identity holds exactly.
SMOOTH_SIGN_EPS = 1e-3


def smooth_sign(qd: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(qd, dtype=float) / SMOOTH_SIGN_EPS)


def _check_batch(model: RobotModel, q, qd, qdd):
    q = np.atleast_2d(np.asarray(q, dtype=float))
    qd = np.atleast_2d(np.asarray(qd, dtype=float))
    qdd = np.atleast_2d(np.asarray(qdd, dtype=float))
    n = model.num_joints
    if q.shape[1] != n or q.shape != qd.shape or q.shape != qdd.shape:
        raise ValidationError(
            f"state batch shapes {q.shape}/{qd.shape}/{qdd.shape} do not match N={n}"
        )
    for name, arr in (("q", q), ("qd", qd), ("qdd", qdd)):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite entries")
    return q, qd, qdd


def _cross(a, b):
    """a x b per component, for (3, ...) arrays that broadcast against each other."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _skew(p):
    """[p]x, so that [p]x b = p x b; shape (3, 3) for a 3-vector, (3, 3, S) for (3, S)."""
    zero = np.zeros_like(p[0])
    return np.array([[zero, -p[2], p[1]], [p[2], zero, -p[0]], [-p[1], p[0], zero]])


def _inertia_map(x):
    """L(x), shape (3, 6, S): L(x) (Ixx, Ixy, Ixz, Iyy, Iyz, Izz) = I x."""
    x0, x1, x2 = x
    z = np.zeros_like(x0)
    return np.array([[x0, x1, x2, z, z, z], [z, x0, z, x1, x2, z], [z, z, x0, z, x1, x2]])


def _mul(M, x):
    """M x per sample, for M of shape (m, c) or (m, c, S) and x of (c, S) or (c, J, S)."""
    return np.einsum("ic...,c...->i...", M, x)


def _mul_t(M, x):
    """M^T x per sample, for M of shape (c, m) or (c, m, S) and x as in :func:`_mul`."""
    return np.einsum("ci...,c...->i...", M, x)


def _joint_rotations(model: RobotModel, q: np.ndarray) -> list[np.ndarray]:
    """Per-link rotation child->parent, shape (3, 3, S) each.

    R0 Rodrigues(a, theta) = R0 a a^T + cos(theta) (R0 - R0 a a^T) + sin(theta) R0 [a]x.
    """
    cos = np.cos(q.T)
    sin = np.sin(q.T)
    rotations = []
    for i, (joint, _) in enumerate(model.links):
        r0 = joint.parent_frame_pose.rotation
        along = r0 @ np.outer(joint.axis, joint.axis)
        rotations.append(
            along[..., None]
            + (r0 - along)[..., None] * cos[i]
            + (r0 @ _skew(joint.axis))[..., None] * sin[i]
        )
    return rotations


def _kinematic_pass(model: RobotModel, q, qd, qdd):
    """Propagate angular velocity/acceleration and origin acceleration per link.

    Quantities are expressed in each link's own frame as (3, S) arrays, and
    rotations as (3, 3, S). Gravity enters as a fictitious upward base
    acceleration, which makes a hanging equilibrium produce zero torque.
    """
    S = q.shape[0]
    rotations = _joint_rotations(model, q)
    qd_t, qdd_t = qd.T, qdd.T
    omega = np.zeros((3, S))
    alpha = np.zeros((3, S))
    acc = np.broadcast_to(-model.gravity[:, None], (3, S))
    omegas, alphas, accs = [], [], []
    for i, (joint, _) in enumerate(model.links):
        R = rotations[i]
        skew_p = _skew(joint.parent_frame_pose.translation)
        a = joint.axis[:, None]
        # acc + alpha x p + omega x (omega x p), then into the child frame
        acc = _mul_t(R, acc - skew_p @ alpha - _cross(omega, skew_p @ omega))
        omega_parent_local = _mul_t(R, omega)
        alpha = (
            _mul_t(R, alpha)
            + qdd_t[i] * a
            - qd_t[i] * (_skew(joint.axis) @ omega_parent_local)
        )
        omega = omega_parent_local + qd_t[i] * a
        omegas.append(omega)
        alphas.append(alpha)
        accs.append(acc)
    return rotations, omegas, alphas, accs


def _link_wrench(mass, h, inertia, omega, alpha, acc):
    """Newton-Euler wrench about the link frame origin; linear in (m, h, I)."""
    force = mass * acc + _cross(alpha, h) + _cross(omega, _cross(omega, h))
    torque = inertia @ alpha + _cross(omega, inertia @ omega) + _cross(h, acc)
    return force, torque


def _backward_pass(model, rotations, forces, torques):
    """Accumulate child wrenches down the chain and project onto joint axes."""
    n = model.num_joints
    tau = np.empty((forces[0].shape[1], n))
    f_total = forces[n - 1]
    n_total = torques[n - 1]
    tau[:, n - 1] = model.links[n - 1][0].axis @ n_total
    for i in range(n - 2, -1, -1):
        f_from_child = _mul(rotations[i + 1], f_total)
        skew_p = _skew(model.links[i + 1][0].parent_frame_pose.translation)
        n_total = torques[i] + _mul(rotations[i + 1], n_total) + skew_p @ f_from_child
        f_total = forces[i] + f_from_child
        tau[:, i] = model.links[i][0].axis @ n_total
    return tau


def inverse_dynamics_batch(model: RobotModel, q, qd, qdd) -> np.ndarray:
    """Joint torques for a batch of states; shape (S, N)."""
    q, qd, qdd = _check_batch(model, q, qd, qdd)
    rotations, omegas, alphas, accs = _kinematic_pass(model, q, qd, qdd)
    forces, torques = [], []
    for i, (_, params) in enumerate(model.links):
        f, t = _link_wrench(
            params.mass, params.first_moment, params.rotational_inertia,
            omegas[i], alphas[i], accs[i],
        )
        forces.append(f)
        torques.append(t)
    tau = _backward_pass(model, rotations, forces, torques)
    for i, (_, params) in enumerate(model.links):
        tau[:, i] += (
            params.viscous_friction * qd[:, i]
            + params.coulomb_friction * smooth_sign(qd[:, i])
            + params.rotor_inertia * qdd[:, i]
        )
    return tau


def regressor_batch(model: RobotModel, q, qd, qdd) -> np.ndarray:
    """Torque regressor for a batch of states, shape (S, N, 13N).

    Closed form Y_jk = z_j^T X_{j<-k} A_k (Atkeson, An & Hollerbach 1986). In
    link k's frame, with angular velocity w, angular acceleration al and
    origin acceleration a (gravity included), the wrench of its 10 inertial
    parameters (m, h, I) is

        force  = [a, [al]x + [w]x^2, 0]
        torque = [0, -[a]x, L(al) + [w]x L(w)],   L(v) I_vec = I v.

    The torque at an ancestor joint j <= k is u^T torque + v^T force, where
    (u, v) is joint j's axis carried out to frame k: it starts as (z_j, 0)
    and, per step into a child frame with rotation R and origin p,
    becomes (R^T u, R^T (v + u x p)). Joints past link k see none of its
    parameters, so those entries stay 0.
    """
    q, qd, qdd = _check_batch(model, q, qd, qdd)
    S = q.shape[0]
    n = model.num_joints
    rotations, omegas, alphas, accs = _kinematic_pass(model, q, qd, qdd)
    # Parameter-major memory, so the (S*N, 13N) stack that stack_regressor
    # reshapes from it is a column-major view, not a copy. A masked column
    # selection is column-major too, so both stack paths round alike in BLAS.
    W = np.zeros((num_params(model), S, n)).transpose(1, 2, 0)
    u = np.empty((3, 0, S))
    v = np.empty((3, 0, S))
    eye = np.eye(3)[..., None]
    for k, (joint, _) in enumerate(model.links):
        if k:
            # u x p = -[p]x u
            v = _mul_t(rotations[k], v - _mul(_skew(joint.parent_frame_pose.translation), u))
            u = _mul_t(rotations[k], u)
        u = np.concatenate([u, np.broadcast_to(joint.axis[:, None, None], (3, 1, S))], axis=1)
        v = np.concatenate([v, np.zeros((3, 1, S))], axis=1)
        w, al, a = omegas[k], alphas[k], accs[k]
        force_h = _skew(al) + w[:, None] * w - eye * (w * w).sum(axis=0)  # [al]x + [w]x^2
        torque_inertia = _inertia_map(al) + _cross(w, _inertia_map(w))  # L(al) + [w]x L(w)
        col0 = k * PARAMS_PER_LINK
        block = W[:, : k + 1, col0 : col0 + INERTIAL_PARAMS_PER_LINK].T  # a view, (10, k + 1, S)
        block[MASS_INDEX] = (v * a[:, None]).sum(axis=0)
        block[FIRST_MOMENT_SLICE] = _mul_t(force_h, v) - _mul_t(_skew(a), u)
        block[INERTIA_SLICE] = _mul_t(torque_inertia, u)
        W[:, k, col0 + VISCOUS_INDEX] = qd[:, k]
        W[:, k, col0 + COULOMB_INDEX] = smooth_sign(qd[:, k])
        W[:, k, col0 + ROTOR_INDEX] = qdd[:, k]
    return W


@dataclass(frozen=True)
class RegressorStack:
    """Stacked regressor rows over S samples.

    ``W`` holds columns for free parameters only; contributions of parameters
    held fixed are folded into the offset ``w0`` so that the measurement model
    is ``T = W @ alpha_free + w0``. ``free_mask`` maps the retained columns
    back into the full 13N layout (None for synthetic stacks built directly
    from matrices).
    """

    W: np.ndarray
    w0: np.ndarray
    T: np.ndarray
    free_mask: np.ndarray | None = None
    fixed_values: np.ndarray | None = None

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        w0 = np.asarray(self.w0, dtype=float)
        T = np.asarray(self.T, dtype=float)
        if W.ndim != 2 or w0.shape != (W.shape[0],) or T.shape != (W.shape[0],):
            raise ValidationError("W, w0, T row counts disagree")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "T", T)
        if self.free_mask is not None:
            mask = np.asarray(self.free_mask, dtype=bool)
            if int(mask.sum()) != W.shape[1]:
                raise ValidationError("free_mask does not match W column count")
            object.__setattr__(self, "free_mask", mask)
            fixed = (
                np.zeros(mask.size)
                if self.fixed_values is None
                else np.asarray(self.fixed_values, dtype=float)
            )
            if fixed.shape != mask.shape:
                raise ValidationError("fixed_values length does not match free_mask")
            object.__setattr__(self, "fixed_values", fixed)


def stack_regressor(
    model: RobotModel,
    q,
    qd,
    qdd,
    tau,
    fixed_mask: np.ndarray | None = None,
    fixed_values: np.ndarray | None = None,
) -> RegressorStack:
    """Stack measured samples into the linear system ``T = W alpha + w0``.

    Args:
        q, qd, qdd: kinematic samples, each (S, N).
        tau: measured joint torques aligned with them, (S, N).
        fixed_mask: 13N booleans; True marks parameters held at fixed_values,
            whose torque contribution moves into w0.
        fixed_values: values for the masked parameters (ignored elsewhere).
    """
    tau = np.asarray(tau, dtype=float)
    if tau.size == 0:
        raise ValidationError("empty sample list")
    if tau.shape != np.shape(q):
        raise ValidationError(f"torque shape {tau.shape} does not match states {np.shape(q)}")
    n = model.num_joints
    total = num_params(model)
    W_full = regressor_batch(model, q, qd, qdd).reshape(-1, total)
    S = W_full.shape[0] // n
    if fixed_mask is None:
        mask = np.zeros(total, dtype=bool)
        fixed = np.zeros(total)
    else:
        mask = np.asarray(fixed_mask, dtype=bool)
        if mask.shape != (total,):
            raise ValidationError(f"fixed_mask must have {total} entries")
        if fixed_values is None:
            raise ValidationError("fixed_mask given without fixed_values")
        fixed = np.asarray(fixed_values, dtype=float).copy()
        if fixed.shape != (total,):
            raise ValidationError(f"fixed_values must have {total} entries")
        if not np.all(np.isfinite(fixed[mask])):
            raise ValidationError("fixed_values must be finite where masked")
    fixed[~mask] = 0.0

    free = ~mask
    # Selecting all columns by mask would still copy the whole regressor.
    W = W_full if fixed_mask is None else W_full[:, free]
    w0 = W_full[:, mask] @ fixed[mask] if mask.any() else np.zeros(S * n)
    return RegressorStack(
        W=W,
        w0=w0,
        T=tau.reshape(-1),
        free_mask=free,
        fixed_values=fixed,
    )


# --- kinematics helpers (used by collision checks and energy tests) -------------


def forward_kinematics(model: RobotModel, q) -> tuple[np.ndarray, np.ndarray]:
    """World pose of every link frame for a batch of configurations.

    Returns rotations (S, N, 3, 3) and origins (S, N, 3).
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    S = q.shape[0]
    n = model.num_joints
    rotations = [r.transpose(2, 0, 1) for r in _joint_rotations(model, q)]
    R = np.empty((S, n, 3, 3))
    p = np.empty((S, n, 3))
    R_acc = np.broadcast_to(np.eye(3), (S, 3, 3))
    p_acc = np.zeros((S, 3))
    for i, (joint, _) in enumerate(model.links):
        p_acc = p_acc + np.einsum(
            "sij,j->si", R_acc, joint.parent_frame_pose.translation
        )
        R_acc = np.einsum("sij,sjk->sik", R_acc, rotations[i])
        R[:, i] = R_acc
        p[:, i] = p_acc
    return R, p


def energy(model: RobotModel, q, qd) -> tuple[float, float]:
    """Kinetic and potential energy of the chain at one state (friction and
    rotor ignored); ``q`` and ``qd`` have shape (N,).

    Computed from the kinematic recursions and link poses, independently of
    the torque recursion, so it can serve as a power-balance cross-check.
    """
    q = np.asarray(q, dtype=float)[None, :]
    rotations = _joint_rotations(model, q)
    omega = np.zeros(3)
    vel = np.zeros(3)
    kinetic = 0.0
    for i, (joint, params) in enumerate(model.links):
        rt = rotations[i][:, :, 0].T
        vel = rt @ (vel + _cross(omega, joint.parent_frame_pose.translation))
        omega = rt @ omega + qd[i] * joint.axis
        kinetic += (
            0.5 * params.mass * float(vel @ vel)
            + float(vel @ _cross(omega, params.first_moment))
            + 0.5 * float(omega @ params.rotational_inertia @ omega)
        )
    R, p = forward_kinematics(model, q)
    potential = 0.0
    for i, (_, params) in enumerate(model.links):
        # m * com in world coordinates: m p + R h, as first_moment h = m * com
        mass_com = params.mass * p[0, i] + R[0, i] @ params.first_moment
        potential -= float(model.gravity @ mass_com)
    return kinetic, potential

