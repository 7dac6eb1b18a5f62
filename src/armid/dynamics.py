"""Inverse dynamics and torque regressor for serial chains.

Joint torques follow the manipulator equations with viscous plus Coulomb
friction and reflected rotor inertia:

    tau = M(q) qdd + C(q, qd) qd - tau_g(q) + mu_v qd + mu_c sign(qd) + I_r qdd

computed by a recursive Newton-Euler pass. Because the torques are linear in
the 13 per-link dynamic parameters, the same pass run with unit basis
parameters yields the regressor matrix W with ``tau = W @ alpha`` exactly.

All core routines are batched over samples: ``q, qd, qdd`` have shape (S, N)
and everything is vectorized along the sample axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PARAMS_PER_LINK,
    RobotModel,
    ValidationError,
    num_params,
    pack_params,
)

# Width of the Coulomb friction smoothing, rad/s. The same smooth sign is used
# in simulation and in the regressor so the linear identity holds exactly.
SMOOTH_SIGN_EPS = 1e-3


def smooth_sign(qd: np.ndarray, eps: float = SMOOTH_SIGN_EPS) -> np.ndarray:
    return np.tanh(np.asarray(qd, dtype=float) / eps)


@dataclass(frozen=True)
class JointState:
    """One kinematic sample: positions, velocities, accelerations."""

    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray

    def __post_init__(self):
        for name in ("q", "qd", "qdd"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValidationError(f"{name} must be a 1-D vector")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if not (self.q.shape == self.qd.shape == self.qdd.shape):
            raise ValidationError("q, qd, qdd must have identical shapes")


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


def _joint_rotations(model: RobotModel, q: np.ndarray) -> list[np.ndarray]:
    """Per-link rotation child->parent, shape (S, 3, 3) each."""
    rotations = []
    for i, (joint, _) in enumerate(model.links):
        a = joint.axis
        theta = q[:, i]
        c = np.cos(theta)
        s = np.sin(theta)
        cc = 1.0 - c
        outer = np.outer(a, a)
        skew = np.array(
            [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
        )
        rj = (
            c[:, None, None] * np.eye(3)
            + s[:, None, None] * skew
            + cc[:, None, None] * outer
        )
        rotations.append(np.einsum("ij,sjk->sik", joint.parent_frame_pose.rotation, rj))
    return rotations


def _kinematic_pass(model: RobotModel, q, qd, qdd):
    """Propagate angular velocity/acceleration and origin acceleration per link.

    Quantities are expressed in each link's own frame. Gravity enters as a
    fictitious upward base acceleration, which makes a hanging equilibrium
    produce zero torque.
    """
    S = q.shape[0]
    rotations = _joint_rotations(model, q)
    omega = np.zeros((S, 3))
    alpha = np.zeros((S, 3))
    acc = np.broadcast_to(-model.gravity, (S, 3))
    omegas, alphas, accs = [], [], []
    for i, (joint, _) in enumerate(model.links):
        rt = np.swapaxes(rotations[i], 1, 2)  # parent -> child
        p = joint.parent_frame_pose.translation
        a = joint.axis
        omega_parent_local = np.einsum("sij,sj->si", rt, omega)
        acc_origin = acc + np.cross(alpha, np.broadcast_to(p, (S, 3))) + np.cross(
            omega, np.cross(omega, np.broadcast_to(p, (S, 3)))
        )
        acc = np.einsum("sij,sj->si", rt, acc_origin)
        alpha = (
            np.einsum("sij,sj->si", rt, alpha)
            + qdd[:, i : i + 1] * a
            + np.cross(omega_parent_local, qd[:, i : i + 1] * a)
        )
        omega = omega_parent_local + qd[:, i : i + 1] * a
        omegas.append(omega)
        alphas.append(alpha)
        accs.append(acc)
    return rotations, omegas, alphas, accs


def _link_wrench(mass, h, inertia, omega, alpha, acc):
    """Newton-Euler wrench about the link frame origin; linear in (m, h, I)."""
    force = mass * acc + np.cross(alpha, h) + np.cross(omega, np.cross(omega, h))
    torque = alpha @ inertia.T + np.cross(omega, omega @ inertia.T) + np.cross(h, acc)
    return force, torque


def _backward_pass(model, rotations, forces, torques):
    """Accumulate child wrenches down the chain and project onto joint axes."""
    n = model.num_joints
    S = forces[0].shape[0]
    tau = np.zeros((S, n))
    f_total = forces[n - 1]
    n_total = torques[n - 1]
    tau[:, n - 1] = n_total @ model.links[n - 1][0].axis
    for i in range(n - 2, -1, -1):
        r_child = rotations[i + 1]
        p_child = model.links[i + 1][0].parent_frame_pose.translation
        f_from_child = np.einsum("sij,sj->si", r_child, f_total)
        n_from_child = np.einsum("sij,sj->si", r_child, n_total) + np.cross(
            np.broadcast_to(p_child, (S, 3)), f_from_child
        )
        f_total = forces[i] + f_from_child
        n_total = torques[i] + n_from_child
        tau[:, i] = n_total @ model.links[i][0].axis
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


def inverse_dynamics(model: RobotModel, state: JointState) -> np.ndarray:
    """Joint torques for a single state."""
    if state.q.size != model.num_joints:
        raise ValidationError(
            f"state has {state.q.size} joints, model has {model.num_joints}"
        )
    return inverse_dynamics_batch(
        model, state.q[None, :], state.qd[None, :], state.qdd[None, :]
    )[0]


def regressor_batch(model: RobotModel, q, qd, qdd) -> np.ndarray:
    """Torque regressor for a batch of states, shape (S, N, 13N).

    Column k holds the inverse dynamics evaluated with the k-th unit basis
    parameter vector. The parameter-independent kinematic pass is shared
    across all basis sweeps; the wrench and backward propagation are rerun
    per basis parameter.
    """
    q, qd, qdd = _check_batch(model, q, qd, qdd)
    S = q.shape[0]
    n = model.num_joints
    total = num_params(model)
    rotations, omegas, alphas, accs = _kinematic_pass(model, q, qd, qdd)

    # Precompute child->ancestor wrench propagation per link.
    W = np.zeros((S, n, total))
    eye3 = np.eye(3)
    inertia_bases = []
    for r in range(3):
        for c in range(r, 3):
            basis = np.zeros((3, 3))
            basis[r, c] = 1.0
            basis[c, r] = 1.0
            inertia_bases.append(basis)

    for link in range(n):
        col0 = link * PARAMS_PER_LINK
        omega, alpha, acc = omegas[link], alphas[link], accs[link]
        basis_wrenches = []
        # mass
        basis_wrenches.append((acc, np.zeros((S, 3))))
        # first moment components
        for k in range(3):
            h = eye3[k]
            hb = np.broadcast_to(h, (S, 3))
            f = np.cross(alpha, hb) + np.cross(omega, np.cross(omega, hb))
            t = np.cross(hb, acc)
            basis_wrenches.append((f, t))
        # inertia components (symmetric basis matrices)
        for basis in inertia_bases:
            t = alpha @ basis.T + np.cross(omega, omega @ basis.T)
            basis_wrenches.append((np.zeros((S, 3)), t))

        for offset, (f, t) in enumerate(basis_wrenches):
            col = col0 + offset
            W[:, link, col] = t @ model.links[link][0].axis
            f_cur, n_cur = f, t
            for j in range(link - 1, -1, -1):
                r_child = rotations[j + 1]
                p_child = model.links[j + 1][0].parent_frame_pose.translation
                f_parent = np.einsum("sij,sj->si", r_child, f_cur)
                n_parent = np.einsum("sij,sj->si", r_child, n_cur) + np.cross(
                    np.broadcast_to(p_child, (S, 3)), f_parent
                )
                W[:, j, col] = n_parent @ model.links[j][0].axis
                f_cur, n_cur = f_parent, n_parent

        # friction and rotor columns act on their own joint only
        W[:, link, col0 + 10] = qd[:, link]
        W[:, link, col0 + 11] = smooth_sign(qd[:, link])
        W[:, link, col0 + 12] = qdd[:, link]
    return W


def regressor(model: RobotModel, state: JointState) -> np.ndarray:
    """Regressor for a single state, shape (N, 13N)."""
    if state.q.size != model.num_joints:
        raise ValidationError(
            f"state has {state.q.size} joints, model has {model.num_joints}"
        )
    return regressor_batch(
        model, state.q[None, :], state.qd[None, :], state.qdd[None, :]
    )[0]


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
    sample_count: int
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

    @property
    def num_links(self) -> int:
        if self.free_mask is None:
            raise ValidationError("synthetic stack has no link structure")
        return self.free_mask.size // PARAMS_PER_LINK

    def embed(self, alpha_free: np.ndarray) -> np.ndarray:
        """Expand a free-parameter vector to the full 13N layout."""
        if self.free_mask is None:
            return np.asarray(alpha_free, dtype=float)
        full = self.fixed_values.copy()
        full[self.free_mask] = alpha_free
        return full

    def residual_norm_sq(self, alpha_free: np.ndarray) -> float:
        r = self.W @ alpha_free + self.w0 - self.T
        return float(r @ r)


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
    W = W_full[:, free]
    w0 = W_full[:, mask] @ fixed[mask] if mask.any() else np.zeros(S * n)
    return RegressorStack(
        W=W,
        w0=w0,
        T=tau.reshape(-1),
        sample_count=S,
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
    rotations = _joint_rotations(model, q)
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


def energy(model: RobotModel, state: JointState) -> tuple[float, float]:
    """Kinetic and potential energy of the chain (friction and rotor ignored).

    Computed from the kinematic recursions and link poses, independently of
    the torque recursion, so it can serve as a power-balance cross-check.
    """
    q = state.q[None, :]
    qd = state.qd[None, :]
    S = 1
    rotations = _joint_rotations(model, q)
    omega = np.zeros((S, 3))
    vel = np.zeros((S, 3))
    kinetic = 0.0
    for i, (joint, params) in enumerate(model.links):
        rt = np.swapaxes(rotations[i], 1, 2)
        p = joint.parent_frame_pose.translation
        vel = np.einsum("sij,sj->si", rt, vel + np.cross(omega, np.broadcast_to(p, (S, 3))))
        omega = np.einsum("sij,sj->si", rt, omega) + qd[:, i : i + 1] * joint.axis
        v = vel[0]
        w = omega[0]
        kinetic += (
            0.5 * params.mass * float(v @ v)
            + float(v @ np.cross(w, params.first_moment))
            + 0.5 * float(w @ params.rotational_inertia @ w)
        )
    R, p = forward_kinematics(model, q)
    potential = 0.0
    for i, (_, params) in enumerate(model.links):
        com_world = p[0, i] + R[0, i] @ params.first_moment
        # first_moment = m * com, so this is m * g . com without dividing by m
        potential -= float(model.gravity @ com_world)
    return kinetic, potential


def verify_regressor_identity(model: RobotModel, q, qd, qdd, tol: float = 1e-9) -> float:
    """Max |W alpha - tau| over the given states; raises if above tol."""
    W = regressor_batch(model, q, qd, qdd)
    tau = inverse_dynamics_batch(model, q, qd, qdd)
    worst = float(np.max(np.abs(W @ pack_params(model) - tau)))
    if worst > tol:
        raise ValidationError(f"regressor identity violated: {worst:.3e} > {tol:.1e}")
    return worst
