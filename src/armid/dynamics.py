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
works on whole rows of samples. Every product is elementwise arithmetic in a
fixed order, never a BLAS or einsum reduction, whose rounding may depend on
the batch's size and memory layout: a sample gets the same bits alone as in
any batch.
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
    pack_params,
)

# Width of the Coulomb friction smoothing, rad/s. The same smooth sign is used
# in simulation and in the regressor so the linear identity holds exactly.
SMOOTH_SIGN_EPS = 1e-3


def smooth_sign(qd: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(qd, dtype=float) / SMOOTH_SIGN_EPS)


def _check_batch(model: RobotModel, q, qd, qdd):
    q, qd, qdd = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (q, qd, qdd))
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
    a = np.concatenate([a, a[:2]])  # a[1:4] is (a1, a2, a0), a[2:] is (a2, a0, a1)
    b = np.concatenate([b, b[:2]])
    return a[1:4] * b[2:] - a[2:] * b[1:4]


def _inertia_map_t(x, y):
    """L(x)^T y, for L(x) (Ixx, Ixy, Ixz, Iyy, Iyz, Izz) = I x; shaped like y's components."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return np.array(
        [x0 * y0, x1 * y0 + x0 * y1, x2 * y0 + x0 * y2, x1 * y1, x2 * y1 + x1 * y2, x2 * y2]
    )


def _mul_t(M, x):
    """M^T x per sample, for M of shape (3, m, S) and x of (3, S) or (3, J, S)."""
    terms = (M if x.ndim == 2 else M[:, :, None]) * x[:, None]
    return terms[0] + terms[1] + terms[2]


def _mul(M, x):
    """M x per sample, for M of shape (m, 3, S) and x as in :func:`_mul_t`."""
    return _mul_t(M.swapaxes(0, 1), x)


def _dot(a, b):
    """a . b per sample, for (3, ...) arrays that broadcast against each other."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _joint_frames(model: RobotModel) -> tuple[np.ndarray, np.ndarray]:
    """Every joint's axis and parent-frame offset, as (N, 3, 1) columns."""
    joints = model.joint_specs
    return (
        np.array([j.axis for j in joints])[..., None],
        np.array([j.parent_frame_pose.translation for j in joints])[..., None],
    )


def _joint_rotations(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Rotation child->parent of every link, shape (N, 3, 3, S).

    R0 Rodrigues(a, theta) = R0 a a^T + cos(theta) (R0 - R0 a a^T) + sin(theta) R0 [a]x,
    with the three constant terms built for all links at once.
    """
    axes = np.array([j.axis for j in model.joint_specs])
    r0 = np.array([j.parent_frame_pose.rotation for j in model.joint_specs])
    along = r0 @ (axes[:, :, None] * axes[:, None, :])
    turn = r0 @ _cross(axes.T[..., None], np.eye(3)[:, None]).swapaxes(0, 1)  # R0 [a]x
    cos = np.cos(q.T)[:, None, None]
    sin = np.sin(q.T)[:, None, None]
    return along[..., None] + (r0 - along)[..., None] * cos + turn[..., None] * sin


def _kinematic_pass(model: RobotModel, frames, q, qd, qdd):
    """Propagate angular velocity/acceleration and origin acceleration per link.

    Quantities are expressed in each link's own frame as (3, S) arrays, and
    rotations as (3, 3, S). Gravity enters as a fictitious upward base
    acceleration, which makes a hanging equilibrium produce zero torque.
    """
    S = q.shape[0]
    rotations = _joint_rotations(model, q)
    qd_t, qdd_t = qd.T, qdd.T
    omega = alpha = np.zeros((3, S))
    acc = np.broadcast_to(-model.gravity[:, None], (3, S))
    states = []
    for i, (R, a, p) in enumerate(zip(rotations, *frames)):
        # acc + alpha x p + omega x (omega x p), then into the child frame
        acc = _mul_t(R, acc - _cross(p, alpha) - _cross(omega, _cross(p, omega)))
        omega_parent_local = _mul_t(R, omega)
        alpha = _mul_t(R, alpha) + qdd_t[i] * a - qd_t[i] * _cross(a, omega_parent_local)
        omega = omega_parent_local + qd_t[i] * a
        states.append((omega, alpha, acc))
    return rotations, *zip(*states)


def _link_wrench(params, omega, alpha, acc):
    """Newton-Euler wrench about the link frame origin; linear in (m, h, I)."""
    h, inertia = params.first_moment[:, None], params.rotational_inertia[..., None]
    force = params.mass * acc + _cross(alpha, h) + _cross(omega, _cross(omega, h))
    torque = _mul(inertia, alpha) + _cross(omega, _mul(inertia, omega)) + _cross(h, acc)
    return force, torque


def _backward_pass(frames, rotations, forces, torques):
    """Accumulate child wrenches down the chain and project onto joint axes."""
    axes, offsets = frames
    n = len(axes)
    tau = np.empty((forces[0].shape[1], n))
    f_total = forces[n - 1]
    n_total = torques[n - 1]
    tau[:, n - 1] = _dot(axes[n - 1], n_total)
    for i in range(n - 2, -1, -1):
        f_from_child = _mul(rotations[i + 1], f_total)
        n_total = (
            torques[i] + _mul(rotations[i + 1], n_total) + _cross(offsets[i + 1], f_from_child)
        )
        f_total = forces[i] + f_from_child
        tau[:, i] = _dot(axes[i], n_total)
    return tau


def inverse_dynamics_batch(model: RobotModel, q, qd, qdd) -> np.ndarray:
    """Joint torques for a batch of states; shape (S, N)."""
    q, qd, qdd = _check_batch(model, q, qd, qdd)
    frames = _joint_frames(model)
    rotations, omegas, alphas, accs = _kinematic_pass(model, frames, q, qd, qdd)
    wrenches = [_link_wrench(p, *s) for p, *s in zip(model.inertial_params, omegas, alphas, accs)]
    tau = _backward_pass(frames, rotations, *zip(*wrenches))
    joint_side = pack_params(model).reshape(-1, PARAMS_PER_LINK)
    viscous, coulomb, rotor = joint_side[:, [VISCOUS_INDEX, COULOMB_INDEX, ROTOR_INDEX]].T
    return tau + (viscous * qd + coulomb * smooth_sign(qd) + rotor * qdd)


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
    axes, offsets = frames = _joint_frames(model)
    rotations, omegas, alphas, accs = _kinematic_pass(model, frames, q, qd, qdd)
    # Parameter-major memory, so the (S*N, 13N) stack that ModelStack
    # reshapes from it is a column-major view, not a copy.
    W = np.zeros((num_params(model), S, n)).transpose(1, 2, 0)
    u = v = np.empty((3, 0, S))
    for k in range(n):
        if k:
            v = _mul_t(rotations[k], v - _cross(offsets[k][:, None], u))
            u = _mul_t(rotations[k], u)
        u = np.concatenate([u, np.broadcast_to(axes[k][..., None], (3, 1, S))], axis=1)
        v = np.concatenate([v, np.zeros((3, 1, S))], axis=1)
        w, al, a = omegas[k][:, None], alphas[k][:, None], accs[k][:, None]  # (3, 1, S)
        col0 = k * PARAMS_PER_LINK
        block = W[:, : k + 1, col0 : col0 + INERTIAL_PARAMS_PER_LINK].T  # a view, (10, k + 1, S)
        block[MASS_INDEX] = _dot(v, a)
        # ([al]x + [w]x^2)^T v - [a]x^T u = v x al + w x (w x v) + a x u
        block[FIRST_MOMENT_SLICE] = _cross(v, al) + _cross(w, _cross(w, v)) + _cross(a, u)
        # (L(al) + [w]x L(w))^T u = L(al)^T u + L(w)^T (u x w)
        block[INERTIA_SLICE] = _inertia_map_t(al, u) + _inertia_map_t(w, _cross(u, w))
        W[:, k, col0 + VISCOUS_INDEX] = qd[:, k]
        W[:, k, col0 + COULOMB_INDEX] = smooth_sign(qd[:, k])
        W[:, k, col0 + ROTOR_INDEX] = qdd[:, k]
    return W


@dataclass(frozen=True)
class RegressorStack:
    """Stacked regressor rows over S samples, held as matrices.

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
            fixed = np.zeros(mask.size) if self.fixed_values is None else self.fixed_values
            fixed = np.asarray(fixed, dtype=float)
            if fixed.shape != mask.shape:
                raise ValidationError("fixed_values length does not match free_mask")
            object.__setattr__(self, "fixed_values", fixed)

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, free parameters) of ``W``."""
        return self.W.shape

    def rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows [start, stop) of ``W`` and of ``T - w0``."""
        return self.W[start:stop], self.T[start:stop] - self.w0[start:stop]

    def materialize(self) -> RegressorStack:
        """The stack itself: its rows are already held."""
        return self


@dataclass(frozen=True)
class ModelStack:
    """The stack of :func:`stack_regressor`, held as its samples, not its rows.

    It answers :meth:`rows` as a :class:`RegressorStack` does, but evaluates
    the regressor on the samples that cover the requested rows only, so a pass
    over the stack a block at a time never holds more than one block.
    :meth:`materialize` builds the whole matrix stack, for inspection.
    """

    model: RobotModel
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    T: np.ndarray
    free_mask: np.ndarray
    fixed_values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.T.size, int(self.free_mask.sum())

    def _rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows [start, stop) of ``W`` and ``w0``, from the samples that cover them."""
        n = self.model.num_joints
        first = start // n
        samples = slice(first, -(-stop // n))
        W = regressor_batch(self.model, self.q[samples], self.qd[samples], self.qdd[samples])
        W = W.reshape(-1, self.free_mask.size)[start - first * n : stop - first * n]
        fixed = np.flatnonzero(~self.free_mask)
        # One fixed column at a time, so a row's bits do not depend on its block.
        w0 = sum((W[:, c] * self.fixed_values[c] for c in fixed), np.zeros(len(W)))
        # Selecting all columns by mask would still copy every row.
        return (W[:, self.free_mask] if fixed.size else W), w0

    def rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows [start, stop) of ``W`` and of ``T - w0``."""
        W, w0 = self._rows(start, stop)
        return W, self.T[start:stop] - w0

    def materialize(self) -> RegressorStack:
        """Every row at once, as a matrix stack with the same bits."""
        W, w0 = self._rows(0, self.T.size)
        return RegressorStack(W, w0, self.T, self.free_mask, self.fixed_values)


def stack_regressor(
    model: RobotModel,
    q,
    qd,
    qdd,
    tau,
    fixed_mask: np.ndarray | None = None,
    fixed_values: np.ndarray | None = None,
) -> ModelStack:
    """Stack measured samples into the linear system ``T = W alpha + w0``.

    The regressor is not evaluated here: the stack keeps the samples, and
    :meth:`ModelStack.rows` builds rows on demand.

    Args:
        q, qd, qdd: kinematic samples, each (S, N).
        tau: measured joint torques aligned with them, (S, N).
        fixed_mask: 13N booleans; True marks parameters held at fixed_values,
            whose torque contribution moves into w0.
        fixed_values: 13N finite values, kept whole; only the masked ones
            enter w0.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.size == 0:
        raise ValidationError("empty sample list")
    if tau.shape != np.shape(q):
        raise ValidationError(f"torque shape {tau.shape} does not match states {np.shape(q)}")
    q, qd, qdd = _check_batch(model, q, qd, qdd)
    if not np.all(np.isfinite(tau)):
        raise ValidationError("tau contains non-finite entries")
    total = num_params(model)
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
        if not np.all(np.isfinite(fixed)):
            raise ValidationError("fixed_values must be finite")
    return ModelStack(model, q, qd, qdd, T=tau.reshape(-1), free_mask=~mask, fixed_values=fixed)


# --- kinematics helpers (used by collision checks and energy tests) -------------


def forward_kinematics(model: RobotModel, q) -> tuple[np.ndarray, np.ndarray]:
    """World pose of every link frame for a batch of configurations.

    Returns rotations (S, N, 3, 3) and origins (S, N, 3).
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    rotations = _joint_rotations(model, q).transpose(0, 3, 1, 2)  # (N, S, 3, 3)
    R_acc = np.broadcast_to(np.eye(3), (q.shape[0], 3, 3))
    p_acc = np.zeros((q.shape[0], 3))
    Rs, ps = [], []
    for R_joint, p_joint in zip(rotations, _joint_frames(model)[1][..., 0]):
        p_acc = p_acc + np.einsum("sij,j->si", R_acc, p_joint)
        R_acc = np.einsum("sij,sjk->sik", R_acc, R_joint)
        Rs.append(R_acc)
        ps.append(p_acc)
    return np.stack(Rs, axis=1), np.stack(ps, axis=1)


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

