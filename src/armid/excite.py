"""Excitation trajectory design.

Joint trajectories are finite Fourier series whose coefficients are chosen to
maximize the information content of the stacked torque regressor, balancing
the condition number of W^T W against its smallest eigenvalue (E-optimality),
subject to joint limits, rest-to-rest boundary conditions, and sphere-based
collision avoidance.

The eigenvalue objective is noisy terrain for gradient methods, so the
constrained program is solved by an augmented Lagrangian outer loop whose
subproblems are minimized by a derivative-free direct search (Nelder-Mead
with seeded random restarts). Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import forward_kinematics, regressor_batch
from .identify import identifiable_subspace
from .model import RobotModel, model_to_dict
from .signals import _write_csv


class ExciteError(Exception):
    """Raised for invalid trajectories or design setups."""


@dataclass(frozen=True)
class FourierTrajectory:
    """Finite Fourier series per joint with analytic derivatives.

    Position of joint i:
        q_i(t) = q0_i + sum_l [ a_il sin(w l t) - b_il cos(w l t) ] / (w l)
    so the coefficients a, b carry velocity units and
        qd_i(t)  = sum_l [ a_il cos(w l t) + b_il sin(w l t) ]
        qdd_i(t) = sum_l [ -a_il w l sin(w l t) + b_il w l cos(w l t) ].
    """

    base_frequency: float
    harmonics: int
    offsets: np.ndarray
    sine_coeffs: np.ndarray
    cosine_coeffs: np.ndarray
    duration: float | None = None

    def __post_init__(self):
        if not self.base_frequency > 0:
            raise ExciteError("base frequency must be > 0")
        if self.harmonics < 1:
            raise ExciteError("need at least one harmonic")
        q0 = np.asarray(self.offsets, dtype=float)
        a = np.asarray(self.sine_coeffs, dtype=float)
        b = np.asarray(self.cosine_coeffs, dtype=float)
        n = q0.size
        if a.shape != (n, self.harmonics) or b.shape != (n, self.harmonics):
            raise ExciteError(
                f"coefficient shapes {a.shape}/{b.shape} do not match "
                f"({n}, {self.harmonics})"
            )
        object.__setattr__(self, "offsets", q0)
        object.__setattr__(self, "sine_coeffs", a)
        object.__setattr__(self, "cosine_coeffs", b)
        if self.duration is None:
            object.__setattr__(self, "duration", 2.0 * math.pi / self.base_frequency)

    @property
    def num_joints(self) -> int:
        return self.offsets.size


def fourier_eval(traj: FourierTrajectory, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, velocities, accelerations at time(s) t within [0, duration]."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < -1e-12) or np.any(t_arr > traj.duration + 1e-12):
        raise ExciteError(f"time outside [0, {traj.duration}]")
    w = traj.base_frequency
    ls = np.arange(1, traj.harmonics + 1)
    wl = w * ls
    phase = np.outer(t_arr, wl)
    s = np.sin(phase)
    c = np.cos(phase)
    a = traj.sine_coeffs
    b = traj.cosine_coeffs
    q = traj.offsets + s @ (a / wl).T - c @ (b / wl).T
    qd = c @ a.T + s @ b.T
    qdd = -s @ (a * wl).T + c @ (b * wl).T
    if np.isscalar(t) or np.ndim(t) == 0:
        return q[0], qd[0], qdd[0]
    return q, qd, qdd


def sample_trajectory(
    traj: FourierTrajectory, rate: float, include_endpoint: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uniform samples over one period: (t, q, qd, qdd)."""
    if rate <= 0:
        raise ExciteError("sample rate must be > 0")
    count = int(round(traj.duration * rate))
    if count < 2:
        raise ExciteError("sample rate too low for the trajectory duration")
    t = np.arange(count + (1 if include_endpoint else 0)) / rate
    t = np.minimum(t, traj.duration)
    q, qd, qdd = fourier_eval(traj, t)
    return t, q, qd, qdd


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius < 0:
            raise ExciteError("sphere radius must be >= 0")


@dataclass(frozen=True)
class DesignProblem:
    """Everything the trajectory optimizer needs besides (omega, harmonics)."""

    model: RobotModel
    sample_rate: float = 100.0
    gamma: float = 0.1
    obstacles: tuple[Sphere, ...] = ()
    link_collision_spheres: tuple[tuple[Sphere, ...], ...] = ()
    boundary_tolerance: tuple[float, float] = (1e-3, 1e-2)
    collision_margin: float = 0.0
    use_full_regressor: bool = False
    lse_beta: float = 50.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ExciteError("gamma must be >= 0")
        if self.sample_rate <= 0:
            raise ExciteError("sample rate must be > 0")
        if self.link_collision_spheres and len(self.link_collision_spheres) != self.model.num_joints:
            raise ExciteError("need one collision sphere list per link (or none)")


class InformationObjective(NamedTuple):
    value: float
    f_c: float
    f_e: float
    lambda_min: float
    lambda_max: float


RANK_DEFICIENCY_RATIO = 1e-12


def information_objective(W: np.ndarray, gamma: float) -> InformationObjective:
    """Condition-number plus weighted E-optimality criterion on W^T W.

    Eigenvalues come from the singular values of W (lambda = sigma^2).
    Rank-deficient matrices report an infinite value rather than raising, so
    a direct search ranks them worst and keeps moving.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] < W.shape[1]:
        raise ExciteError(f"W must have at least as many rows as columns, got {W.shape}")
    sv = np.linalg.svd(W, compute_uv=False)
    lam_max = float(sv[0] ** 2)
    lam_min = float(sv[-1] ** 2)
    f_e = -lam_min
    if lam_min <= RANK_DEFICIENCY_RATIO * lam_max:
        return InformationObjective(math.inf, math.inf, f_e, lam_min, lam_max)
    f_c = math.sqrt(lam_max / lam_min)
    return InformationObjective(f_c + gamma * f_e, f_c, f_e, lam_min, lam_max)


def smooth_max(values: np.ndarray, beta: float) -> float:
    """Log-sum-exp upper bound on max(values); tight for large beta."""
    values = np.asarray(values, dtype=float)
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(beta * (values - m))))) / beta


@dataclass(frozen=True)
class ConstraintRecord:
    """Named constraint values: equalities want 0, inequalities want <= 0."""

    equalities: dict[str, float]
    inequalities: dict[str, float]

    def equality_vector(self) -> np.ndarray:
        return np.array(list(self.equalities.values()), dtype=float)

    def inequality_vector(self) -> np.ndarray:
        return np.array(list(self.inequalities.values()), dtype=float)

    def max_violation(self) -> float:
        worst = 0.0
        if self.equalities:
            worst = float(np.max(np.abs(self.equality_vector())))
        if self.inequalities:
            worst = max(worst, float(np.max(self.inequality_vector())), 0.0)
        return worst

    def as_dict(self) -> dict:
        return {"equalities": dict(self.equalities), "inequalities": dict(self.inequalities)}


def evaluate_constraints(traj: FourierTrajectory, problem: DesignProblem) -> ConstraintRecord:
    """Limit, boundary, and collision constraints for one trajectory.

    Limit margins are aggregated over the sampled period with a log-sum-exp
    smooth maximum (slightly conservative). Boundary equalities are evaluated
    exactly at t = 0 and t = duration. Collision inequalities take the hard
    minimum distance over samples for every (link sphere, obstacle) pair.
    """
    model = problem.model
    if traj.num_joints != model.num_joints:
        raise ExciteError("trajectory and model joint counts differ")
    t, q, qd, qdd = sample_trajectory(traj, problem.sample_rate, include_endpoint=True)
    beta = problem.lse_beta

    inequalities: dict[str, float] = {}
    for i, joint in enumerate(model.joint_specs):
        lo, hi = joint.position_limits
        inequalities[f"pos_upper_{joint.name}"] = smooth_max(q[:, i] - hi, beta)
        inequalities[f"pos_lower_{joint.name}"] = smooth_max(lo - q[:, i], beta)
        inequalities[f"vel_{joint.name}"] = smooth_max(
            np.concatenate([qd[:, i], -qd[:, i]]) - joint.velocity_limit, beta
        )
        inequalities[f"acc_{joint.name}"] = smooth_max(
            np.concatenate([qdd[:, i], -qdd[:, i]]) - joint.acceleration_limit, beta
        )

    _, qd0, qdd0 = fourier_eval(traj, 0.0)
    _, qdT, qddT = fourier_eval(traj, traj.duration)
    equalities: dict[str, float] = {}
    for i, joint in enumerate(model.joint_specs):
        equalities[f"qd_start_{joint.name}"] = float(qd0[i])
        equalities[f"qd_end_{joint.name}"] = float(qdT[i])
        equalities[f"qdd_start_{joint.name}"] = float(qdd0[i])
        equalities[f"qdd_end_{joint.name}"] = float(qddT[i])

    if problem.obstacles and problem.link_collision_spheres:
        R, p = forward_kinematics(model, q)
        for li, spheres in enumerate(problem.link_collision_spheres):
            joint_name = model.joint_specs[li].name
            for si, sphere in enumerate(spheres):
                centers = p[:, li] + np.einsum("sij,j->si", R[:, li], sphere.center)
                for oi, obstacle in enumerate(problem.obstacles):
                    dist = np.linalg.norm(centers - obstacle.center, axis=1)
                    clearance = float(np.min(dist)) - sphere.radius - obstacle.radius
                    inequalities[f"collision_{joint_name}_s{si}_o{oi}"] = (
                        problem.collision_margin - clearance
                    )

    return ConstraintRecord(equalities=equalities, inequalities=inequalities)


# --- augmented Lagrangian solver --------------------------------------------------


@dataclass(frozen=True)
class ALOptions:
    initial_penalty: float = 10.0
    penalty_growth: float = 5.0
    multiplier_bounds: float = 1e6
    outer_iterations: int = 8
    subproblem_budget: int = 2000
    constraint_tolerance: float = 1e-3
    seed: int = 0
    initial_step: float = 0.25
    restarts: int = 3
    restart_scale: float = 1.0
    step_decay: float = 0.7
    max_penalty: float = 1e10

    def __post_init__(self):
        if self.penalty_growth <= 1:
            raise ExciteError("penalty growth must be > 1")
        if self.subproblem_budget <= 0 or self.outer_iterations <= 0:
            raise ExciteError("budgets must be positive")


@dataclass
class ALResult:
    x: np.ndarray
    objective: float
    record: ConstraintRecord
    infeasibility: float
    feasible: bool
    flagged: bool
    evaluations: int
    history: list[dict]


def _nelder_mead(func, x0: np.ndarray, step: np.ndarray, max_evals: int):
    """Plain Nelder-Mead with an evaluation budget; returns (x_best, f_best, used)."""
    n = x0.size
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    pts = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] += step[i]
        pts.append(v)
    used = 0
    vals = []
    for p in pts:
        vals.append(func(p) if used < max_evals else math.inf)
        used += 1
    pts = np.asarray(pts)
    vals = np.asarray(vals, dtype=float)

    while used < max_evals:
        order = np.argsort(vals, kind="stable")
        pts = pts[order]
        vals = vals[order]
        if np.isfinite(vals[0]) and np.isfinite(vals[-1]):
            if vals[-1] - vals[0] < 1e-14 * (1.0 + abs(vals[0])):
                break
        centroid = pts[:-1].mean(axis=0)
        reflected = centroid + alpha * (centroid - pts[-1])
        f_r = func(reflected)
        used += 1
        if f_r < vals[0]:
            if used < max_evals:
                expanded = centroid + gamma * (reflected - centroid)
                f_e = func(expanded)
                used += 1
                if f_e < f_r:
                    pts[-1], vals[-1] = expanded, f_e
                    continue
            pts[-1], vals[-1] = reflected, f_r
            continue
        if f_r < vals[-2]:
            pts[-1], vals[-1] = reflected, f_r
            continue
        contracted = centroid + rho * (pts[-1] - centroid)
        if used < max_evals:
            f_c = func(contracted)
            used += 1
            if f_c < vals[-1]:
                pts[-1], vals[-1] = contracted, f_c
                continue
        # shrink toward the best vertex
        for i in range(1, n + 1):
            if used >= max_evals:
                break
            pts[i] = pts[0] + sigma * (pts[i] - pts[0])
            vals[i] = func(pts[i])
            used += 1

    best = int(np.argmin(vals))
    return pts[best].copy(), float(vals[best]), used


def augmented_lagrangian_minimize(
    objective: Callable[[np.ndarray], float],
    constraints: Callable[[np.ndarray], ConstraintRecord],
    x0: np.ndarray,
    opts: ALOptions,
    step: np.ndarray | float | None = None,
    restart_sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
) -> ALResult:
    """Minimize a black-box objective under black-box constraints.

    Outer loop: classic augmented Lagrangian with quadratic equality terms and
    squared-positive-part inequality terms; multipliers are first-order
    updated and clamped, and the penalty grows whenever the infeasibility
    fails to shrink by 4x. Subproblems are minimized derivative-free by
    Nelder-Mead restarts seeded deterministically from ``opts.seed``; restart
    points come from ``restart_sampler`` when given, otherwise from Gaussian
    perturbations of the subproblem incumbent.

    Returns the best point found, preferring feasibility within
    ``constraint_tolerance`` and breaking ties by objective value. A result
    that never reached feasibility is flagged, not raised.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if step is None:
        step = opts.initial_step
    step_vec = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()
    step_vec[step_vec == 0] = opts.initial_step
    rng = np.random.default_rng(opts.seed)

    rec0 = constraints(x0)
    eq_names = list(rec0.equalities.keys())
    ineq_names = list(rec0.inequalities.keys())
    lam = np.zeros(len(eq_names))
    mu = np.zeros(len(ineq_names))
    rho = float(opts.initial_penalty)
    tol = opts.constraint_tolerance

    best = {
        "x": None,
        "objective": math.inf,
        "violation": math.inf,
        "record": rec0,
    }
    evaluations = 0

    def as_vectors(record: ConstraintRecord):
        g = np.array([record.equalities[k] for k in eq_names])
        h = np.array([record.inequalities[k] for k in ineq_names])
        return g, h

    def consider(x, f, record):
        g, h = as_vectors(record)
        infeas = max(
            float(np.max(np.abs(g))) if g.size else 0.0,
            float(np.max(np.clip(h, 0.0, None))) if h.size else 0.0,
        )
        violation = max(infeas - tol, 0.0)
        current = (best["violation"], best["objective"])
        candidate = (violation, f)
        if candidate < current:
            best["x"] = x.copy()
            best["objective"] = f
            best["violation"] = violation
            best["record"] = record
            best["infeasibility"] = infeas

    def lagrangian(x):
        nonlocal evaluations
        f = objective(x)
        record = constraints(x)
        evaluations += 1
        consider(x, f, record)
        if not np.isfinite(f):
            return math.inf
        g, h = as_vectors(record)
        value = f
        if g.size:
            value += float(lam @ g) + 0.5 * rho * float(g @ g)
        if h.size:
            shifted = np.clip(mu + rho * h, 0.0, None)
            value += float(np.sum(shifted**2 - mu**2)) / (2.0 * rho)
        return value

    consider(x0, objective(x0), rec0)
    evaluations += 1

    history: list[dict] = []
    x = x0.copy()
    prev_infeas = math.inf
    for outer in range(opts.outer_iterations):
        budget = opts.subproblem_budget
        scale = max(opts.step_decay**outer, 0.05)
        chunk = max(n + 2, opts.subproblem_budget // (opts.restarts + 1))
        x_sub, f_sub, used = _nelder_mead(lagrangian, x, scale * step_vec, chunk)
        budget -= used
        while budget > n + 2:
            if restart_sampler is not None:
                start = restart_sampler(rng)
            else:
                start = x_sub + opts.restart_scale * step_vec * rng.standard_normal(n)
            cand, f_cand, used = _nelder_mead(
                lagrangian, start, scale * step_vec, min(chunk, budget)
            )
            budget -= used
            if f_cand < f_sub:
                x_sub, f_sub = cand, f_cand
        x = x_sub

        record = constraints(x)
        g, h = as_vectors(record)
        infeas = max(
            float(np.max(np.abs(g))) if g.size else 0.0,
            float(np.max(np.clip(h, 0.0, None))) if h.size else 0.0,
        )
        lam = np.clip(lam + rho * g, -opts.multiplier_bounds, opts.multiplier_bounds)
        mu = np.clip(mu + rho * h, 0.0, opts.multiplier_bounds)
        history.append(
            {
                "outer": outer,
                "rho": rho,
                "objective": objective(x),
                "infeasibility": infeas,
                "evaluations": evaluations,
            }
        )
        if infeas > 0.25 * prev_infeas and infeas > tol:
            rho = min(rho * opts.penalty_growth, opts.max_penalty)
        prev_infeas = infeas

    x_best = best["x"] if best["x"] is not None else x
    record = best["record"]
    infeas = best["infeasibility"]
    feasible = infeas <= tol
    return ALResult(
        x=x_best,
        objective=best["objective"],
        record=record,
        infeasibility=infeas,
        feasible=feasible,
        flagged=not feasible,
        evaluations=evaluations,
        history=history,
    )


# --- trajectory design -------------------------------------------------------------


@dataclass
class DesignReport:
    initial: InformationObjective
    final: InformationObjective
    record: ConstraintRecord
    feasible: bool
    flagged: bool
    boundary_within_tolerance: bool
    evaluations: int
    subspace_rank: int
    seed: int
    history: list[dict]

    def as_dict(self) -> dict:
        return {
            "initial": dict(self.initial._asdict()),
            "final": dict(self.final._asdict()),
            "constraints": self.record.as_dict(),
            "feasible": self.feasible,
            "flagged": self.flagged,
            "boundary_within_tolerance": self.boundary_within_tolerance,
            "evaluations": self.evaluations,
            "subspace_rank": self.subspace_rank,
            "seed": self.seed,
            "history": self.history,
        }


def _split_vector(x: np.ndarray, n: int, L: int):
    q0 = x[:n]
    a = x[n : n + n * L].reshape(n, L)
    b = x[n + n * L :].reshape(n, L)
    return q0, a, b


def _joint_limits(model: RobotModel):
    """Lower and upper position, velocity and acceleration limits, each (N,)."""
    specs = model.joint_specs
    lo = np.array([j.position_limits[0] for j in specs])
    hi = np.array([j.position_limits[1] for j in specs])
    vmax = np.array([j.velocity_limit for j in specs])
    amax = np.array([j.acceleration_limit for j in specs])
    return lo, hi, vmax, amax


def _random_coefficients(rng: np.random.Generator, model: RobotModel, L: int):
    """Random exciting ``(q0, a, b)``: offsets near mid-range, Gaussian
    coefficients scaled to the velocity limits."""
    lo, hi, vmax, _ = _joint_limits(model)
    n = model.num_joints
    q0 = (lo + hi) / 2.0 + 0.2 * (hi - lo) * rng.uniform(-0.5, 0.5, n)
    a = rng.normal(0.0, 1.0, (n, L)) * (vmax[:, None] / (2.0 * L))
    b = rng.normal(0.0, 1.0, (n, L)) * (vmax[:, None] / (2.0 * L))
    return q0, a, b


def _rest_to_rest(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project coefficients so velocity and acceleration vanish at both ends:
    sum_l a_il = 0 and sum_l l b_il = 0."""
    ls = np.arange(1, a.shape[1] + 1)
    return a - a.mean(axis=1, keepdims=True), b - (b @ ls)[:, None] * ls / float(ls @ ls)


def _design_basis(problem: DesignProblem, seed: int) -> tuple[np.ndarray, int]:
    """Structural identifiable basis estimated from random in-limit states."""
    model = problem.model
    n = model.num_joints
    total = 13 * n
    if problem.use_full_regressor:
        return np.eye(total), total
    rng = np.random.default_rng([seed, 1701])
    samples = max(80, 4 * total)
    lo, hi, vmax, amax = _joint_limits(model)
    q = rng.uniform(lo, hi, (samples, n))
    qd = rng.uniform(-vmax, vmax, (samples, n))
    qdd = rng.uniform(-amax, amax, (samples, n))
    W = regressor_batch(model, q, qd, qdd).reshape(-1, total)
    sub = identifiable_subspace(W)
    return sub.identifiable_basis, sub.rank


def design_trajectory(
    problem: DesignProblem,
    omega: float = 2.0 * math.pi * 0.1,
    harmonics: int = 5,
    opts: ALOptions | None = None,
) -> tuple[FourierTrajectory, DesignReport]:
    """Optimize Fourier coefficients for maximal identification information.

    The decision vector stacks (q0, a, b), N*(2L+1) entries. The objective is
    the information criterion of the regressor sampled over one period,
    projected onto the structurally identifiable subspace unless
    ``problem.use_full_regressor`` is set. Constraints come from
    :func:`evaluate_constraints`.
    """
    opts = opts or ALOptions()
    model = problem.model
    n = model.num_joints
    L = harmonics
    nyquist_needed = 2.0 * omega * L / (2.0 * math.pi)
    if problem.sample_rate <= nyquist_needed:
        raise ExciteError(
            f"sample rate {problem.sample_rate} Hz cannot resolve harmonic "
            f"content up to {nyquist_needed / 2.0} Hz"
        )

    basis, rank = _design_basis(problem, opts.seed)
    lo, hi, vmax, _ = _joint_limits(model)

    def build(x: np.ndarray) -> FourierTrajectory:
        # Project onto the rest-to-rest subspace so every candidate satisfies
        # the boundary equalities exactly and the search fights only the
        # inequality constraints.
        q0, a, b = _split_vector(x, n, L)
        a, b = _rest_to_rest(a, b)
        return FourierTrajectory(
            base_frequency=omega,
            harmonics=L,
            offsets=q0,
            sine_coeffs=a,
            cosine_coeffs=b,
        )

    def information(x: np.ndarray) -> InformationObjective:
        _, q, qd, qdd = sample_trajectory(build(x), problem.sample_rate)
        W = regressor_batch(model, q, qd, qdd).reshape(-1, 13 * n)
        return information_objective(W @ basis, problem.gamma)

    def objective(x: np.ndarray) -> float:
        return information(x).value

    def constraints(x: np.ndarray) -> ConstraintRecord:
        return evaluate_constraints(build(x), problem)

    x0 = np.concatenate([(lo + hi) / 2.0, np.zeros(2 * n * L)])
    step = np.concatenate(
        [
            np.minimum(0.15 * (hi - lo), 0.5),
            np.repeat(0.5 * vmax / L, L),
            np.repeat(0.5 * vmax / L, L),
        ]
    )

    def restart_sampler(rng: np.random.Generator) -> np.ndarray:
        # Random exciting start; build() projects it onto rest-to-rest anyway.
        q0, a, b = _random_coefficients(rng, model, L)
        return np.concatenate([q0, a.ravel(), b.ravel()])

    initial_info = information(x0)
    result = augmented_lagrangian_minimize(
        objective, constraints, x0, opts, step=step, restart_sampler=restart_sampler
    )
    traj = build(result.x)
    final_info = information(result.x)

    vel_tol, acc_tol = problem.boundary_tolerance
    boundary_ok = all(
        abs(value) <= (vel_tol if name.startswith("qd_") else acc_tol)
        for name, value in result.record.equalities.items()
    )

    report = DesignReport(
        initial=initial_info,
        final=final_info,
        record=result.record,
        feasible=result.feasible,
        flagged=result.flagged,
        boundary_within_tolerance=boundary_ok,
        evaluations=result.evaluations,
        subspace_rank=rank,
        seed=opts.seed,
        history=result.history,
    )
    return traj, report


def random_feasible_trajectory(
    problem: DesignProblem,
    omega: float,
    harmonics: int,
    rng: np.random.Generator,
    max_tries: int = 50,
) -> FourierTrajectory | None:
    """Draw a random rest-to-rest trajectory satisfying the inequality limits.

    Coefficients are projected onto the zero start/end velocity and
    acceleration subspace and scaled down until all limit inequalities hold.
    Returns None when no feasible draw is found.
    """
    for _ in range(max_tries):
        q0, a, b = _random_coefficients(rng, problem.model, harmonics)
        a, b = _rest_to_rest(a, b)
        scale = 1.0
        for _ in range(12):
            traj = FourierTrajectory(
                base_frequency=omega,
                harmonics=harmonics,
                offsets=q0,
                sine_coeffs=scale * a,
                cosine_coeffs=scale * b,
            )
            record = evaluate_constraints(traj, problem)
            ineq = record.inequality_vector()
            if ineq.size == 0 or np.max(ineq) <= 0.0:
                if np.any(scale * np.abs(a) > 1e-9):
                    return traj
                break
            scale *= 0.5
    return None


# --- serialization -----------------------------------------------------------------


def trajectory_to_dict(traj: FourierTrajectory) -> dict:
    return {
        "base_frequency": traj.base_frequency,
        "harmonics": traj.harmonics,
        "duration": traj.duration,
        "offsets": traj.offsets.tolist(),
        "sine_coeffs": traj.sine_coeffs.tolist(),
        "cosine_coeffs": traj.cosine_coeffs.tolist(),
    }


def trajectory_from_dict(data: dict) -> FourierTrajectory:
    return FourierTrajectory(
        base_frequency=data["base_frequency"],
        harmonics=data["harmonics"],
        offsets=np.asarray(data["offsets"], dtype=float),
        sine_coeffs=np.asarray(data["sine_coeffs"], dtype=float),
        cosine_coeffs=np.asarray(data["cosine_coeffs"], dtype=float),
        duration=data.get("duration"),
    )


def save_trajectory(path, traj: FourierTrajectory, provenance: dict | None = None) -> None:
    payload = {"trajectory": trajectory_to_dict(traj), "provenance": provenance or {}}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trajectory(path) -> tuple[FourierTrajectory, dict]:
    with open(path) as fh:
        payload = json.load(fh)
    return trajectory_from_dict(payload["trajectory"]), payload.get("provenance", {})


def export_trajectory_csv(path, traj: FourierTrajectory, rate: float) -> None:
    """Sampled replay file: ``t,q_*,qd_*,qdd_*`` rows."""
    t, q, qd, qdd = sample_trajectory(traj, rate, include_endpoint=True)
    n = traj.num_joints
    header = ["t"] + [f"{prefix}_{i + 1}" for prefix in ("q", "qd", "qdd") for i in range(n)]
    _write_csv(path, header, np.column_stack([t, q, qd, qdd]).tolist())


def problem_fingerprint(problem: DesignProblem, omega: float, harmonics: int) -> str:
    """Stable hash of the design setup, for provenance blocks."""
    payload = {
        "model": model_to_dict(problem.model),
        "sample_rate": problem.sample_rate,
        "gamma": problem.gamma,
        "obstacles": [[o.center.tolist(), o.radius] for o in problem.obstacles],
        "link_spheres": [
            [[s.center.tolist(), s.radius] for s in spheres]
            for spheres in problem.link_collision_spheres
        ],
        "collision_margin": problem.collision_margin,
        "use_full_regressor": problem.use_full_regressor,
        "omega": omega,
        "harmonics": harmonics,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
