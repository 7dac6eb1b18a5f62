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

A design builds the sin/cos grid of one closed period once. Each candidate is
then sampled once from that grid: the objective reads rows [0, S) and the
constraints read all S + 1 rows, whose first and last are t = 0 and
t = duration. Candidates the search can score independently share one
regressor call per block, with the bits each would get alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .dynamics import forward_kinematics, regressor_batch
from .identify import identifiable_subspace
from .model import (
    ArmidError, RobotModel, check_number, float_rows, json_entry, json_hash, model_to_dict,
    num_params, read_json, write_csv, write_json,
)


class ExciteError(ArmidError):
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

    def __post_init__(self):
        check_number(self.base_frequency, "base frequency (rad/s)", ExciteError, positive=True)
        check_number(self.harmonics, "harmonics", ExciteError, positive=True, integer=True)
        # Private read-only copies, so no caller's array can change the trajectory.
        q0, a, b = (
            np.array(v, dtype=float) for v in (self.offsets, self.sine_coeffs, self.cosine_coeffs)
        )
        n = q0.size
        if a.shape != (n, self.harmonics) or b.shape != (n, self.harmonics):
            raise ExciteError(
                f"coefficient shapes {a.shape}/{b.shape} do not match "
                f"({n}, {self.harmonics})"
            )
        for name, value in (("offsets", q0), ("sine_coeffs", a), ("cosine_coeffs", b)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def duration(self) -> float:
        """One period, 2 pi / ``base_frequency``."""
        return 2.0 * math.pi / self.base_frequency

    @property
    def num_joints(self) -> int:
        return self.offsets.size


def fourier_eval(traj: FourierTrajectory, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, velocities, accelerations at time(s) t within [0, duration]."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < -1e-12) or np.any(t_arr > traj.duration + 1e-12):
        raise ExciteError(f"time outside [0, {traj.duration}]")
    grid = _fourier_grid(traj.base_frequency, traj.harmonics, t_arr)
    q, qd, qdd = _fourier_rows(traj.offsets, traj.sine_coeffs, traj.cosine_coeffs, *grid)
    if np.isscalar(t) or np.ndim(t) == 0:
        return q[0], qd[0], qdd[0]
    return q, qd, qdd


def _fourier_grid(omega: float, harmonics: int, t: np.ndarray):
    """sin(w l t) and cos(w l t), each (T, L), and the harmonic frequencies w l."""
    wl = omega * np.arange(1, harmonics + 1)
    phase = np.outer(t, wl)
    return np.sin(phase), np.cos(phase), wl


def _fourier_rows(q0, a, b, s: np.ndarray, c: np.ndarray, wl: np.ndarray):
    """(T, N) positions, velocities, accelerations of the series with offsets
    ``q0`` and coefficients ``a``, ``b`` on a :func:`_fourier_grid`."""
    q = q0 + s @ (a / wl).T - c @ (b / wl).T
    qd = c @ a.T + s @ b.T
    qdd = -s @ (a * wl).T + c @ (b * wl).T
    return q, qd, qdd


def sample_trajectory(
    traj: FourierTrajectory, rate: float, include_endpoint: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uniform samples over one period: (t, q, qd, qdd)."""
    t, grid = _period_grid(traj.base_frequency, traj.harmonics, rate, include_endpoint)
    return t, *_fourier_rows(traj.offsets, traj.sine_coeffs, traj.cosine_coeffs, *grid)


def _period_grid(omega: float, harmonics: int, rate: float, closed: bool):
    """The round(duration * rate) times k / rate, plus t = duration if ``closed``, and their grid.
    The one check of a sampled period: omega, harmonics, rate > 0, rate > 2 x top harmonic."""
    check_number(omega, "base frequency (rad/s)", ExciteError, positive=True)
    check_number(harmonics, "harmonics", ExciteError, positive=True, integer=True)
    check_number(rate, "sample rate", ExciteError, positive=True)
    nyquist_rate = 2.0 * omega * harmonics / (2.0 * math.pi)
    if rate <= nyquist_rate:
        raise ExciteError(f"rate {rate} Hz aliases harmonic content up to {nyquist_rate / 2.0} Hz")
    duration = 2.0 * math.pi / omega
    t = np.arange(int(round(duration * rate)) + (1 if closed else 0)) / rate
    if closed:
        t[-1] = duration
    return t, _fourier_grid(omega, harmonics, t)


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise ExciteError(f"sphere center must be 3 finite numbers, got {center.tolist()}")
        object.__setattr__(self, "center", center)
        check_number(self.radius, "sphere radius", ExciteError)


# Log-sum-exp sharpness for the aggregated limit margins.
_LSE_BETA = 50.0
# Required clearance between link spheres and obstacles, m.
_COLLISION_MARGIN = 0.0
# Rest-to-rest tolerance reported in the design: |qd| and |qdd| at both ends.
_BOUNDARY_VEL_TOL = 1e-3
_BOUNDARY_ACC_TOL = 1e-2


@dataclass(frozen=True)
class DesignProblem:
    """Everything the trajectory optimizer needs besides (omega, harmonics)."""

    model: RobotModel
    sample_rate: float = 100.0
    gamma: float = 0.1
    obstacles: tuple[Sphere, ...] = ()
    link_collision_spheres: tuple[tuple[Sphere, ...], ...] = ()

    def __post_init__(self):
        check_number(self.gamma, "gamma", ExciteError)
        if self.link_collision_spheres and len(self.link_collision_spheres) != self.model.num_joints:
            raise ExciteError("need one collision sphere list per link (or none)")


class InformationObjective(NamedTuple):
    value: float
    f_c: float
    f_e: float
    lambda_min: float
    lambda_max: float

    def __float__(self) -> float:
        """The criterion value: what the excitation design minimizes."""
        return self.value


RANK_DEFICIENCY_RATIO = 1e-12


def information_objective(W: np.ndarray, gamma: float) -> InformationObjective:
    """Condition-number plus weighted E-optimality criterion on W^T W.

    Eigenvalues come from ``eigvalsh`` of the r x r Gram matrix W^T W, so no
    factorization touches the rows of W. Each is accurate to about machine
    epsilon times lambda_max, far below ``RANK_DEFICIENCY_RATIO``.
    Rank-deficient matrices report an infinite value rather than raising, so
    a direct search ranks them worst and keeps moving.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] < W.shape[1]:
        raise ExciteError(f"W must have at least as many rows as columns, got {W.shape}")
    lam = np.linalg.eigvalsh(W.T @ W)
    lam_max = float(lam[-1])
    lam_min = max(float(lam[0]), 0.0)  # W^T W is PSD; a negative lambda is rounding
    f_e = -lam_min
    if lam_min <= RANK_DEFICIENCY_RATIO * lam_max:
        return InformationObjective(math.inf, math.inf, f_e, lam_min, lam_max)
    f_c = math.sqrt(lam_max / lam_min)
    return InformationObjective(f_c + gamma * f_e, f_c, f_e, lam_min, lam_max)


def smooth_max(values: np.ndarray, beta: float) -> np.ndarray:
    """Log-sum-exp upper bound on the max of each column of ``values``; tight
    for large beta."""
    # One contiguous row per column: numpy loops over a few-wide last axis
    # cost more than the arithmetic.
    rows = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    m = np.max(rows, axis=1)
    return m + np.log(np.sum(np.exp(beta * (rows - m[:, None])), axis=1)) / beta


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
        """The largest |equality| or positive inequality; NaN if any value is NaN,
        so a NaN never passes for satisfied."""
        values = [[0.0], np.abs(self.equality_vector()), self.inequality_vector()]
        return float(np.max(np.concatenate(values)))


def evaluate_constraints(
    problem: DesignProblem, q: np.ndarray, qd: np.ndarray, qdd: np.ndarray
) -> ConstraintRecord:
    """Limit, boundary, and collision constraints for one sampled trajectory.

    ``q``, ``qd`` and ``qdd`` are (S + 1, N) samples of one closed period, as
    ``sample_trajectory(..., include_endpoint=True)`` returns them. Limit
    margins are aggregated over the rows with a log-sum-exp smooth maximum
    per joint (slightly conservative). Boundary equalities are read from the
    first and last rows, t = 0 and t = duration. Collision inequalities take
    the hard minimum distance over samples for every (link sphere, obstacle)
    pair.
    """
    model = problem.model
    if q.shape[1] != model.num_joints:
        raise ExciteError("trajectory and model joint counts differ")
    lo, hi, vmax, amax = _joint_limits(model)
    margins = {
        "pos_upper": smooth_max(q - hi, _LSE_BETA),
        "pos_lower": smooth_max(lo - q, _LSE_BETA),
        "vel": smooth_max(np.concatenate([qd, -qd]) - vmax, _LSE_BETA),
        "acc": smooth_max(np.concatenate([qdd, -qdd]) - amax, _LSE_BETA),
    }
    names = [joint.name for joint in model.joint_specs]
    inequalities: dict[str, float] = {
        f"{kind}_{name}": float(margin[i])
        for i, name in enumerate(names)
        for kind, margin in margins.items()
    }
    ends = {"qd_start": qd[0], "qd_end": qd[-1], "qdd_start": qdd[0], "qdd_end": qdd[-1]}
    equalities: dict[str, float] = {
        f"{kind}_{name}": float(row[i])
        for i, name in enumerate(names)
        for kind, row in ends.items()
    }

    if problem.obstacles and problem.link_collision_spheres:
        R, p = forward_kinematics(model, q)
        for li, spheres in enumerate(problem.link_collision_spheres):
            for si, sphere in enumerate(spheres):
                centers = p[:, li] + np.einsum("sij,j->si", R[:, li], sphere.center)
                for oi, obstacle in enumerate(problem.obstacles):
                    dist = np.linalg.norm(centers - obstacle.center, axis=1)
                    clearance = float(np.min(dist)) - sphere.radius - obstacle.radius
                    inequalities[f"collision_{names[li]}_s{si}_o{oi}"] = (
                        _COLLISION_MARGIN - clearance
                    )

    return ConstraintRecord(equalities=equalities, inequalities=inequalities)


# --- augmented Lagrangian solver --------------------------------------------------


# Penalty update: rho starts at _INITIAL_PENALTY and grows by _PENALTY_GROWTH,
# up to _MAX_PENALTY, whenever an outer iteration fails to shrink the
# infeasibility by 4x. Multipliers stay within +-_MULTIPLIER_BOUND.
_INITIAL_PENALTY = 100.0
_PENALTY_GROWTH = 5.0
_MAX_PENALTY = 1e10
_MULTIPLIER_BOUND = 1e6
# Nelder-Mead step for coordinates the caller gives no step (or a zero one).
_INITIAL_STEP = 0.25


@dataclass(frozen=True)
class ALOptions:
    outer_iterations: int = 8
    subproblem_budget: int = 2000
    constraint_tolerance: float = 1e-3
    seed: int = 0
    restarts: int = 3
    step_decay: float = 0.7

    def __post_init__(self):
        for name, positive, integer in (
            ("subproblem_budget", True, True), ("outer_iterations", True, True),
            ("restarts", False, True), ("seed", False, True),
            ("constraint_tolerance", False, False), ("step_decay", True, False),
        ):
            check_number(getattr(self, name), name, ExciteError, positive, integer)


@dataclass
class ALResult:
    x: np.ndarray
    objective: float
    # What evaluate returned as the objective at x0 and at x.
    initial: Any
    final: Any
    record: ConstraintRecord
    infeasibility: float
    feasible: bool
    evaluations: int
    history: list[dict]


def _nelder_mead(func, x0: np.ndarray, step: np.ndarray, max_evals: int):
    """Plain Nelder-Mead with an evaluation budget.

    ``func(X)`` takes a (k, n) array of points and returns one ``(value,
    payload)`` pair per row, in order; the search minimizes the value and keeps
    each vertex's payload. Points that do not depend on each other's values go
    to ``func`` together: the n + 1 starting vertices in one call, and the
    vertices of a shrink in another. Reflect, expand and contract are one-row
    calls. The starting vertices are always evaluated, so ``max_evals`` should
    exceed n. Returns (x_best, f_best, payload_best, used).
    """
    n = x0.size
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    pts = np.tile(x0, (n + 1, 1))
    pts[np.arange(1, n + 1), np.arange(n)] += step
    values, payloads = zip(*func(pts))
    vals, payloads, used = np.array(values, dtype=float), list(payloads), n + 1

    def one(x):
        return func(x[None])[0]

    while used < max_evals:
        order = np.argsort(vals, kind="stable")
        pts = pts[order]
        vals = vals[order]
        payloads = [payloads[i] for i in order]
        if np.isfinite(vals[0]) and np.isfinite(vals[-1]):
            if vals[-1] - vals[0] < 1e-14 * (1.0 + abs(vals[0])):
                break
        centroid = pts[:-1].mean(axis=0)
        reflected = centroid + alpha * (centroid - pts[-1])
        f_r, p_r = one(reflected)
        used += 1
        if f_r < vals[0] and used < max_evals:
            expanded = centroid + gamma * (reflected - centroid)
            f_e, p_e = one(expanded)
            used += 1
            if f_e < f_r:
                pts[-1], vals[-1], payloads[-1] = expanded, f_e, p_e
                continue
        if f_r < vals[0] or f_r < vals[-2]:  # both tests: vals[-2] may be NaN
            pts[-1], vals[-1], payloads[-1] = reflected, f_r, p_r
            continue
        contracted = centroid + rho * (pts[-1] - centroid)
        if used < max_evals:
            f_c, p_c = one(contracted)
            used += 1
            if f_c < vals[-1]:
                pts[-1], vals[-1], payloads[-1] = contracted, f_c, p_c
                continue
        # shrink toward the best vertex, as many vertices as the budget allows
        k = min(n, max_evals - used)
        if k > 0:
            pts[1 : k + 1] = pts[0] + sigma * (pts[1 : k + 1] - pts[0])
            vals[1 : k + 1], payloads[1 : k + 1] = zip(*func(pts[1 : k + 1]))
            used += k

    best = int(np.argmin(vals))
    return pts[best].copy(), float(vals[best]), payloads[best], used


def augmented_lagrangian_minimize(
    evaluate: Callable[[np.ndarray], list[tuple[Any, ConstraintRecord]]],
    x0: np.ndarray,
    opts: ALOptions,
    step: np.ndarray | float | None = None,
    restart_sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
) -> ALResult:
    """Minimize a black-box objective under black-box constraints.

    ``evaluate(X)`` takes a (k, n) array of candidates and returns one
    ``(objective, record)`` pair per row, in order: the objective and the
    constraint record of that candidate together, so a caller can score each
    candidate from one sample of it, and score a block of independent
    candidates (a simplex's starting vertices, a shrink) in one pass. The
    objective is anything ``float()`` accepts; the result hands back the
    objects returned at x0 and at the result, so a caller that returns a
    richer score need not evaluate either point again. The pairs are taken
    in row order, so the result does not depend on how many rows a call holds.
    Outer loop: classic augmented Lagrangian with quadratic equality terms and
    squared-positive-part inequality terms; multipliers are first-order
    updated and clamped, and the penalty grows whenever the infeasibility
    fails to shrink by 4x. Subproblems are minimized derivative-free by
    Nelder-Mead restarts seeded deterministically from ``opts.seed``; restart
    points come from ``restart_sampler`` when given, otherwise from Gaussian
    perturbations of the subproblem incumbent, one step wide.

    Returns the best point found, preferring feasibility within
    ``constraint_tolerance`` and breaking ties by objective value. A result
    that never reached feasibility is flagged, not raised.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if step is None:
        step = _INITIAL_STEP
    step_vec = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()
    step_vec[step_vec == 0] = _INITIAL_STEP
    rng = np.random.default_rng(opts.seed)

    rho = _INITIAL_PENALTY
    tol = opts.constraint_tolerance
    # The incumbent: [(violation beyond tol, objective), x, score, record]. Any
    # evaluation with a number for its violation beats the start's (inf, inf);
    # until one does, the start point is returned, flagged.
    best = [(math.inf, math.inf), x0.copy(), None, None]
    evaluations = 0
    lam = mu = None  # the multipliers, sized from the first record evaluated

    def lagrangian(X):
        """The augmented Lagrangian at each row of X, with evaluate's (objective,
        record); the incumbent and the counts take the rows in order."""
        nonlocal evaluations, lam, mu
        out = []
        for x, (score, record) in zip(X, evaluate(X), strict=True):
            evaluations += 1
            value = float(score)
            key = (max(record.max_violation() - tol, 0.0), value)
            if key < best[0]:
                best[:] = key, x.copy(), score, record
            elif best[3] is None:
                best[2:] = score, record
            if lam is None:  # before the finiteness check: the start may score inf
                lam, mu = np.zeros(len(record.equalities)), np.zeros(len(record.inequalities))
            if not np.isfinite(value):
                out.append((math.inf, (score, record)))
                continue
            g, h = record.equality_vector(), record.inequality_vector()
            value += float(lam @ g) + 0.5 * rho * float(g @ g)
            shifted = np.clip(mu + rho * h, 0.0, None)
            value += float(np.sum(shifted**2 - mu**2)) / (2.0 * rho)
            out.append((value, (score, record)))
        return out

    f0, _ = lagrangian(x0[None])[0][1]

    history: list[dict] = []
    x = x0
    prev_infeas = math.inf
    for outer in range(opts.outer_iterations):
        budget = opts.subproblem_budget
        scale = max(opts.step_decay**outer, 0.05)
        chunk = max(n + 2, opts.subproblem_budget // (opts.restarts + 1))
        x_sub, f_sub, at_sub, used = _nelder_mead(lagrangian, x, scale * step_vec, chunk)
        budget -= used
        while budget > n + 2:
            if restart_sampler is not None:
                start = restart_sampler(rng)
            else:
                start = x_sub + step_vec * rng.standard_normal(n)
            cand, f_cand, at_cand, used = _nelder_mead(
                lagrangian, start, scale * step_vec, min(chunk, budget)
            )
            budget -= used
            if f_cand < f_sub:
                x_sub, f_sub, at_sub = cand, f_cand, at_cand
        x = x_sub

        # Nelder-Mead returns an evaluated vertex, so x is not evaluated again.
        score, record = at_sub
        infeas = record.max_violation()
        lam = np.clip(lam + rho * record.equality_vector(), -_MULTIPLIER_BOUND, _MULTIPLIER_BOUND)
        mu = np.clip(mu + rho * record.inequality_vector(), 0.0, _MULTIPLIER_BOUND)
        history.append(
            {
                "outer": outer,
                "rho": rho,
                "objective": float(score),
                "infeasibility": infeas,
                "evaluations": evaluations,
            }
        )
        if infeas > 0.25 * prev_infeas and infeas > tol:
            rho = min(rho * _PENALTY_GROWTH, _MAX_PENALTY)
        prev_infeas = infeas

    (_, objective), x, score, record = best
    infeas = record.max_violation()
    return ALResult(
        x=x,
        objective=objective,
        initial=f0,
        final=score,
        record=record,
        infeasibility=infeas,
        feasible=infeas <= tol,
        evaluations=evaluations,
        history=history,
    )


# --- trajectory design -------------------------------------------------------------


@dataclass
class DesignReport(ALResult):
    """A design's :class:`ALResult`, whose ``initial`` and ``final`` are
    :class:`InformationObjective` scores, plus what the design adds."""

    boundary_within_tolerance: bool
    subspace_rank: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "initial": dict(self.initial._asdict()),
            "final": dict(self.final._asdict()),
            "constraints": asdict(self.record),
            "feasible": self.feasible,
            "flagged": not self.feasible,
            "boundary_within_tolerance": self.boundary_within_tolerance,
            "evaluations": self.evaluations,
            "subspace_rank": self.subspace_rank,
            "seed": self.seed,
            "history": self.history,
        }


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
    total = num_params(model)
    rng = np.random.default_rng([seed, 1701])
    samples = max(80, 4 * total)
    lo, hi, vmax, amax = _joint_limits(model)
    q = rng.uniform(lo, hi, (samples, n))
    qd = rng.uniform(-vmax, vmax, (samples, n))
    qdd = rng.uniform(-amax, amax, (samples, n))
    W = regressor_batch(model, q, qd, qdd).reshape(-1, total)
    sub = identifiable_subspace(W)
    return sub.identifiable_basis, sub.rank


# Regressor bytes per design regressor call. A call's fixed cost is shared by
# the candidates that fit (two 400-sample chain3 periods), and its memory stays
# bounded whatever the simplex size; a candidate alone never splits.
_DESIGN_BLOCK_BYTES = 2**20


def design_trajectory(
    problem: DesignProblem,
    omega: float = 2.0 * math.pi * 0.1,
    harmonics: int = 5,
    opts: ALOptions | None = None,
) -> tuple[FourierTrajectory, DesignReport]:
    """Optimize Fourier coefficients for maximal identification information.

    The decision vector stacks (q0, a, b), N*(2L+1) entries. The objective is
    the information criterion of the regressor sampled over one period,
    projected onto the structurally identifiable subspace. Constraints come
    from :func:`evaluate_constraints`.
    """
    opts = opts or ALOptions()
    model = problem.model
    n = model.num_joints
    L = harmonics
    # One sin/cos grid per design, over the closed period at S + 1 times; a bad
    # period stops the design here, before 0.5 * vmax / L and the basis's SVD.
    t, grid = _period_grid(omega, L, problem.sample_rate, closed=True)
    basis, rank = _design_basis(problem, opts.seed)
    lo, hi, vmax, _ = _joint_limits(model)

    def coefficients(x: np.ndarray):
        # (q0, a, b) of x. Projected onto the rest-to-rest subspace, every
        # candidate satisfies the boundary equalities exactly and the search
        # fights only the inequality constraints.
        q0, a, b = np.split(x, [n, n + n * L])
        return q0, *_rest_to_rest(a.reshape(n, L), b.reshape(n, L))

    x0 = np.concatenate([(lo + hi) / 2.0, np.zeros(2 * n * L)])
    ab_step = np.repeat(0.5 * vmax / L, L)  # the same for a and for b
    step = np.concatenate([np.minimum(0.15 * (hi - lo), 0.5), ab_step, ab_step])

    # Candidates per regressor call: as many S-sample periods as fit the byte budget.
    per_block = max(1, _DESIGN_BLOCK_BYTES // ((t.size - 1) * n * num_params(model) * 8))

    def evaluate(X: np.ndarray) -> list[tuple[InformationObjective, ConstraintRecord]]:
        scored = []
        for start in range(0, len(X), per_block):
            rows = [_fourier_rows(*coefficients(x), *grid) for x in X[start : start + per_block]]
            # The objective reads rows [0, S) of each; row S repeats t = 0 of the period.
            states = (np.concatenate([r[i][:-1] for r in rows]) for i in range(3))
            W = regressor_batch(model, *states).reshape(len(rows), -1, num_params(model))
            for Wk, (q, qd, qdd) in zip(W, rows):
                score = information_objective(Wk @ basis, problem.gamma)
                scored.append((score, evaluate_constraints(problem, q, qd, qdd)))
        return scored

    def restart_sampler(rng: np.random.Generator) -> np.ndarray:
        # Random exciting start; coefficients() projects it onto rest-to-rest anyway.
        return np.concatenate(_random_coefficients(rng, model, L), axis=None)

    result = augmented_lagrangian_minimize(
        evaluate, x0, opts, step=step, restart_sampler=restart_sampler
    )
    boundary_ok = all(
        abs(value) <= (_BOUNDARY_VEL_TOL if name.startswith("qd_") else _BOUNDARY_ACC_TOL)
        for name, value in result.record.equalities.items()
    )
    report = DesignReport(
        **vars(result), boundary_within_tolerance=boundary_ok, subspace_rank=rank, seed=opts.seed
    )
    return FourierTrajectory(omega, L, *coefficients(result.x)), report


# Coefficient draws random_feasible_trajectory tries before giving up.
_FEASIBLE_DRAWS = 50


def random_feasible_trajectory(
    problem: DesignProblem,
    omega: float,
    harmonics: int,
    rng: np.random.Generator,
) -> FourierTrajectory | None:
    """Draw a random rest-to-rest trajectory satisfying the inequality limits.

    Coefficients are projected onto the zero start/end velocity and
    acceleration subspace and scaled down until all limit inequalities hold.
    Returns None when none of ``_FEASIBLE_DRAWS`` draws is feasible.
    """
    _, grid = _period_grid(omega, harmonics, problem.sample_rate, closed=True)
    for _ in range(_FEASIBLE_DRAWS):
        q0, a, b = _random_coefficients(rng, problem.model, harmonics)
        a, b = _rest_to_rest(a, b)
        for scale in 0.5 ** np.arange(12):
            q, qd, qdd = _fourier_rows(q0, scale * a, scale * b, *grid)
            ineq = evaluate_constraints(problem, q, qd, qdd).inequality_vector()
            if ineq.size == 0 or np.max(ineq) <= 0.0:
                if np.any(scale * np.abs(a) > 1e-9):
                    return FourierTrajectory(omega, harmonics, q0, scale * a, scale * b)
                break
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


def trajectory_from_dict(data: dict, where="trajectory") -> FourierTrajectory:
    """Inverse of :func:`trajectory_to_dict`. A stored ``duration`` must be
    the period 2 pi / ``base_frequency`` to within rounding; a missing or
    malformed entry, or one the trajectory rejects, raises :class:`ExciteError`
    naming ``where``."""
    entry = partial(json_entry, data, where=where, error=ExciteError)
    fields = (
        entry("base_frequency", kind=()), entry("harmonics", kind=int),
        entry("offsets", kind=(None,)), entry("sine_coeffs", kind=(None, None)),
        entry("cosine_coeffs", kind=(None, None)),
    )
    try:
        traj = FourierTrajectory(*fields)
    except ExciteError as exc:
        raise ExciteError(f"{where}: {exc}") from None
    stored = entry("duration", kind=(), default=traj.duration)
    if not math.isclose(stored, traj.duration, rel_tol=1e-12):
        raise ExciteError(
            f"{where}: duration {stored} s is not 2 pi / base_frequency = {traj.duration} s"
        )
    return traj


def save_trajectory(path, traj: FourierTrajectory, provenance: dict | None = None) -> None:
    write_json(path, {"trajectory": trajectory_to_dict(traj), "provenance": provenance or {}})


def load_trajectory(path) -> tuple[FourierTrajectory, dict]:
    payload = read_json(path, ExciteError)
    spec = json_entry(payload, "trajectory", path, error=ExciteError)
    return trajectory_from_dict(spec, f"{path} trajectory"), payload.get("provenance", {})


def export_trajectory_csv(path, traj: FourierTrajectory, rate: float) -> None:
    """Sampled replay file: ``t,q_*,qd_*,qdd_*`` rows."""
    t, q, qd, qdd = sample_trajectory(traj, rate, include_endpoint=True)
    n = traj.num_joints
    header = ["t"] + [f"{prefix}_{i + 1}" for prefix in ("q", "qd", "qdd") for i in range(n)]
    write_csv(path, header, float_rows(np.column_stack([t, q, qd, qdd])))


def problem_fingerprint(problem: DesignProblem, omega: float, harmonics: int) -> str:
    """Stable hash of the design setup, for provenance blocks."""
    return json_hash(
        {
            "model": model_to_dict(problem.model),
            "sample_rate": problem.sample_rate,
            "gamma": problem.gamma,
            "obstacles": [[o.center.tolist(), o.radius] for o in problem.obstacles],
            "link_spheres": [
                [[s.center.tolist(), s.radius] for s in spheres]
                for spheres in problem.link_collision_spheres
            ],
            "omega": omega,
            "harmonics": harmonics,
        }
    )
