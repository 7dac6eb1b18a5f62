"""Parameter estimation from stacked regressor data.

Three estimators share the measurement model ``T = W alpha + w0`` and one
factorization of it: :func:`least_squares` compresses a stack to a
:class:`LeastSquares` system, and every estimator reads that system.

* :func:`ols_identify` - unconstrained least squares restricted to the
  identifiable subspace, unidentifiable directions filled from a prior.
* :func:`consistent_identify` - the same residual plus a regularizer, subject
  to per-link pseudo-inertia positive definiteness and nonnegative friction
  and rotor terms. The problem is convex; it is solved to global optimality
  by a path-following log-det barrier method with Newton inner iterations.
* :func:`payload_identify` - re-identification of the last link with a
  grasped object, estimating the parameter difference under a positive
  definite pseudo-inertia constraint on both the difference and the
  composite link.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .dynamics import RegressorStack
from .model import (
    FeasibilityReport,
    INERTIAL_PARAMS_PER_LINK,
    LinkInertialParams,
    PARAMS_PER_LINK,
    inertia_about_com,
    is_physically_feasible,
    pseudo_inertia,
    rigid_body_to_dict,
)

DEFAULT_SVD_THRESHOLD = 1e-8


class IdentifyError(Exception):
    """Base error for identification failures."""


class InfeasiblePriorError(IdentifyError):
    """The barrier starting point is not strictly feasible."""


class BarrierError(IdentifyError):
    """Newton iteration on the barrier subproblem failed."""


@dataclass(frozen=True)
class SubspaceReport:
    """Rank-revealing split of parameter space for a given regressor."""

    rank: int
    identifiable_basis: np.ndarray
    unidentifiable_basis: np.ndarray
    singular_values: np.ndarray
    threshold: float
    left_vectors: np.ndarray  # U of the SVD, one column per singular value

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "singular_values": self.singular_values.tolist(),
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class BarrierTrace:
    """Path-following record: one entry per barrier stage."""

    mu_path: tuple[float, ...]
    objective_path: tuple[float, ...]
    newton_iterations: tuple[int, ...]


@dataclass(frozen=True)
class IdentificationResult:
    alpha_hat: np.ndarray
    residual: float
    link_feasibility: tuple[FeasibilityReport, ...]
    subspace: SubspaceReport
    method: str
    trace: BarrierTrace | None = None

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "alpha": self.alpha_hat.tolist(),
            "residual": self.residual,
            "link_feasibility": [asdict(r) for r in self.link_feasibility],
            "subspace": self.subspace.as_dict(),
            "trace": asdict(self.trace) if self.trace else None,
        }


@dataclass(frozen=True)
class PayloadResult:
    params: LinkInertialParams
    pseudo_inertia_min_eig: float
    composite_min_eig: float
    residual: float
    boundary_warning: bool
    object_frame_note: str
    trace: BarrierTrace

    def as_dict(self) -> dict:
        return {
            **rigid_body_to_dict(self.params),
            "pseudo_inertia_min_eig": self.pseudo_inertia_min_eig,
            "composite_min_eig": self.composite_min_eig,
            "residual": self.residual,
            "boundary_warning": self.boundary_warning,
            "object_frame_note": self.object_frame_note,
            "trace": asdict(self.trace),
        }


def identifiable_subspace(W: np.ndarray) -> SubspaceReport:
    """Split parameter directions by whether they influence the data.

    Directions whose singular value exceeds ``DEFAULT_SVD_THRESHOLD *
    sigma_max`` span the identifiable subspace; the orthogonal complement is
    unidentifiable for this data matrix. Only wide ``W`` gets the full SVD,
    so that the complement is complete.
    """
    u, s, vt = np.linalg.svd(W, full_matrices=W.shape[0] < W.shape[1])
    sigma_max = s[0] if s.size else 0.0
    rank = int(np.sum(s > DEFAULT_SVD_THRESHOLD * sigma_max)) if sigma_max > 0 else 0
    singular = np.zeros(W.shape[1])
    singular[: s.size] = s
    return SubspaceReport(
        rank=rank,
        identifiable_basis=vt[:rank].T.copy(),
        unidentifiable_basis=vt[rank:].T.copy(),
        singular_values=singular,
        threshold=DEFAULT_SVD_THRESHOLD,
        left_vectors=u,
    )


@dataclass(frozen=True)
class LeastSquares:
    """The misfit ``||W x + w0 - T||^2`` of one stack, held as d-sized data.

    With ``[W | T - w0] = Q [R11 r; 0 rho]`` and ``R11 = U diag(sigma) V^T``,
    the misfit is exactly ``||G x - c||^2 + rho_sq`` for ``G = diag(sigma) V^T``
    and ``c = U^T r``; ``rho_sq`` is the squared residual orthogonal to the
    range of ``W``, read from the triangle. ``free_mask`` and ``fixed_values``
    carry the stack's parameter layout.
    """

    G: np.ndarray
    c: np.ndarray
    rho_sq: float
    subspace: SubspaceReport
    free_mask: np.ndarray | None
    fixed_values: np.ndarray | None

    @property
    def num_links(self) -> int:
        return self.free_mask.size // PARAMS_PER_LINK

    def embed(self, alpha_free: np.ndarray) -> np.ndarray:
        """Expand a free-parameter vector to the full 13N layout."""
        if self.free_mask is None:
            return np.asarray(alpha_free, dtype=float)
        full = self.fixed_values.copy()
        full[self.free_mask] = alpha_free
        return full

    def misfit(self, alpha_free: np.ndarray) -> float:
        r = self.G @ alpha_free - self.c
        return float(r @ r) + self.rho_sq


def least_squares(stack: RegressorStack) -> LeastSquares:
    """Factor a stack once into the system every estimator reads.

    One R-only QR of ``[W | T - w0]``, then the SVD of its small triangle
    (R-SVD: Chan, ACM TOMS 8(1), 1982). No S x d factor outlives the call.
    """
    S, d = stack.W.shape
    if S == 0 or d == 0:
        raise IdentifyError("no free parameters to identify" if d == 0 else "empty regressor")
    R = np.linalg.qr(np.column_stack([stack.W, stack.T - stack.w0]), mode="r")
    m = min(S, d)
    sub = identifiable_subspace(R[:m, :d])
    V = np.hstack([sub.identifiable_basis, sub.unidentifiable_basis])
    return LeastSquares(
        G=sub.singular_values[:m, None] * V[:, :m].T,
        c=sub.left_vectors.T @ R[:m, d],
        rho_sq=float(R[m:, d] @ R[m:, d]),
        subspace=sub,
        free_mask=stack.free_mask,
        fixed_values=stack.fixed_values,
    )


def _link_feasibility(system: LeastSquares, alpha_free: np.ndarray):
    links = system.embed(alpha_free).reshape(-1, PARAMS_PER_LINK)
    return tuple(is_physically_feasible(LinkInertialParams.from_vector(p), tol=0.0) for p in links)


def ols_identify(system: LeastSquares, prior: np.ndarray | None = None) -> IdentificationResult:
    """Minimum-norm least squares on the identifiable subspace.

    Unidentifiable directions are filled from the prior (zeros by default),
    so the solution is deterministic even for rank-deficient stacks.
    """
    sub = system.subspace
    r = sub.rank
    alpha = sub.identifiable_basis @ (system.c[:r] / sub.singular_values[:r])
    prior_free = _prior_free(system, prior)
    if sub.unidentifiable_basis.shape[1]:
        bun = sub.unidentifiable_basis
        alpha = alpha + bun @ (bun.T @ prior_free)
    full = system.embed(alpha)
    feas = _link_feasibility(system, alpha) if system.free_mask is not None else ()
    return IdentificationResult(
        alpha_hat=full,
        residual=system.misfit(alpha),
        link_feasibility=feas,
        subspace=sub,
        method="ols",
    )


def _prior_free(system: LeastSquares, prior: np.ndarray | None) -> np.ndarray:
    d = system.G.shape[1]
    if prior is None:
        return np.zeros(d)
    prior = np.asarray(prior, dtype=float)
    if system.free_mask is not None and prior.size == system.free_mask.size:
        return prior[system.free_mask]
    if prior.size == d:
        return prior.copy()
    raise IdentifyError(f"prior has {prior.size} entries, expected {d} or full 13N")


# --- log-det barrier machinery ---------------------------------------------------


@dataclass
class _LmiTerm:
    constant: np.ndarray
    indices: np.ndarray
    bases: np.ndarray  # (k, 4, 4) aligned with indices

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.constant + np.einsum("k,kij->ij", x[self.indices], self.bases)


# d(pseudo-inertia)/d(param) for the 10 inertial parameters: the map is linear.
_PI_BASES = np.array(
    [
        pseudo_inertia(LinkInertialParams.from_vector(unit))
        for unit in np.eye(INERTIAL_PARAMS_PER_LINK, PARAMS_PER_LINK)
    ]
)


def _log_barrier(x, lmis, log_indices) -> float | None:
    """Sum of the LMI log-dets and the logs of the positive entries at ``x``.

    None when ``x`` is not strictly feasible. One Cholesky per LMI gives both
    the verdict and the log-det, ``2 * sum(log(diag(L)))``.
    """
    total = 0.0
    if log_indices.size:
        xi = x[log_indices]
        if np.any(xi <= 0):
            return None
        total = float(np.sum(np.log(xi)))
    for term in lmis:
        try:
            chol = np.linalg.cholesky(term.value(x))
        except np.linalg.LinAlgError:
            return None
        total += 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    return total


# Barrier path: mu shrinks by _MU_SHRINK per stage until it reaches _MU_FINAL;
# each stage takes at most _NEWTON_MAX_ITER damped Newton steps.
_MU_SHRINK = 0.2
_MU_FINAL = 1e-10
_NEWTON_MAX_ITER = 60


def _barrier_minimize(
    A: np.ndarray,
    y: np.ndarray,
    rho_sq: float,
    lmis: Sequence[_LmiTerm],
    log_indices: np.ndarray,
    x0: np.ndarray,
) -> tuple[np.ndarray, BarrierTrace]:
    """Path-following minimization of ``||A x - y||^2 + rho_sq`` under LMI and
    positivity constraints.

    ``A`` has d columns and at most 2d rows, so every objective, gradient and
    Hessian costs d-sized work. Each barrier stage runs damped Newton until
    the Newton decrement is negligible, then shrinks mu geometrically by
    ``_MU_SHRINK`` down to ``_MU_FINAL``.
    """
    AtA, Aty = A.T @ A, A.T @ y

    def f_quad(x):
        r = A @ x - y
        return float(r @ r) + rho_sq

    x = x0.copy()
    log_x = _log_barrier(x, lmis, log_indices)
    if log_x is None:
        raise InfeasiblePriorError("barrier start point is not strictly interior")
    f_x = f_quad(x)

    n_terms = max(1, len(lmis) * 4 + log_indices.size)
    mu = max(1e-6, (abs(f_x) + 1.0) / n_terms)
    mu_values, objective_values, newton_counts = [], [], []

    while True:
        iterations = 0
        for _ in range(_NEWTON_MAX_ITER):
            grad = 2.0 * (AtA @ x - Aty)
            hess = 2.0 * AtA
            for term in lmis:
                J = term.value(x)
                try:
                    J_inv = np.linalg.inv(J)
                except np.linalg.LinAlgError as exc:
                    raise BarrierError("singular pseudo-inertia inside barrier") from exc
                M = np.einsum("ij,kjl->kil", J_inv, term.bases)
                grad[term.indices] -= mu * np.trace(M, axis1=1, axis2=2)
                block = mu * np.einsum("kij,lji->kl", M, M)
                hess[np.ix_(term.indices, term.indices)] += block
            if log_indices.size:
                xi = x[log_indices]
                grad[log_indices] -= mu / xi
                hess[log_indices, log_indices] += mu / xi**2

            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            decrement = float(-grad @ step)
            if decrement <= 0 or 0.5 * decrement < 1e-11 * (1.0 + abs(f_x)):
                break

            phi0 = f_x - mu * log_x
            t = 1.0
            accepted = False
            for _ in range(60):
                cand = x + t * step
                log_cand = _log_barrier(cand, lmis, log_indices)
                if log_cand is not None:
                    f_cand = f_quad(cand)
                    if f_cand - mu * log_cand <= phi0 - 1e-4 * t * decrement:
                        x, f_x, log_x = cand, f_cand, log_cand
                        accepted = True
                        break
                t *= 0.5
            iterations += 1
            if not accepted:
                break

        mu_values.append(mu)
        objective_values.append(f_x)
        newton_counts.append(iterations)
        if mu <= _MU_FINAL:
            break
        mu = max(mu * _MU_SHRINK, _MU_FINAL)

    trace = BarrierTrace(
        mu_path=tuple(mu_values),
        objective_path=tuple(objective_values),
        newton_iterations=tuple(newton_counts),
    )
    return x, trace


# Minimal ridge keeping barrier subproblems bounded when the caller asks for
# zero regularization on a rank-deficient stack.
_REGULARIZATION_FLOOR = 1e-14


def _regularized_pair(system: LeastSquares, c, target, reg_weight):
    """``(A, y)`` with ``||A x - y||^2 = ||G x - c||^2 + reg * ||P_un (x - target)||^2``.

    ``P_un`` projects onto the unidentifiable subspace, so the regularizer
    leaves identifiable directions unbiased. ``reg`` defaults to
    ``1e-3 * sigma_max^2`` and never drops below the regularization floor.
    """
    sigma_max = system.subspace.singular_values[0]
    if reg_weight is None:
        reg_weight = 1e-3 * sigma_max**2
    reg_eff = max(reg_weight, _REGULARIZATION_FLOOR * max(sigma_max**2, 1.0))
    root = np.sqrt(reg_eff) * system.subspace.unidentifiable_basis.T
    return np.vstack([system.G, root]), np.concatenate([c, root @ target])


def consistent_identify(
    system: LeastSquares, prior: np.ndarray, reg_weight: float | None = None
) -> IdentificationResult:
    """Physically consistent estimation: least squares under realizability.

    Minimizes ``||W alpha + w0 - T||^2 + reg * ||P_un (alpha - prior)||^2``
    subject to every link's pseudo-inertia being positive definite and all
    friction and rotor terms nonnegative. The regularizer acts only on the
    unidentifiable subspace so identifiable directions stay unbiased; its
    weight defaults to ``1e-3 * sigma_max^2``.

    The prior doubles as the barrier's strictly feasible starting point and
    must satisfy the constraints strictly.
    """
    if system.free_mask is None:
        raise IdentifyError("consistent_identify needs a stack with link structure")
    if reg_weight is not None and reg_weight < 0:
        raise IdentifyError("reg_weight must be >= 0")
    prior_free = _prior_free(system, prior)
    A, y = _regularized_pair(system, system.c, prior_free, reg_weight)

    lmis, log_indices = _build_link_constraints(system)
    x0 = prior_free.copy()
    if _log_barrier(x0, lmis, log_indices) is None:
        raise InfeasiblePriorError(
            "prior is not strictly feasible (pseudo-inertia PD and frictions > 0 required)"
        )
    x, trace = _barrier_minimize(A, y, system.rho_sq, lmis, log_indices, x0)

    return IdentificationResult(
        alpha_hat=system.embed(x),
        residual=system.misfit(x),
        link_feasibility=_link_feasibility(system, x),
        subspace=system.subspace,
        method="consistent",
        trace=trace,
    )


def _build_link_constraints(system: LeastSquares):
    """Per-link LMIs and positivity indices in free-parameter coordinates."""
    mask = system.free_mask
    fixed = system.fixed_values
    free_index_of = np.cumsum(mask) - 1  # full index -> free index (valid where mask)
    lmis = []
    log_indices = []
    for link in range(system.num_links):
        base = link * PARAMS_PER_LINK
        inertial = np.arange(base, base + INERTIAL_PARAMS_PER_LINK)
        free_here = mask[inertial]
        if free_here.any():
            fixed_part = np.where(free_here, 0.0, fixed[inertial])
            constant = np.einsum("k,kij->ij", fixed_part, _PI_BASES)
            idx = free_index_of[inertial[free_here]]
            bases = _PI_BASES[free_here]
            lmis.append(_LmiTerm(constant=constant, indices=idx, bases=bases))
        for slot in (10, 11, 12):
            k = base + slot
            if mask[k]:
                log_indices.append(free_index_of[k])
    return lmis, np.asarray(log_indices, dtype=int)


_OBJECT_FRAME_NOTE = (
    "parameters are expressed in the last link frame; re-express in an object "
    "frame by applying a rigid transform to (m, h, I)"
)


# Mass of the payload barrier start, kg: a 5 cm solid sphere at the link origin.
_PAYLOAD_START_MASS = 1e-3


def default_payload_start() -> np.ndarray:
    """Small strictly feasible body used as the barrier start for payloads.

    A fresh array on every call: :func:`payload_identify` shrinks it in place.
    """
    body = np.zeros(INERTIAL_PARAMS_PER_LINK)
    body[0] = _PAYLOAD_START_MASS
    body[4] = body[7] = body[9] = 0.4 * _PAYLOAD_START_MASS * 0.05**2
    return body


def payload_identify(
    system: LeastSquares,
    base_params: np.ndarray,
    reg_weight: float | None = None,
) -> PayloadResult:
    """Estimate grasped-object parameters as a last-link difference.

    The system's stack must have been built with every parameter fixed to
    ``base_params`` except the last link's 10 inertial entries. The decision
    variable is the difference ``p`` between the composite and base link;
    both ``J(p)`` and the composite ``J(base + p)`` are constrained positive
    definite, since the difference must be a real body and so must the
    loaded link.
    """
    if system.free_mask is None:
        raise IdentifyError("payload_identify needs a stack with link structure")
    n = system.num_links
    start = (n - 1) * PARAMS_PER_LINK
    last_inertial = slice(start, start + INERTIAL_PARAMS_PER_LINK)
    expected = np.zeros(n * PARAMS_PER_LINK, dtype=bool)
    expected[last_inertial] = True
    if not np.array_equal(system.free_mask, expected):
        raise IdentifyError(
            "stack must leave exactly the last link's 10 inertial parameters free"
        )
    base = np.asarray(base_params, dtype=float)
    if base.shape != (n * PARAMS_PER_LINK,):
        raise IdentifyError(f"base_params must have {n * PARAMS_PER_LINK} entries")
    base10 = base[last_inertial]

    p0 = default_payload_start()
    A, y = _regularized_pair(system, system.c - system.G @ base10, p0.copy(), reg_weight)

    indices = np.arange(INERTIAL_PARAMS_PER_LINK)
    lmi_difference = _LmiTerm(
        constant=np.zeros((4, 4)), indices=indices, bases=_PI_BASES
    )
    lmi_composite = _LmiTerm(
        constant=np.einsum("k,kij->ij", base10, _PI_BASES), indices=indices, bases=_PI_BASES
    )
    lmis = [lmi_difference, lmi_composite]
    log_indices = np.asarray([], dtype=int)

    # Shrink the generic start until both LMIs hold strictly.
    for _ in range(40):
        if _log_barrier(p0, lmis, log_indices) is not None:
            break
        p0 *= 0.5
    else:
        raise InfeasiblePriorError("could not find a strictly feasible payload start")

    p, trace = _barrier_minimize(A, y, system.rho_sq, lmis, log_indices, p0)

    diff = np.zeros(PARAMS_PER_LINK)
    diff[:INERTIAL_PARAMS_PER_LINK] = p
    params = LinkInertialParams.from_vector(diff)
    min_eig = float(np.linalg.eigvalsh(pseudo_inertia(params))[0])
    composite = LinkInertialParams.from_vector(
        np.concatenate([base10 + p, np.zeros(3)])
    )
    composite_eig = float(np.linalg.eigvalsh(pseudo_inertia(composite))[0])
    scale = 1.0 + float(np.abs(pseudo_inertia(params)).max())
    warning = min_eig < 1e-8 * scale
    return PayloadResult(
        params=params,
        pseudo_inertia_min_eig=min_eig,
        composite_min_eig=composite_eig,
        residual=system.misfit(base10 + p),
        boundary_warning=warning,
        object_frame_note=_OBJECT_FRAME_NOTE,
        trace=trace,
    )


def error_metrics(
    estimate: LinkInertialParams, truth: LinkInertialParams, char_length: float
) -> tuple[float, float, float]:
    """Percentage errors for mass, center of mass, and CoM-frame inertia.

    CoM error is normalized by a characteristic length; inertia error is the
    relative Frobenius distance between the CoM-frame inertia tensors.
    """
    if char_length == 0:
        raise IdentifyError("char_length must be nonzero")
    if truth.mass <= 0:
        raise IdentifyError("truth mass must be > 0")
    mass_pct = 100.0 * abs(estimate.mass - truth.mass) / truth.mass
    com_est = estimate.first_moment / estimate.mass
    com_true = truth.first_moment / truth.mass
    com_pct = 100.0 * float(np.linalg.norm(com_est - com_true)) / char_length
    inertia_est = inertia_about_com(estimate)
    inertia_true = inertia_about_com(truth)
    inertia_pct = 100.0 * float(
        np.linalg.norm(inertia_est - inertia_true) / np.linalg.norm(inertia_true)
    )
    return mass_pct, com_pct, inertia_pct


def nearest_base_params(
    available: Mapping[float, np.ndarray], configuration: float
) -> tuple[float, np.ndarray]:
    """Pick the base parameter set whose configuration label is closest.

    Stands in for matching the gripper opening used during robot
    identification to the opening observed while holding an object.
    """
    if not available:
        raise IdentifyError("no base parameter sets available")
    label = min(available, key=lambda k: (abs(k - configuration), k))
    return label, np.asarray(available[label], dtype=float)
