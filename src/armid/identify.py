"""Parameter estimation from stacked regressor data.

Three estimators share the measurement model ``T = W alpha + w0`` and one
factorization of it: :func:`least_squares` folds ``[W | T - w0]`` into one
triangle, a block of rows at a time, and compresses it to a
:class:`LeastSquares` system of d-sized data that every estimator reads.

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
from functools import cached_property
from typing import Mapping

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


@dataclass(frozen=True)
class SubspaceReport:
    """Rank-revealing split of parameter space for a given regressor."""

    rank: int
    identifiable_basis: np.ndarray
    unidentifiable_basis: np.ndarray
    singular_values: np.ndarray
    left_vectors: np.ndarray  # U of the SVD, one column per singular value

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "singular_values": self.singular_values.tolist(),
            "threshold": DEFAULT_SVD_THRESHOLD,
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


_OBJECT_FRAME_NOTE = (
    "parameters are expressed in the last link frame; re-express in an object "
    "frame by applying a rigid transform to (m, h, I)"
)


@dataclass(frozen=True)
class PayloadResult:
    params: LinkInertialParams
    pseudo_inertia_min_eig: float
    composite_min_eig: float
    residual: float
    boundary_warning: bool
    trace: BarrierTrace

    def as_dict(self) -> dict:
        return {
            **rigid_body_to_dict(self.params),
            "pseudo_inertia_min_eig": self.pseudo_inertia_min_eig,
            "composite_min_eig": self.composite_min_eig,
            "residual": self.residual,
            "boundary_warning": self.boundary_warning,
            "object_frame_note": _OBJECT_FRAME_NOTE,
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


# Rows of the stack folded into the triangle per QR step. np.linalg.qr copies
# its input twice, so a step's peak is a few blocks, far below one copy of W.
_QR_BLOCK_ROWS = 2048


def least_squares(stack: RegressorStack) -> LeastSquares:
    """Factor a stack once into the system every estimator reads.

    A sequential tall-skinny QR (Demmel, Grigori, Hoemmen & Langou, SIAM J.
    Sci. Comput. 34(1), 2012) of ``[W | T - w0]``: each step stacks the
    triangle so far on the next ``_QR_BLOCK_ROWS`` rows and keeps only the new
    (d + 1)-wide triangle, so memory follows the block, not S. One SVD of its
    top-left R11 follows (R-SVD: Chan, ACM TOMS 8(1), 1982), c = U^T r, and
    rho^2 is its last diagonal entry squared, or 0 when it has at most d rows.
    """
    S, d = stack.W.shape
    if S == 0 or d == 0:
        raise IdentifyError("no free parameters to identify" if d == 0 else "empty regressor")
    buf = np.empty((_QR_BLOCK_ROWS + d + 1, d + 1), order="F")
    top = 0
    for start in range(0, S, _QR_BLOCK_ROWS):
        stop = min(start + _QR_BLOCK_ROWS, S)
        rows = top + stop - start
        buf[top:rows, :d] = stack.W[start:stop]
        np.subtract(stack.T[start:stop], stack.w0[start:stop], out=buf[top:rows, d])
        R = np.linalg.qr(buf[:rows], mode="r")
        top = R.shape[0]
        buf[:top] = R
    k = min(top, d)
    sub = identifiable_subspace(buf[:k, :d])
    V = np.hstack([sub.identifiable_basis, sub.unidentifiable_basis])
    return LeastSquares(
        G=sub.singular_values[:k, None] * V[:, :k].T,
        c=sub.left_vectors.T @ buf[:k, d],
        rho_sq=float(buf[d, d] ** 2) if top > d else 0.0,
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


# d(pseudo-inertia)/d(param) for the 10 inertial parameters: the map is linear.
_PI_BASES = np.array(
    [
        pseudo_inertia(LinkInertialParams.from_vector(unit))
        for unit in np.eye(INERTIAL_PARAMS_PER_LINK, PARAMS_PER_LINK)
    ]
)


@dataclass(frozen=True)
class _Lmis:
    """K pseudo-inertia LMIs ``J_k(x) = constant[k] + sum_s x[index[k, s]] bases[k, s] > 0``.

    Every LMI has one slot per inertial parameter. A slot whose parameter is
    fixed (its value folded into ``constant``) holds a zero basis and the
    dummy index ``size``, the number of free parameters: it reads a zero
    appended to ``x``, and its derivatives land in an entry that is dropped.
    """

    constant: np.ndarray  # (K, 4, 4)
    bases: np.ndarray  # (K, 10, 4, 4)
    index: np.ndarray  # (K, 10), entries in [0, size]
    size: int

    @cached_property
    def _hess_slots(self) -> np.ndarray:
        """Flat targets of the (K, 10, 10) Hessian blocks in a (size + 1)^2 array."""
        d1 = self.size + 1
        return (self.index[:, :, None] * d1 + self.index[:, None, :]).ravel()

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.constant + np.einsum(
            "ks,ksij->kij", np.append(x, 0.0)[self.index], self.bases
        )

    def add_derivatives(self, x, mu: float, grad: np.ndarray, hess: np.ndarray) -> None:
        """Add the gradient and Hessian of ``-mu * sum_k log det J_k(x)`` in place.

        ``grad`` and ``hess`` have ``size + 1`` entries per axis, the last for
        the dummy slots. ufunc.at adds in LMI order and sums entries that share
        an index, as the payload's two LMIs do.
        """
        try:
            J_inv = np.linalg.inv(self.value(x))
        except np.linalg.LinAlgError as exc:
            raise IdentifyError("singular pseudo-inertia inside barrier") from exc
        M = np.einsum("kij,ksjl->ksil", J_inv, self.bases)
        np.subtract.at(grad, self.index.ravel(), mu * np.trace(M, axis1=2, axis2=3).ravel())
        block = np.einsum("ksij,ktji->kst", M, M)
        np.add.at(hess.reshape(-1), self._hess_slots, mu * block.ravel())


def _log_barrier(x, lmis: _Lmis, log_indices) -> float | None:
    """Sum of the LMI log-dets and the logs of the positive entries at ``x``.

    None when ``x`` is not strictly feasible. One batched Cholesky gives both
    the verdict and the log-dets, ``2 * sum(log(diag(L)))``.
    """
    total = 0.0
    if log_indices.size:
        xi = x[log_indices]
        if np.any(xi <= 0):
            return None
        total = float(np.sum(np.log(xi)))
    try:
        chol = np.linalg.cholesky(lmis.value(x))
    except np.linalg.LinAlgError:
        return None
    return total + 2.0 * float(np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))))


# Barrier path: mu shrinks by _MU_SHRINK per stage until it reaches _MU_FINAL;
# each stage takes at most _NEWTON_MAX_ITER damped Newton steps.
_MU_SHRINK = 0.2
_MU_FINAL = 1e-10
_NEWTON_MAX_ITER = 60


def _barrier_minimize(
    A: np.ndarray,
    y: np.ndarray,
    rho_sq: float,
    lmis: _Lmis,
    log_indices: np.ndarray,
    x0: np.ndarray,
) -> tuple[np.ndarray, BarrierTrace]:
    """Path-following minimization of ``||A x - y||^2 + rho_sq`` under LMI and
    positivity constraints.

    ``A`` has d columns and at most 2d rows, so every objective, gradient and
    Hessian costs d-sized work, and the LMIs take one batched ``inv`` per
    Newton step and one batched ``cholesky`` per candidate. Each barrier stage
    runs damped Newton until the Newton decrement is negligible, then shrinks
    mu geometrically by ``_MU_SHRINK`` down to ``_MU_FINAL``.
    """
    AtA, Aty = A.T @ A, A.T @ y
    # Gradient and Hessian with one more entry per axis for the LMIs' dummy slots.
    grad_pad, hess_pad = np.zeros(x0.size + 1), np.zeros((x0.size + 1, x0.size + 1))
    grad, hess = grad_pad[:-1], hess_pad[:-1, :-1]

    def f_quad(x):
        r = A @ x - y
        return float(r @ r) + rho_sq

    x = x0.copy()
    log_x = _log_barrier(x, lmis, log_indices)
    if log_x is None:
        raise InfeasiblePriorError("barrier start point is not strictly interior")
    f_x = f_quad(x)

    n_terms = max(1, lmis.index.shape[0] * 4 + log_indices.size)
    mu = max(1e-6, (abs(f_x) + 1.0) / n_terms)
    mu_values, objective_values, newton_counts = [], [], []

    while True:
        iterations = 0
        for _ in range(_NEWTON_MAX_ITER):
            grad[:] = 2.0 * (AtA @ x - Aty)
            hess[:] = 2.0 * AtA
            lmis.add_derivatives(x, mu, grad_pad, hess_pad)
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
    leaves identifiable directions unbiased. ``reg`` must be finite and >= 0;
    it defaults to ``1e-3 * sigma_max^2`` and never drops below the
    regularization floor.
    """
    sigma_max = system.subspace.singular_values[0]
    if reg_weight is None:
        reg_weight = 1e-3 * sigma_max**2
    elif not 0.0 <= reg_weight < np.inf:  # NaN fails too
        raise IdentifyError(f"reg_weight must be finite and >= 0, got {reg_weight}")
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
    """Link LMIs and positivity indices in free-parameter coordinates.

    One LMI per link with at least one free inertial parameter.
    """
    mask = system.free_mask
    free_index_of = np.cumsum(mask) - 1  # full index -> free index (valid where mask)
    links = np.arange(mask.size).reshape(-1, PARAMS_PER_LINK)
    inertial = links[:, :INERTIAL_PARAMS_PER_LINK]
    inertial = inertial[mask[inertial].any(axis=1)]
    free = mask[inertial]
    fixed_part = np.where(free, 0.0, system.fixed_values[inertial])
    lmis = _Lmis(
        constant=np.einsum("ks,sij->kij", fixed_part, _PI_BASES),
        bases=free[:, :, None, None] * _PI_BASES,
        index=np.where(free, free_index_of[inertial], mask.sum()),
        size=int(mask.sum()),
    )
    positive = links[:, INERTIAL_PARAMS_PER_LINK:].ravel()
    return lmis, free_index_of[positive[mask[positive]]]


def _payload_constraints(base10: np.ndarray) -> _Lmis:
    """J(p) and the composite J(base10 + p): two LMIs on the same ten parameters."""
    return _Lmis(
        constant=np.stack([np.zeros((4, 4)), np.einsum("s,sij->ij", base10, _PI_BASES)]),
        bases=np.stack([_PI_BASES, _PI_BASES]),
        index=np.tile(np.arange(INERTIAL_PARAMS_PER_LINK), (2, 1)),
        size=INERTIAL_PARAMS_PER_LINK,
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


def payload_fixed_mask(num_links: int) -> np.ndarray:
    """The ``fixed_mask`` of a payload stack: every parameter is held at the
    base values except the last link's 10 inertial entries."""
    mask = np.ones(num_links * PARAMS_PER_LINK, dtype=bool)
    start = (num_links - 1) * PARAMS_PER_LINK
    mask[start : start + INERTIAL_PARAMS_PER_LINK] = False
    return mask


def payload_identify(
    system: LeastSquares,
    base_params: np.ndarray,
    reg_weight: float | None = None,
) -> PayloadResult:
    """Estimate grasped-object parameters as a last-link difference.

    The system's stack must have been built with ``fixed_mask =
    payload_fixed_mask(N)`` and ``fixed_values = base_params``. The decision
    variable is the difference ``p`` between the composite and base link;
    both ``J(p)`` and the composite ``J(base + p)`` are constrained positive
    definite, since the difference must be a real body and so must the
    loaded link.
    """
    if system.free_mask is None:
        raise IdentifyError("payload_identify needs a stack with link structure")
    n = system.num_links
    free = ~payload_fixed_mask(n)
    if not np.array_equal(system.free_mask, free):
        raise IdentifyError(
            "stack must leave exactly the last link's 10 inertial parameters free"
        )
    base = np.asarray(base_params, dtype=float)
    if base.shape != (n * PARAMS_PER_LINK,):
        raise IdentifyError(f"base_params must have {n * PARAMS_PER_LINK} entries")
    base10 = base[free]

    p0 = default_payload_start()
    A, y = _regularized_pair(system, system.c - system.G @ base10, p0.copy(), reg_weight)

    lmis = _payload_constraints(base10)
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
