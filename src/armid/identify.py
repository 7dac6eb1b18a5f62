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

from .dynamics import ModelStack, RegressorStack
from .model import (
    ArmidError,
    FeasibilityReport,
    INERTIAL_PARAMS_PER_LINK,
    LinkInertialParams,
    PARAMS_PER_LINK,
    check_number,
    inertia_about_com,
    is_physically_feasible,
    pseudo_inertia,
    rigid_body_to_dict,
    solid_sphere_params,
)

DEFAULT_SVD_THRESHOLD = 1e-8


class IdentifyError(ArmidError):
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
    """Path-following record: one path entry per barrier stage.

    ``converged`` is True when no line search failed and the last stage met
    its Newton-decrement test. ``gap_bound`` is m * mu_final, the duality gap
    of the last stage's exact center, m counting the barrier's log terms
    (4 per LMI, 1 per positive entry).
    """

    mu_path: tuple[float, ...]
    objective_path: tuple[float, ...]
    newton_iterations: tuple[int, ...]
    converged: bool
    gap_bound: float


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
# its input twice, and a model-backed stack evaluates the block's regressor,
# so a step's peak is a few blocks, far below one copy of W.
_QR_BLOCK_ROWS = 2048


def least_squares(stack: RegressorStack | ModelStack) -> LeastSquares:
    """Factor a stack once into the system every estimator reads.

    A sequential tall-skinny QR (Demmel, Grigori, Hoemmen & Langou, SIAM J.
    Sci. Comput. 34(1), 2012) of ``[W | T - w0]``: each step asks the stack
    for its next ``_QR_BLOCK_ROWS`` rows, stacks the triangle so far on them
    and keeps only the new (d + 1)-wide triangle. A stack from
    :func:`~armid.dynamics.stack_regressor` builds each block from its
    samples, so memory follows the block, not S. One SVD of its
    top-left R11 follows (R-SVD: Chan, ACM TOMS 8(1), 1982), c = U^T r, and
    rho^2 is its last diagonal entry squared, or 0 when it has at most d rows.
    """
    S, d = stack.shape
    if S == 0 or d == 0:
        raise IdentifyError("no free parameters to identify" if d == 0 else "empty regressor")
    buf = np.empty((_QR_BLOCK_ROWS + d + 1, d + 1), order="F")
    top = 0
    for start in range(0, S, _QR_BLOCK_ROWS):
        stop = min(start + _QR_BLOCK_ROWS, S)
        rows = top + stop - start
        # Unpacked straight into buf, so no block outlives the copy.
        buf[top:rows, :d], buf[top:rows, d] = stack.rows(start, stop)
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
    """The free entries of a prior in the stack's full layout (13N, or d without links)."""
    if prior is None:
        return np.zeros(system.G.shape[1])
    prior = np.asarray(prior, dtype=float)
    mask = system.free_mask
    full = system.G.shape[1] if mask is None else mask.size
    if prior.size != full:
        raise IdentifyError(f"prior has {prior.size} entries, expected {full}")
    return prior.copy() if mask is None else prior[mask]


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
    fixed (its value folded into ``constant``) holds a zero basis and index 0:
    it adds exact zeros to J and to the derivatives.
    """

    constant: np.ndarray  # (K, 4, 4)
    bases: np.ndarray  # (K, 10, 4, 4)
    index: np.ndarray  # (K, 10), entries in [0, size)
    size: int  # free parameters: the length of x

    @cached_property
    def _hess_slots(self) -> np.ndarray:
        """Flat targets of the (K, 10, 10) Hessian blocks in a size^2 array."""
        return (self.index[:, :, None] * self.size + self.index[:, None, :]).ravel()

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.constant + np.einsum("ks,ksij->kij", x[self.index], self.bases)

    def add_derivatives(self, x, mu: float, grad: np.ndarray, hess: np.ndarray) -> None:
        """Add the gradient and Hessian of ``-mu * sum_k log det J_k(x)`` in place.

        With the bases of LMI k flattened to the rows of a (10, 16) matrix P_k,
        the gradient of ``log det J_k`` is ``P_k vec(J_k^-1)`` and its Hessian
        ``-P_k (J_k^-1 kron J_k^-1) P_k^T``. np.bincount sums entries that share
        an index, as the payload's two LMIs do.
        """
        try:
            J_inv = np.linalg.inv(self.value(x))
        except np.linalg.LinAlgError as exc:
            raise IdentifyError("singular pseudo-inertia inside barrier") from exc
        K = J_inv.shape[0]
        P = self.bases.reshape(K, INERTIAL_PARAMS_PER_LINK, 16)
        kron = (J_inv[:, :, None, :, None] * J_inv[:, None, :, None, :]).reshape(K, 16, 16)
        g = P @ J_inv.reshape(K, 16, 1)
        block = P @ kron @ P.transpose(0, 2, 1)
        grad -= mu * np.bincount(self.index.ravel(), g.ravel(), minlength=self.size)
        hess += mu * np.bincount(
            self._hess_slots, block.ravel(), minlength=self.size**2
        ).reshape(self.size, self.size)


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


# Barrier path, as _barrier_minimize describes it. With _CENTERING at 0.1 or
# more, Newton steps on some random chains landed so near the LMI boundary that
# ``inv`` failed or a link came out infeasible; at 0.03 and below none did.
_MU_SHRINK = 0.05
_CENTERING = 0.01
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
    Newton step and one batched ``cholesky`` per candidate.

    Mu shrinks geometrically by ``_MU_SHRINK`` down to ``_MU_FINAL``, and each
    stage runs damped Newton from the last stage's point. A stage before the
    last is centered only approximately, until half the Newton decrement is
    below ``_CENTERING * m * mu``, m * mu being its duality-gap scale (Boyd &
    Vandenberghe, *Convex Optimization*, 11.5); the next mu discards that
    center anyway. The last stage runs until the decrement is negligible,
    below ``1e-11 * (1 + f)``. The trace says whether the path converged: a
    failed line search or a last stage cut off at ``_NEWTON_MAX_ITER`` leaves
    ``converged`` False.
    """
    AtA, Aty = A.T @ A, A.T @ y

    def f_quad(x):
        r = A @ x - y
        return float(r @ r) + rho_sq

    x = x0.copy()
    log_x = _log_barrier(x, lmis, log_indices)
    if log_x is None:
        raise InfeasiblePriorError(
            "prior is not strictly feasible (pseudo-inertia PD and frictions > 0 required)"
        )
    f_x = f_quad(x)

    n_terms = max(1, lmis.index.shape[0] * 4 + log_indices.size)
    mu = max(1e-6, (abs(f_x) + 1.0) / n_terms)
    mu_values, objective_values, newton_counts = [], [], []
    line_searches_held = True

    while True:
        iterations, centered = 0, False
        for _ in range(_NEWTON_MAX_ITER):
            grad = 2.0 * (AtA @ x - Aty)
            hess = 2.0 * AtA
            lmis.add_derivatives(x, mu, grad, hess)
            if log_indices.size:
                xi = x[log_indices]
                grad[log_indices] -= mu / xi
                hess[log_indices, log_indices] += mu / xi**2

            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            decrement = float(-grad @ step)
            tol = 1e-11 * (1.0 + abs(f_x)) if mu <= _MU_FINAL else _CENTERING * n_terms * mu
            if decrement <= 0 or 0.5 * decrement < tol:
                centered = True
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
                line_searches_held = False
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
        converged=line_searches_held and centered,
        gap_bound=n_terms * mu,
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
    check_number(reg_weight, "reg_weight", IdentifyError)
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
    x, trace = _barrier_minimize(A, y, system.rho_sq, lmis, log_indices, prior_free)

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
        index=np.where(free, free_index_of[inertial], 0),
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
    """Small strictly feasible body used as the barrier start for payloads."""
    body = solid_sphere_params(_PAYLOAD_START_MASS, 0.05, np.zeros(3))
    return body.to_vector()[:INERTIAL_PARAMS_PER_LINK]


def payload_fixed_mask(num_links: int) -> np.ndarray:
    """The ``fixed_mask`` of a payload stack: every parameter is held at the
    base values except the last link's 10 inertial entries."""
    mask = np.ones(num_links * PARAMS_PER_LINK, dtype=bool)
    start = (num_links - 1) * PARAMS_PER_LINK
    mask[start : start + INERTIAL_PARAMS_PER_LINK] = False
    return mask


def payload_identify(system: LeastSquares, reg_weight: float | None = None) -> PayloadResult:
    """Estimate grasped-object parameters as a last-link difference.

    The system's stack must have been built with ``fixed_mask =
    payload_fixed_mask(N)``; its ``fixed_values`` are the base parameters,
    the last link's included. The decision variable is the difference ``p``
    between the composite and base link; both ``J(p)`` and the composite
    ``J(base + p)`` are constrained positive definite, since the difference
    must be a real body and so must the loaded link. A base last link that is
    not itself a body raises :class:`InfeasiblePriorError`.
    """
    if system.free_mask is None:
        raise IdentifyError("payload_identify needs a stack with link structure")
    free = ~payload_fixed_mask(system.num_links)
    if not np.array_equal(system.free_mask, free):
        raise IdentifyError(
            "stack must leave exactly the last link's 10 inertial parameters free"
        )
    base10 = system.fixed_values[free]

    p0 = default_payload_start()
    A, y = _regularized_pair(system, system.c - system.G @ base10, p0, reg_weight)

    lmis = _payload_constraints(base10)
    log_indices = np.asarray([], dtype=int)
    try:  # J(p0) is PD: if J(base10 + p0) is not, neither is J(base10), and no smaller p0 helps
        p, trace = _barrier_minimize(A, y, system.rho_sq, lmis, log_indices, p0)
    except InfeasiblePriorError:
        raise InfeasiblePriorError(
            "the base parameters' last link is not physically consistent "
            "(its pseudo-inertia is not positive definite)"
        ) from None

    params = LinkInertialParams.from_vector(np.concatenate([p, np.zeros(3)]))
    composite = LinkInertialParams.from_vector(np.concatenate([base10 + p, np.zeros(3)]))
    J = pseudo_inertia(params)
    min_eig = float(np.linalg.eigvalsh(J)[0])
    composite_eig = float(np.linalg.eigvalsh(pseudo_inertia(composite))[0])
    warning = min_eig < 1e-8 * (1.0 + float(np.abs(J).max()))
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
) -> tuple[float, float | None, float | None]:
    """Percentage errors for mass, center of mass, and CoM-frame inertia.

    CoM error is normalized by a characteristic length; inertia error is the
    relative Frobenius distance between the CoM-frame inertia tensors. An
    estimate with mass <= 0 has neither, and both read None.
    """
    check_number(char_length, "char_length", IdentifyError, positive=True)
    check_number(truth.mass, "truth mass", IdentifyError, positive=True)
    mass_pct = 100.0 * abs(estimate.mass - truth.mass) / truth.mass
    if estimate.mass <= 0:
        return mass_pct, None, None
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
    if not np.isfinite(configuration):  # NaN would pick the first label
        raise IdentifyError(f"configuration must be finite, got {configuration}")
    label = min(available, key=lambda k: (abs(k - configuration), k))
    return label, np.asarray(available[label], dtype=float)
