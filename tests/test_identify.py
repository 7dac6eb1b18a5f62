import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from armid import identify
from armid.dynamics import RegressorStack, inverse_dynamics_batch, stack_regressor
from armid.identify import (
    DEFAULT_SVD_THRESHOLD,
    BarrierTrace,
    IdentifyError,
    InfeasiblePriorError,
    consistent_identify,
    default_payload_start,
    error_metrics,
    identifiable_subspace,
    least_squares,
    nearest_base_params,
    ols_identify,
    payload_identify,
)
from armid.model import (
    LinkInertialParams,
    combine_inertial,
    pack_params,
    pseudo_inertia,
    solid_sphere_params,
    unpack_params,
)
from armid.signals import identification_prior
from armid.simulate import builtin_fixture


def _random_states(model, rng, count):
    n = model.num_joints
    q = rng.uniform(-2.0, 2.0, (count, n))
    qd = rng.uniform(-2.0, 2.0, (count, n))
    qdd = rng.uniform(-6.0, 6.0, (count, n))
    return q, qd, qdd


def _noiseless_stack(model, rng, count=400, noise=0.0, noise_seed=0):
    q, qd, qdd = _random_states(model, rng, count)
    tau = inverse_dynamics_batch(model, q, qd, qdd)
    if noise:
        nrng = np.random.default_rng(noise_seed)
        tau = tau + noise * nrng.standard_normal(tau.shape)
    return stack_regressor(model, q, qd, qdd, tau)


class TestSubspace:
    def test_identity_with_dead_column(self):
        W = np.hstack([np.eye(3), np.zeros((3, 1))])
        report = identifiable_subspace(W)
        assert report.rank == 3
        assert report.unidentifiable_basis.shape == (4, 1)
        np.testing.assert_allclose(
            np.abs(report.unidentifiable_basis[:, 0]), [0, 0, 0, 1], atol=1e-12
        )

    def test_duplicate_columns(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal((20, 1))
        W = np.hstack([col, col, rng.standard_normal((20, 2))])
        assert identifiable_subspace(W).rank == 3

    def test_pendulum_rank_stable(self):
        # structural rank of the 1-link regressor, frozen from the fixture and
        # checked across independent random trajectories
        model = builtin_fixture("pendulum1").model
        ranks = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            stack = _noiseless_stack(model, rng, count=200)
            ranks.append(identifiable_subspace(stack.W).rank)
        assert len(set(ranks)) == 1
        # of 13: h_x, h_z, viscous, coulomb, and I_yy lumped with the rotor
        # inertia (indistinguishable for a single link, both multiply qdd)
        assert ranks[0] == 5

    def test_bases_orthogonal(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((30, 8)) @ np.diag([1, 1, 1, 1, 1e-12, 1e-12, 1e-12, 1e-12])
        report = identifiable_subspace(W)
        assert report.rank == 4
        cross = report.identifiable_basis.T @ report.unidentifiable_basis
        np.testing.assert_allclose(cross, 0.0, atol=1e-10)

    def test_perturbation_along_unidentifiable_is_silent(self):
        model = builtin_fixture("chain3").model
        rng = np.random.default_rng(2)
        stack = _noiseless_stack(model, rng, count=300)
        report = identifiable_subspace(stack.W)
        sigma_max = report.singular_values[0]
        for k in range(report.unidentifiable_basis.shape[1]):
            v = report.unidentifiable_basis[:, k]
            assert np.linalg.norm(stack.W @ v) <= DEFAULT_SVD_THRESHOLD * sigma_max * 1.01

    @pytest.mark.parametrize("fixture, count", [("chain3", 200), ("arm7", 100)])
    def test_thin_split_matches_full_svd(self, fixture, count):
        model = builtin_fixture(fixture).model
        stack = _noiseless_stack(model, np.random.default_rng(5), count=count)
        W = stack.W
        assert W.shape[0] > W.shape[1]
        report = identifiable_subspace(W)
        _, s_ref, vt_ref = np.linalg.svd(W, full_matrices=True)
        rank_ref = int(np.sum(s_ref > DEFAULT_SVD_THRESHOLD * s_ref[0]))
        assert report.rank == rank_ref
        np.testing.assert_allclose(
            report.singular_values, s_ref, rtol=1e-12, atol=1e-12 * s_ref[0]
        )
        for basis, ref in (
            (report.identifiable_basis, vt_ref[:rank_ref].T),
            (report.unidentifiable_basis, vt_ref[rank_ref:].T),
        ):
            np.testing.assert_allclose(basis @ basis.T, ref @ ref.T, atol=1e-10)
        Q = np.hstack([report.identifiable_basis, report.unidentifiable_basis])
        assert Q.shape == (W.shape[1], W.shape[1])
        np.testing.assert_allclose(Q.T @ Q, np.eye(W.shape[1]), atol=1e-12)

    def test_wide_stack_gets_complete_complement(self):
        W = np.random.default_rng(6).standard_normal((5, 12))
        report = identifiable_subspace(W)
        assert report.rank == 5
        assert report.unidentifiable_basis.shape == (12, 7)
        np.testing.assert_allclose(W @ report.unidentifiable_basis, 0.0, atol=1e-12)
        Q = np.hstack([report.identifiable_basis, report.unidentifiable_basis])
        np.testing.assert_allclose(Q.T @ Q, np.eye(12), atol=1e-12)


class TestOls:
    def test_normal_equations_scalar(self):
        stack = RegressorStack(W=np.array([[1.0], [1.0]]), w0=np.zeros(2), T=np.array([1.0, 3.0]))
        result = ols_identify(least_squares(stack))
        np.testing.assert_allclose(result.alpha_hat, [2.0])
        assert result.residual == pytest.approx(2.0)

    def test_noiseless_roundtrip_projection(self):
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        rng = np.random.default_rng(3)
        stack = _noiseless_stack(model, rng)
        result = ols_identify(least_squares(stack), prior=truth)
        B = result.subspace.identifiable_basis
        err = np.linalg.norm(B.T @ (result.alpha_hat - truth))
        assert err / np.linalg.norm(B.T @ truth) < 1e-8

    def test_prior_fills_unidentifiable(self):
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        rng = np.random.default_rng(4)
        stack = _noiseless_stack(model, rng)
        result = ols_identify(least_squares(stack), prior=truth)
        Bun = result.subspace.unidentifiable_basis
        np.testing.assert_allclose(
            Bun.T @ result.alpha_hat, Bun.T @ truth, atol=1e-8
        )

    def test_empty_stack_rejected(self):
        stack = RegressorStack(W=np.zeros((0, 0)), w0=np.zeros(0), T=np.zeros(0))
        with pytest.raises(IdentifyError):
            least_squares(stack)

    def test_no_free_columns_rejected(self):
        model = builtin_fixture("planar2").model
        q, qd, qdd = _random_states(model, np.random.default_rng(14), 20)
        tau = inverse_dynamics_batch(model, q, qd, qdd)
        truth = pack_params(model)
        stack = stack_regressor(
            model, q, qd, qdd, tau, fixed_mask=np.ones(truth.size, dtype=bool),
            fixed_values=truth,
        )
        with pytest.raises(IdentifyError, match="no free parameters"):
            least_squares(stack)

    def test_wide_stack_minimum_norm(self):
        W = np.random.default_rng(7).standard_normal((5, 12))
        T = np.random.default_rng(8).standard_normal(5)
        stack = RegressorStack(W=W, w0=np.zeros(5), T=T)
        result = ols_identify(least_squares(stack))
        np.testing.assert_allclose(result.alpha_hat, np.linalg.pinv(W) @ T, atol=1e-12)


class TestMemory:
    """Identification memory grows with the log length, never with its square."""

    @pytest.mark.parametrize("estimator", ["ols", "consistent"])
    def test_long_stack_peak_is_small_multiple_of_W(self, estimator):
        truth = pack_params(builtin_fixture("arm7").model)
        rng = np.random.default_rng(9)
        W = rng.standard_normal((20_000, truth.size))
        T = W @ truth + 1e-2 * rng.standard_normal(W.shape[0])
        stack = RegressorStack(
            W=W, w0=np.zeros(W.shape[0]), T=T,
            free_mask=np.ones(truth.size, dtype=bool),
        )
        tracemalloc.start()
        try:
            if estimator == "ols":
                ols_identify(least_squares(stack), prior=truth)
            else:
                consistent_identify(least_squares(stack), truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * W.nbytes


def _per_link_derivatives(bodies, slots, d):
    """Reference gradient and Hessian of ``-sum log det J``, one LMI at a time.

    ``bodies`` holds each LMI's ten inertial parameters; ``slots`` maps each
    LMI's free inertial slots to free-parameter indices.
    """
    unit = [pseudo_inertia(LinkInertialParams.from_vector(e)) for e in np.eye(10, 13)]
    grad, hess = np.zeros(d), np.zeros((d, d))
    for body, link_slots in zip(bodies, slots):
        J_inv = np.linalg.inv(pseudo_inertia(LinkInertialParams.from_vector(np.r_[body, 0, 0, 0])))
        for s, i in link_slots.items():
            grad[i] -= np.trace(J_inv @ unit[s])
            for t, j in link_slots.items():
                hess[i, j] += np.trace(J_inv @ unit[s] @ J_inv @ unit[t])
    return grad, hess


def _batched_derivatives(lmis, x):
    grad, hess = np.zeros(x.size + 1), np.zeros((x.size + 1, x.size + 1))
    lmis.add_derivatives(x, 1.0, grad, hess)
    # The dummy slots' entries are dropped, and must hold nothing.
    assert grad[-1] == 0 and not hess[-1].any() and not hess[:, -1].any()
    return grad[:-1], hess[:-1, :-1]


class TestBatchedLmis:
    """All LMIs of a barrier are held and differentiated as one batch."""

    def test_partly_fixed_link_matches_per_link_reference(self):
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        fixed = np.zeros(truth.size, dtype=bool)
        fixed[[13 + 1, 13 + 4, 13 + 8, 13 + 10]] = True  # link 1: h_x, I_xx, I_yz, friction
        q, qd, qdd = _random_states(model, np.random.default_rng(5), 60)
        tau = inverse_dynamics_batch(model, q, qd, qdd)
        system = least_squares(
            stack_regressor(model, q, qd, qdd, tau, fixed_mask=fixed, fixed_values=truth)
        )
        lmis, _ = identify._build_link_constraints(system)
        assert lmis.index.shape == (3, 10)
        assert np.sum(lmis.index == system.G.shape[1]) == 3  # link 1's padded slots
        x = truth[~fixed] * np.linspace(0.9, 1.1, np.sum(~fixed))
        free_index = np.cumsum(~fixed) - 1
        slots = [
            {s: free_index[13 * link + s] for s in range(10) if not fixed[13 * link + s]}
            for link in range(3)
        ]
        bodies = system.embed(x).reshape(3, 13)[:, :10]
        grad_ref, hess_ref = _per_link_derivatives(bodies, slots, x.size)
        grad, hess = _batched_derivatives(lmis, x)
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-12, atol=1e-12 * np.abs(grad_ref).max())
        np.testing.assert_allclose(hess, hess_ref, rtol=1e-12, atol=1e-12 * np.abs(hess_ref).max())

    def test_payload_lmis_sum_their_shared_entries(self):
        base10 = pack_params(builtin_fixture("chain3").model)[26:36]
        p = default_payload_start() * np.linspace(1.0, 2.0, 10)
        slots = [dict(enumerate(range(10)))] * 2
        grad_ref, hess_ref = _per_link_derivatives([p, base10 + p], slots, 10)
        grad, hess = _batched_derivatives(identify._payload_constraints(base10), p)
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-12, atol=1e-12 * np.abs(grad_ref).max())
        np.testing.assert_allclose(hess, hess_ref, rtol=1e-12, atol=1e-12 * np.abs(hess_ref).max())

    @pytest.mark.parametrize("name", ["planar2", "arm7"])
    def test_linalg_calls_per_step_do_not_grow_with_links(self, name, monkeypatch):
        model = builtin_fixture(name).model
        system = least_squares(_noiseless_stack(model, np.random.default_rng(6), noise=1e-2))
        prior = identification_prior(model)
        calls = Counter()
        for attr in ("cholesky", "inv", "solve"):
            real = getattr(np.linalg, attr)

            def counted(*args, _attr=attr, _real=real, **kwargs):
                calls[_attr] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, attr, counted)
        real_barrier = identify._log_barrier

        def counted_barrier(x, lmis, log_indices):
            # A point that fails the positivity terms never reaches the LMIs.
            calls["lmi_checks"] += bool(np.all(x[log_indices] > 0))
            return real_barrier(x, lmis, log_indices)

        monkeypatch.setattr(identify, "_log_barrier", counted_barrier)
        result = consistent_identify(system, prior)
        steps = sum(result.trace.newton_iterations)
        # One batched Cholesky per LMI check and one batched inverse per
        # Newton step (the solve beside it), whatever the link count. A stage
        # may end on a step it computes but does not take.
        assert calls["cholesky"] == calls["lmi_checks"] > steps > 0
        assert calls["inv"] == calls["solve"]
        assert steps <= calls["inv"] <= steps + len(result.trace.mu_path)


class TestConsistent:
    def test_matches_ols_when_interior(self):
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        rng = np.random.default_rng(5)
        system = least_squares(_noiseless_stack(model, rng))
        r_ols = ols_identify(system, prior=truth)
        assert all(f.feasible for f in r_ols.link_feasibility)
        r_cons = consistent_identify(system, truth)
        rel = np.linalg.norm(r_cons.alpha_hat - r_ols.alpha_hat)
        assert rel / np.linalg.norm(r_ols.alpha_hat) < 1e-6

    def test_rigged_negative_mass_is_repaired(self):
        # tiny last link plus torque noise: the unconstrained difference goes
        # negative, the constrained estimate cannot
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        tiny = solid_sphere_params(0.002, 0.03, [0.05, 0.0, 0.0])
        vec = truth.copy()
        vec[26:36] = tiny.to_vector()[:10]
        rigged = unpack_params(vec, model)
        rng = np.random.default_rng(0)
        q, qd, qdd = _random_states(rigged, rng, 300)
        tau = inverse_dynamics_batch(rigged, q, qd, qdd)
        tau += 0.05 * np.random.default_rng(0).standard_normal(tau.shape)
        mask = np.ones(39, dtype=bool)
        mask[26:36] = False
        stack = stack_regressor(rigged, q, qd, qdd, tau, fixed_mask=mask, fixed_values=vec)

        system = least_squares(stack)
        r_ols = ols_identify(system)
        assert r_ols.alpha_hat[26] < 0  # frozen seed: OLS mass is negative
        r_cons = consistent_identify(system, vec)
        assert r_cons.alpha_hat[26] > 0
        assert all(f.feasible for f in r_cons.link_feasibility)
        assert r_cons.residual >= r_ols.residual

    def test_residual_ordering_with_regularization(self):
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        rng = np.random.default_rng(6)
        system = least_squares(_noiseless_stack(model, rng, noise=0.05, noise_seed=7))
        r_ols = ols_identify(system, prior=truth)
        r_cons = consistent_identify(system, truth)
        r_reg = consistent_identify(system, truth, reg_weight=1.0)
        slack = 1e-9 * (1.0 + r_ols.residual)
        assert r_ols.residual <= r_cons.residual + slack
        assert r_cons.residual <= r_reg.residual + slack

    def test_barrier_objective_monotone(self):
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        rng = np.random.default_rng(8)
        stack = _noiseless_stack(model, rng, noise=0.02, noise_seed=9)
        result = consistent_identify(least_squares(stack), truth)
        path = np.asarray(result.trace.objective_path)
        assert np.all(np.diff(path) <= 1e-8 * (1.0 + np.abs(path[:-1])))

    def test_infeasible_prior_rejected(self):
        model = builtin_fixture("chain3").model
        rng = np.random.default_rng(10)
        stack = _noiseless_stack(model, rng, count=200)
        with pytest.raises(InfeasiblePriorError):
            consistent_identify(least_squares(stack), np.zeros(39))

    def test_active_constraint_matches_schur_bound(self):
        # one free mass pulled negative by the data: the optimum must sit on
        # the pseudo-inertia boundary m = h^T Sigma^-1 h, here exactly 0.5
        base = LinkInertialParams(
            1.0, np.array([0.1, 0.0, 0.05]), 0.05 * np.eye(3), 0.1, 0.1, 1e-3
        )
        fixed = base.to_vector()
        free_mask = np.zeros(13, dtype=bool)
        free_mask[0] = True
        A = np.ones((40, 1))
        stack = RegressorStack(
            W=A, w0=np.zeros(40), T=A[:, 0] * (-0.5),
            free_mask=free_mask, fixed_values=fixed,
        )
        result = consistent_identify(least_squares(stack), fixed, reg_weight=0.0)
        sigma = 0.5 * np.trace(base.rotational_inertia) * np.eye(3) - base.rotational_inertia
        bound = float(base.first_moment @ np.linalg.solve(sigma, base.first_moment))
        assert result.alpha_hat[0] == pytest.approx(bound, abs=1e-6)
        assert result.link_feasibility[0].feasible

    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
    def test_reg_weight_must_be_finite_and_nonnegative(self, weight):
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        system = least_squares(_noiseless_stack(model, np.random.default_rng(6), count=50))
        with pytest.raises(IdentifyError, match="reg_weight must be finite and >= 0"):
            consistent_identify(system, truth, reg_weight=weight)

    def test_objective_convexity_midpoint(self, monkeypatch):
        # The compressed misfit equals the direct one on every kind of stack,
        # down to the noiseless optimum, and is a convex quadratic; with
        # 64-row blocks the 300-row stacks fold through five QR steps, and
        # 16-row blocks, narrower than d = 39, start from a wide triangle.
        for block_rows in (identify._QR_BLOCK_ROWS, 64, 16):
            monkeypatch.setattr(identify, "_QR_BLOCK_ROWS", block_rows)
            self._check_misfit_and_convexity()

    @staticmethod
    def _check_misfit_and_convexity():
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        rng = np.random.default_rng(11)
        dead = rng.standard_normal((30, 8))
        dead[:, 5] = dead[:, 2]
        stacks = {
            "noiseless": _noiseless_stack(model, rng, count=100),
            "tall": _noiseless_stack(model, rng, count=100, noise=0.05, noise_seed=3),
            "wide": RegressorStack(
                W=rng.standard_normal((5, 12)), w0=rng.standard_normal(5),
                T=rng.standard_normal(5),
            ),
            "rank_deficient": RegressorStack(W=dead, w0=np.zeros(30), T=rng.standard_normal(30)),
        }
        for name, stack in stacks.items():
            system = least_squares(stack)
            b = stack.T - stack.w0
            d = stack.W.shape[1]
            points = [rng.standard_normal(d) for _ in range(4)]
            points.append(ols_identify(system).alpha_hat)
            if name == "noiseless":
                points.append(truth)
            for alpha in points:
                r = stack.W @ alpha - b
                direct = float(r @ r)
                assert abs(system.misfit(alpha) - direct) <= 1e-12 * direct + 1e-24 * (b @ b), name
            for _ in range(10):
                a1 = rng.standard_normal(d)
                a2 = rng.standard_normal(d)
                mid = system.misfit(0.5 * (a1 + a2))
                assert mid <= 0.5 * (system.misfit(a1) + system.misfit(a2)) + 1e-9

    def test_memory_layout_does_not_change_estimates(self):
        # The same stack stored row-major and column-major gives the same bytes.
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        stack = _noiseless_stack(model, np.random.default_rng(2), noise=0.05, noise_seed=2)
        results = []
        for order in ("C", "F"):
            system = least_squares(replace(stack, W=np.asarray(stack.W, order=order)))
            results.append(
                json.dumps([ols_identify(system, prior=truth).as_dict(),
                            consistent_identify(system, truth).as_dict()])
            )
        assert results[0] == results[1]


class TestPayload:
    def _stack_with_payload(self, payload, noise=0.0, noise_seed=0, count=400):
        fixture = builtin_fixture("chain3")
        model = fixture.model
        truth = pack_params(model)
        loaded_vec = truth.copy()
        loaded_vec[26:36] = combine_inertial(
            model.inertial_params[2], payload
        ).to_vector()[:10]
        loaded = unpack_params(loaded_vec, model)
        rng = np.random.default_rng(12)
        q, qd, qdd = _random_states(model, rng, count)
        tau = inverse_dynamics_batch(loaded, q, qd, qdd)
        if noise:
            tau = tau + noise * np.random.default_rng(noise_seed).standard_normal(tau.shape)
        mask = np.ones(39, dtype=bool)
        mask[26:36] = False
        stack = stack_regressor(model, q, qd, qdd, tau, fixed_mask=mask, fixed_values=truth)
        return stack, truth

    def test_noiseless_sphere_recovery(self):
        payload = solid_sphere_params(0.5, 0.05, [0.0, 0.0, 0.10])
        stack, truth = self._stack_with_payload(payload)
        result = payload_identify(least_squares(stack), truth)
        assert abs(result.params.mass - 0.5) / 0.5 < 1e-6
        np.testing.assert_allclose(
            result.params.first_moment, payload.first_moment, atol=1e-6
        )
        assert not result.boundary_warning
        assert result.pseudo_inertia_min_eig > 0

    def test_zero_mass_payload_never_negative(self):
        zero = LinkInertialParams(0.0, np.zeros(3), np.zeros((3, 3)))
        for seed in range(5):
            stack, truth = self._stack_with_payload(
                zero, noise=0.05, noise_seed=seed, count=200
            )
            result = payload_identify(least_squares(stack), truth)
            assert result.params.mass >= 0.0
            assert result.pseudo_inertia_min_eig > 0.0

    def test_composite_semantics(self):
        # m12 = m1 + m2, h12 = h1 + h2, I12 = I1 + I2 between base, difference,
        # and the re-identified composite link
        payload = solid_sphere_params(0.3, 0.04, [0.02, 0.01, 0.08])
        stack, truth = self._stack_with_payload(payload)
        result = payload_identify(least_squares(stack), truth)
        base_last = LinkInertialParams.from_vector(
            np.concatenate([truth[26:36], np.zeros(3)])
        )
        composite = combine_inertial(base_last, result.params)
        expected = combine_inertial(base_last, payload)
        np.testing.assert_allclose(composite.mass, expected.mass, atol=1e-6)
        np.testing.assert_allclose(composite.first_moment, expected.first_moment, atol=1e-6)
        np.testing.assert_allclose(
            composite.rotational_inertia, expected.rotational_inertia, atol=1e-6
        )

    def test_payload_linearity_of_two_bodies(self):
        # identifying a composite of two known bodies and subtracting one
        # recovers the other
        b1 = solid_sphere_params(0.4, 0.05, [0.0, 0.0, 0.06])
        b2 = solid_sphere_params(0.25, 0.03, [0.03, 0.0, 0.10])
        both = combine_inertial(b1, b2)
        stack, truth = self._stack_with_payload(both)
        result = payload_identify(least_squares(stack), truth)
        recovered_b2 = LinkInertialParams(
            result.params.mass - b1.mass,
            result.params.first_moment - b1.first_moment,
            result.params.rotational_inertia - b1.rotational_inertia,
        )
        np.testing.assert_allclose(recovered_b2.mass, b2.mass, atol=1e-6)
        np.testing.assert_allclose(recovered_b2.first_moment, b2.first_moment, atol=1e-6)

    def test_wrong_mask_rejected(self):
        model = builtin_fixture("chain3").model
        truth = pack_params(model)
        rng = np.random.default_rng(13)
        stack = _noiseless_stack(model, rng, count=50)
        with pytest.raises(IdentifyError, match="last link"):
            payload_identify(least_squares(stack), truth)


class TestErrorMetrics:
    def test_exact_estimate(self):
        p = solid_sphere_params(1.0, 0.1, [0.05, 0.0, 0.02])
        assert error_metrics(p, p, 0.3) == (0.0, 0.0, 0.0)

    def test_mass_percentage(self):
        truth = solid_sphere_params(1.0, 0.1, [0.0, 0.0, 0.0])
        est = solid_sphere_params(0.9, 0.1, [0.0, 0.0, 0.0])
        mass_pct, _, _ = error_metrics(est, truth, 0.3)
        assert mass_pct == pytest.approx(10.0)

    def test_hand_computed_perturbation(self):
        # CoM moved 3 mm against a 0.3 m scale -> 1%; inertia scaled by 1.1
        # about the CoM -> 10% Frobenius
        truth = solid_sphere_params(2.0, 0.1, [0.10, 0.0, 0.0])
        inertia_com = (2.0 / 5.0) * 2.0 * 0.1**2 * np.eye(3)
        from armid.model import params_from_com

        est = params_from_com(2.0, [0.103, 0.0, 0.0], 1.1 * inertia_com)
        mass_pct, com_pct, inertia_pct = error_metrics(est, truth, 0.3)
        assert mass_pct == pytest.approx(0.0, abs=1e-12)
        assert com_pct == pytest.approx(100.0 * 0.003 / 0.3, rel=1e-9)
        assert inertia_pct == pytest.approx(10.0, rel=1e-9)

    def test_zero_char_length_rejected(self):
        p = solid_sphere_params(1.0, 0.1, [0.0, 0.0, 0.0])
        with pytest.raises(IdentifyError):
            error_metrics(p, p, 0.0)


class TestBaseParamSelection:
    def test_nearest_label(self):
        sets = {0.02: np.full(13, 1.0), 0.06: np.full(13, 2.0), 0.10: np.full(13, 3.0)}
        label, params = nearest_base_params(sets, 0.055)
        assert label == 0.06
        assert params[0] == 2.0

    def test_tie_breaks_low(self):
        sets = {0.0: np.zeros(13), 1.0: np.ones(13)}
        label, _ = nearest_base_params(sets, 0.5)
        assert label == 0.0

    def test_empty_rejected(self):
        with pytest.raises(IdentifyError):
            nearest_base_params({}, 0.5)
