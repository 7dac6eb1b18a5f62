import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_dynamics import _random_chain
from test_dynamics import _random_states as _chain_states

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
    payload_fixed_mask,
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
from armid.signals import default_identification_prior, identification_prior
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
            ranks.append(identifiable_subspace(stack.materialize().W).rank)
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
        W = _noiseless_stack(model, rng, count=300).materialize().W
        report = identifiable_subspace(W)
        sigma_max = report.singular_values[0]
        for k in range(report.unidentifiable_basis.shape[1]):
            v = report.unidentifiable_basis[:, k]
            assert np.linalg.norm(W @ v) <= DEFAULT_SVD_THRESHOLD * sigma_max * 1.01

    @pytest.mark.parametrize("fixture, count", [("chain3", 200), ("arm7", 100)])
    def test_thin_split_matches_full_svd(self, fixture, count):
        model = builtin_fixture(fixture).model
        W = _noiseless_stack(model, np.random.default_rng(5), count=count).materialize().W
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
    def test_long_stack_peak_is_small_multiple_of_W(self, estimator, peak_bytes):
        truth = pack_params(builtin_fixture("arm7").model)
        rng = np.random.default_rng(9)
        W = rng.standard_normal((20_000, truth.size))
        T = W @ truth + 1e-2 * rng.standard_normal(W.shape[0])
        stack = RegressorStack(
            W=W, w0=np.zeros(W.shape[0]), T=T,
            free_mask=np.ones(truth.size, dtype=bool),
        )
        if estimator == "ols":
            _, peak = peak_bytes(lambda: ols_identify(least_squares(stack), prior=truth))
        else:
            _, peak = peak_bytes(lambda: consistent_identify(least_squares(stack), truth))
        assert peak <= 1.5 * W.nbytes

    def test_model_stack_peak_follows_the_block_not_the_log(self, peak_bytes):
        # A stack_regressor stack is factored without its W ever existing:
        # the peak is a few blocks of rows, so a log twice as long costs no more.
        model = builtin_fixture("arm7").model
        peaks = {}
        for count in (20_000, 40_000):
            rng = np.random.default_rng(9)
            q, qd, qdd = _random_states(model, rng, count)
            stack = stack_regressor(model, q, qd, qdd, rng.standard_normal(q.shape))
            _, peaks[count] = peak_bytes(lambda: least_squares(stack))
        W_bytes = 20_000 * model.num_joints * stack.free_mask.size * 8
        assert peaks[20_000] < W_bytes / 4, f"peak {peaks[20_000] / W_bytes:.3f}x W"
        assert peaks[40_000] <= 1.1 * peaks[20_000]


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
    grad, hess = np.zeros(x.size), np.zeros((x.size, x.size))
    lmis.add_derivatives(x, 1.0, grad, hess)
    return grad, hess


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
        zero_slots = np.argwhere(~lmis.bases.any(axis=(2, 3)))
        np.testing.assert_array_equal(zero_slots, [[1, 1], [1, 4], [1, 8]])  # link 1's fixed slots
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
            full = stack.materialize()
            b = full.T - full.w0
            d = full.W.shape[1]
            points = [rng.standard_normal(d) for _ in range(4)]
            points.append(ols_identify(system).alpha_hat)
            if name == "noiseless":
                points.append(truth)
            for alpha in points:
                r = full.W @ alpha - b
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
        stack = stack.materialize()
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
        result = payload_identify(least_squares(stack))
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
            result = payload_identify(least_squares(stack))
            assert result.params.mass >= 0.0
            assert result.pseudo_inertia_min_eig > 0.0

    def test_composite_semantics(self):
        # m12 = m1 + m2, h12 = h1 + h2, I12 = I1 + I2 between base, difference,
        # and the re-identified composite link
        payload = solid_sphere_params(0.3, 0.04, [0.02, 0.01, 0.08])
        stack, truth = self._stack_with_payload(payload)
        result = payload_identify(least_squares(stack))
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
        result = payload_identify(least_squares(stack))
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
            payload_identify(least_squares(stack))


def _tight_barrier_minimize(A, y, rho_sq, lmis, log_indices, x0):
    """Reference barrier path: every stage centered to 1e-11 * (1 + f), mu
    shrinking by 0.2 from the same start to the same 1e-10."""
    AtA, Aty = A.T @ A, A.T @ y

    def f_quad(x):
        r = A @ x - y
        return float(r @ r) + rho_sq

    x = x0.copy()
    log_x = identify._log_barrier(x, lmis, log_indices)
    f_x = f_quad(x)
    n_terms = max(1, lmis.index.shape[0] * 4 + log_indices.size)
    mu = max(1e-6, (abs(f_x) + 1.0) / n_terms)
    mu_values, objective_values, newton_counts = [], [], []
    while True:
        iterations = 0
        for _ in range(60):
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
            if decrement <= 0 or 0.5 * decrement < 1e-11 * (1.0 + abs(f_x)):
                break
            phi0 = f_x - mu * log_x
            t, accepted = 1.0, False
            for _ in range(60):
                cand = x + t * step
                log_cand = identify._log_barrier(cand, lmis, log_indices)
                if log_cand is not None:
                    f_cand = f_quad(cand)
                    if f_cand - mu * log_cand <= phi0 - 1e-4 * t * decrement:
                        x, f_x, log_x, accepted = cand, f_cand, log_cand, True
                        break
                t *= 0.5
            iterations += 1
            if not accepted:
                break
        mu_values.append(mu)
        objective_values.append(f_x)
        newton_counts.append(iterations)
        if mu <= 1e-10:
            break
        mu = max(mu * 0.2, 1e-10)
    trace = BarrierTrace(
        tuple(mu_values), tuple(objective_values), tuple(newton_counts), True, n_terms * mu
    )
    return x, trace


def _against_tight_path(estimate, system, *args):
    """``estimate(system, *args)`` on the barrier's own path and on the reference's."""
    result = estimate(system, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identify, "_barrier_minimize", _tight_barrier_minimize)
        reference = estimate(system, *args)
    return result, reference


def _assert_same_optimum(result, reference):
    f, f_ref = result.trace.objective_path[-1], reference.trace.objective_path[-1]
    assert abs(f - f_ref) <= 1e-9 * (1.0 + f_ref), (f, f_ref)
    assert result.trace.converged


def _arm7_payload_system(noise, seed):
    model = builtin_fixture("arm7").model
    base = pack_params(model)
    loaded = base.copy()
    loaded[-13:-3] = combine_inertial(
        model.inertial_params[-1], solid_sphere_params(0.4271, 0.05, [0.0, 0.02, 0.1])
    ).to_vector()[:10]
    rng = np.random.default_rng(seed)
    q, qd, qdd = _random_states(model, rng, 300)
    tau = inverse_dynamics_batch(unpack_params(loaded, model), q, qd, qdd)
    tau = tau * (1.0 + noise * rng.standard_normal(tau.shape))
    mask = payload_fixed_mask(model.num_joints)
    return least_squares(stack_regressor(model, q, qd, qdd, tau, fixed_mask=mask, fixed_values=base))


class TestBarrierPath:
    """Stages before the last are centered only as tightly as the next mu needs."""

    def test_newton_steps_stay_within_budget(self):
        # Centering every stage tightly, with mu shrinking by 0.2, took 54 and
        # 103 Newton steps on these two systems; the payload ends on the boundary.
        model = builtin_fixture("chain3").model
        stack = _noiseless_stack(model, np.random.default_rng(8), noise=0.02, noise_seed=9)
        robot = consistent_identify(least_squares(stack), identification_prior(model))
        payload = payload_identify(_arm7_payload_system(0.01, 5))
        assert payload.boundary_warning
        assert sum(robot.trace.newton_iterations) <= 30
        assert sum(payload.trace.newton_iterations) <= 65

    @pytest.mark.parametrize("name", ["pendulum1", "planar2", "chain3", "arm7"])
    def test_fixtures_reach_the_tight_path_optimum(self, name):
        model = builtin_fixture(name).model
        system = least_squares(
            _noiseless_stack(model, np.random.default_rng(4), count=200, noise=0.05)
        )
        result, reference = _against_tight_path(
            consistent_identify, system, identification_prior(model)
        )
        _assert_same_optimum(result, reference)
        assert all(report.feasible for report in result.link_feasibility)

    @given(
        model=_random_chain(),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(0.0, 1.0),
    )
    def test_random_chains_reach_the_tight_path_optimum(self, model, seed, noise):
        rng = np.random.default_rng(seed)
        q, qd, qdd = _chain_states(model, rng, 60)
        tau = inverse_dynamics_batch(model, q, qd, qdd)
        tau = tau + noise * np.std(tau) * rng.standard_normal(tau.shape)
        system = least_squares(stack_regressor(model, q, qd, qdd, tau))
        result, reference = _against_tight_path(
            consistent_identify, system, identification_prior(model)
        )
        _assert_same_optimum(result, reference)
        assert all(report.feasible for report in result.link_feasibility)

    @pytest.mark.parametrize("noise", [0.0, 0.01, 0.05])
    def test_payload_reaches_the_tight_path_optimum(self, noise):
        result, reference = _against_tight_path(payload_identify, _arm7_payload_system(noise, 5))
        _assert_same_optimum(result, reference)
        assert result.pseudo_inertia_min_eig > 0.0
        assert result.boundary_warning == reference.boundary_warning


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
        for length in (0.0, -0.3, np.nan, np.inf):  # -0.3 once gave negative percentages
            with pytest.raises(IdentifyError, match="char_length must be finite and > 0"):
                error_metrics(p, p, length)


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


class TestRandomChains:
    def test_a_start_next_to_the_boundary_is_not_used(self):
        # A rotor inertia of 1e-275 is positive, but the barrier's curvature
        # mu / x**2 overflows there, so the default prior starts instead.
        model = builtin_fixture("planar2").model
        edge = pack_params(model)
        edge[12] = 1e-275
        prior = identification_prior(unpack_params(edge, model))
        np.testing.assert_array_equal(prior, default_identification_prior(2))

    @given(
        model=_random_chain(),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(0.0, 1.0),
    )
    def test_consistent_estimate_is_feasible_on_every_link(self, model, seed, noise):
        # Noise as large as the torques themselves pushes the least-squares
        # optimum out of the feasible set, so the barrier's constraints bind.
        rng = np.random.default_rng(seed)
        q, qd, qdd = _chain_states(model, rng, 60)
        tau = inverse_dynamics_batch(model, q, qd, qdd)
        tau = tau + noise * np.std(tau) * rng.standard_normal(tau.shape)
        system = least_squares(stack_regressor(model, q, qd, qdd, tau))
        result = consistent_identify(system, identification_prior(model))
        assert all(report.feasible for report in result.link_feasibility)

    @given(
        model=_random_chain(),
        seed=st.integers(0, 2**32 - 1),
        mass=st.floats(0.01, 2.0),
        radius=st.floats(0.01, 0.2),
        com=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
        noise=st.floats(0.0, 0.5),
    )
    def test_payload_mass_is_never_negative(self, model, seed, mass, radius, com, noise):
        base = pack_params(model)
        loaded = base.copy()
        last = slice(len(base) - 13, len(base) - 3)
        loaded[last] = combine_inertial(
            model.inertial_params[-1], solid_sphere_params(mass, radius, com)
        ).to_vector()[:10]
        rng = np.random.default_rng(seed)
        q, qd, qdd = _chain_states(model, rng, 60)
        tau = inverse_dynamics_batch(unpack_params(loaded, model), q, qd, qdd)
        tau = tau + noise * np.std(tau) * rng.standard_normal(tau.shape)
        mask = payload_fixed_mask(model.num_joints)
        stack = stack_regressor(model, q, qd, qdd, tau, fixed_mask=mask, fixed_values=base)
        result = payload_identify(least_squares(stack))
        assert result.params.mass >= 0.0
