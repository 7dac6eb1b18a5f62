import math

import numpy as np
import pytest

from armid import excite
from armid.dynamics import regressor_batch
from armid.excite import (
    ALOptions,
    ConstraintRecord,
    DesignProblem,
    ExciteError,
    FourierTrajectory,
    Sphere,
    _design_basis,
    augmented_lagrangian_minimize,
    design_trajectory,
    evaluate_constraints,
    fourier_eval,
    information_objective,
    load_trajectory,
    random_feasible_trajectory,
    sample_trajectory,
    save_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
)
from armid.simulate import FIXTURE_NAMES, builtin_fixture


def _traj(n=2, L=3, omega=2 * math.pi * 0.1, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return FourierTrajectory(
        base_frequency=omega,
        harmonics=L,
        offsets=rng.uniform(-0.5, 0.5, n),
        sine_coeffs=scale * rng.standard_normal((n, L)),
        cosine_coeffs=scale * rng.standard_normal((n, L)),
    )


def _constraints(traj, problem):
    _, q, qd, qdd = sample_trajectory(traj, problem.sample_rate, include_endpoint=True)
    return evaluate_constraints(problem, q, qd, qdd)


class TestFourier:
    def test_zero_coefficients_hold_still(self):
        traj = FourierTrajectory(1.0, 2, np.array([0.3, -0.4]), np.zeros((2, 2)), np.zeros((2, 2)))
        for t in (0.0, 1.0, traj.duration):
            q, qd, qdd = fourier_eval(traj, t)
            np.testing.assert_allclose(q, [0.3, -0.4])
            np.testing.assert_allclose(qd, 0.0)
            np.testing.assert_allclose(qdd, 0.0)

    def test_derivatives_match_finite_differences(self):
        traj = _traj(seed=3)
        eps = 1e-6
        for t in (0.9, 3.3, 7.7):
            q_m, _, _ = fourier_eval(traj, t - eps)
            q_p, _, _ = fourier_eval(traj, t + eps)
            q, qd, qdd = fourier_eval(traj, t)
            np.testing.assert_allclose(qd, (q_p - q_m) / (2 * eps), atol=1e-6)
            _, qd_m, _ = fourier_eval(traj, t - eps)
            _, qd_p, _ = fourier_eval(traj, t + eps)
            np.testing.assert_allclose(qdd, (qd_p - qd_m) / (2 * eps), atol=1e-6)

    def test_single_harmonic_velocity_amplitude(self):
        omega = 2 * math.pi * 0.25
        a = np.array([[omega]])
        traj = FourierTrajectory(omega, 1, np.zeros(1), a, np.zeros((1, 1)))
        q, qd, _ = fourier_eval(traj, 0.0)
        assert q[0] == pytest.approx(0.0)
        assert qd[0] == pytest.approx(omega)

    def test_periodicity_over_full_period(self):
        traj = _traj(seed=5)
        q0, qd0, qdd0 = fourier_eval(traj, 0.0)
        qT, qdT, qddT = fourier_eval(traj, traj.duration)
        np.testing.assert_allclose(q0, qT, atol=1e-9)
        np.testing.assert_allclose(qd0, qdT, atol=1e-9)
        np.testing.assert_allclose(qdd0, qddT, atol=1e-9)

    def test_time_outside_rejected(self):
        traj = _traj()
        with pytest.raises(ExciteError):
            fourier_eval(traj, -0.5)
        with pytest.raises(ExciteError):
            fourier_eval(traj, traj.duration + 0.5)

    def test_sampling_grid(self):
        traj = _traj()
        t, q, qd, qdd = sample_trajectory(traj, 10.0)
        assert t.size == round(traj.duration * 10.0)
        assert q.shape == (t.size, 2)

    def test_endpoint_grid_ends_at_duration(self):
        # 0.06 Hz at 20 Hz: duration * rate = 333.3 rounds down to 333 steps.
        traj = _traj(omega=2 * math.pi * 0.06, seed=4)
        problem = DesignProblem(model=builtin_fixture("planar2").model, sample_rate=20.0)
        t, *_ = sample_trajectory(traj, problem.sample_rate, include_endpoint=True)
        assert t.size == 334
        assert t[-1] == traj.duration
        record = _constraints(traj, problem)
        for when, at in (("start", 0.0), ("end", traj.duration)):
            _, qd, qdd = fourier_eval(traj, at)
            for i, name in enumerate(("shoulder", "elbow")):
                assert record.equalities[f"qd_{when}_{name}"] == pytest.approx(qd[i], abs=1e-12)
                assert record.equalities[f"qdd_{when}_{name}"] == pytest.approx(qdd[i], abs=1e-12)


class TestInformationObjective:
    def test_identity_matrix(self):
        info = information_objective(np.eye(4), gamma=0.25)
        assert info.f_c == pytest.approx(1.0)
        assert info.f_e == pytest.approx(-1.0)
        assert info.value == pytest.approx(0.75)

    def test_diag_two_one(self):
        info = information_objective(np.diag([2.0, 1.0]), gamma=0.1)
        assert info.f_c == pytest.approx(2.0)
        assert info.f_e == pytest.approx(-1.0)
        assert info.value == pytest.approx(1.9)
        assert info.lambda_max == pytest.approx(4.0)

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((100, 5))
        info = information_objective(W, gamma=0.3)
        lam = np.linalg.eigvalsh(W.T @ W)
        assert info.lambda_min == pytest.approx(lam[0], rel=1e-9)
        assert info.lambda_max == pytest.approx(lam[-1], rel=1e-9)
        assert info.value == pytest.approx(
            math.sqrt(lam[-1] / lam[0]) - 0.3 * lam[0], rel=1e-9
        )

    def test_scale_invariance_of_condition_number(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((50, 4))
        base = information_objective(W, gamma=0.0)
        scaled = information_objective(3.0 * W, gamma=0.0)
        assert scaled.f_c == pytest.approx(base.f_c, rel=1e-9)
        assert scaled.f_e == pytest.approx(9.0 * base.f_e, rel=1e-9)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((40, 4))
        perm = rng.permutation(40)
        base = information_objective(W, gamma=0.1)
        shuffled = information_objective(W[perm], gamma=0.1)
        assert shuffled.value == pytest.approx(base.value, rel=1e-9)

    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_gram_eigenvalues_match_svd(self, fixture):
        model = builtin_fixture(fixture).model
        problem = DesignProblem(model=model, sample_rate=20.0)
        traj = random_feasible_trajectory(problem, 2 * math.pi * 0.1, 3, np.random.default_rng(5))
        _, q, qd, qdd = sample_trajectory(traj, problem.sample_rate)
        basis, _ = _design_basis(problem, seed=5)
        G = regressor_batch(model, q, qd, qdd).reshape(-1, 13 * model.num_joints) @ basis
        sv = np.linalg.svd(G, compute_uv=False)
        info = information_objective(G, gamma=0.1)
        assert info.lambda_min == pytest.approx(sv[-1] ** 2, rel=1e-6)
        assert info.lambda_max == pytest.approx(sv[0] ** 2, rel=1e-6)
        assert info.f_c == pytest.approx(sv[0] / sv[-1], rel=1e-6)

    def test_rank_deficiency_reports_infinite(self):
        W = np.hstack([np.ones((5, 1)), np.ones((5, 1))])
        info = information_objective(W, gamma=0.1)
        assert math.isinf(info.value)
        assert math.isinf(info.f_c)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ExciteError):
            information_objective(np.ones((2, 5)), gamma=0.1)


class TestConstraints:
    def _problem(self, **kwargs):
        model = builtin_fixture("planar2").model
        return DesignProblem(model=model, sample_rate=20.0, **kwargs)

    def test_resting_trajectory_feasible(self):
        problem = self._problem()
        traj = FourierTrajectory(
            2 * math.pi * 0.1, 3, np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3))
        )
        record = _constraints(traj, problem)
        assert all(v <= 0 for v in record.inequalities.values())
        assert all(v == 0 for v in record.equalities.values())

    def test_position_violation_named(self):
        problem = self._problem()
        # offset beyond the upper limit of the shoulder
        traj = FourierTrajectory(
            2 * math.pi * 0.1, 3, np.array([2.5, 0.0]), np.zeros((2, 3)), np.zeros((2, 3))
        )
        record = _constraints(traj, problem)
        assert record.inequalities["pos_upper_shoulder"] > 0

    def test_limit_margins_match_per_joint_reference(self):
        problem = self._problem()
        traj = _traj(seed=12, scale=1.5)
        _, q, qd, qdd = sample_trajectory(traj, problem.sample_rate, include_endpoint=True)
        record = evaluate_constraints(problem, q, qd, qdd)

        def lse(v, beta=excite._LSE_BETA):
            m = np.max(v)
            return m + np.log(np.sum(np.exp(beta * (v - m)))) / beta

        for i, joint in enumerate(problem.model.joint_specs):
            lo, hi = joint.position_limits
            reference = {
                "pos_upper": lse(q[:, i] - hi),
                "pos_lower": lse(lo - q[:, i]),
                "vel": lse(np.concatenate([qd[:, i], -qd[:, i]]) - joint.velocity_limit),
                "acc": lse(np.concatenate([qdd[:, i], -qdd[:, i]]) - joint.acceleration_limit),
            }
            for kind, value in reference.items():
                assert record.inequalities[f"{kind}_{joint.name}"] == pytest.approx(
                    value, rel=1e-12, abs=1e-12
                )

    def test_boundary_residuals_match_direct_evaluation(self):
        problem = self._problem()
        traj = _traj(seed=11)
        record = _constraints(traj, problem)
        _, qd0, qdd0 = fourier_eval(traj, 0.0)
        _, qdT, qddT = fourier_eval(traj, traj.duration)
        assert record.equalities["qd_start_shoulder"] == pytest.approx(qd0[0], abs=1e-12)
        assert record.equalities["qd_end_elbow"] == pytest.approx(qdT[1], abs=1e-12)
        assert record.equalities["qdd_start_elbow"] == pytest.approx(qdd0[1], abs=1e-12)
        assert record.equalities["qdd_end_shoulder"] == pytest.approx(qddT[0], abs=1e-12)

    def test_collision_detection(self):
        model = builtin_fixture("planar2").model
        spheres = ((Sphere(np.array([0.25, 0.0, 0.0]), 0.05),),) * 2
        clear = DesignProblem(
            model=model,
            sample_rate=20.0,
            obstacles=(Sphere(np.array([10.0, 10.0, 10.0]), 0.1),),
            link_collision_spheres=spheres,
        )
        blocked = DesignProblem(
            model=model,
            sample_rate=20.0,
            obstacles=(Sphere(np.array([0.25, 0.0, 0.0]), 0.1),),
            link_collision_spheres=spheres,
        )
        traj = FourierTrajectory(
            2 * math.pi * 0.1, 3, np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3))
        )
        rec_clear = _constraints(traj, clear)
        rec_blocked = _constraints(traj, blocked)
        collision_keys = [k for k in rec_clear.inequalities if k.startswith("collision")]
        assert collision_keys
        assert all(rec_clear.inequalities[k] < 0 for k in collision_keys)
        assert any(rec_blocked.inequalities[k] > 0 for k in rec_blocked.inequalities)

    def test_max_violation_counts_nan_as_violated(self):
        # Python's max drops a NaN that is not its first argument; a NaN
        # margin must not read as satisfied, wherever it sits.
        for record in (
            ConstraintRecord({}, {"a": math.nan}),
            ConstraintRecord({"e": 0.0}, {"a": -1.0, "b": math.nan}),
            ConstraintRecord({"e": math.nan}, {"a": -1.0}),
        ):
            assert not record.max_violation() <= 1e-3

    def test_max_violation_is_worst_of_both_kinds(self):
        assert ConstraintRecord({"e": -0.2}, {"a": 0.1, "b": -3.0}).max_violation() == 0.2
        assert ConstraintRecord({"e": 0.05}, {"a": 0.1}).max_violation() == 0.1
        assert ConstraintRecord({}, {"a": -1.0}).max_violation() == 0.0
        assert ConstraintRecord({}, {}).max_violation() == 0.0


class TestAugmentedLagrangian:
    def test_scalar_inequality_problem(self):
        # min x^2 s.t. x >= 1 has its optimum at exactly 1
        def evaluate(x):
            return float(x[0] ** 2), ConstraintRecord({}, {"xmin": 1.0 - float(x[0])})

        opts = ALOptions(seed=7, subproblem_budget=400, outer_iterations=8,
                         constraint_tolerance=1e-4)
        result = augmented_lagrangian_minimize(evaluate, np.array([3.0]), opts)
        assert result.feasible
        assert result.x[0] == pytest.approx(1.0, abs=1e-3)

    def test_equality_problem_lagrange_solution(self):
        # min (x-2)^2 + (y-1)^2 s.t. x + y = 1; stationarity gives (1, 0)
        def evaluate(x):
            return (
                float((x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2),
                ConstraintRecord({"sum": float(x[0] + x[1] - 1.0)}, {}),
            )

        opts = ALOptions(seed=7, subproblem_budget=600, outer_iterations=10,
                         constraint_tolerance=1e-4)
        result = augmented_lagrangian_minimize(evaluate, np.zeros(2), opts)
        assert result.feasible
        np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-3)

    def test_unconstrained_quadratic_budget(self):
        target = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        Q = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])

        def evaluate(x):
            d = x - target
            return float(d @ Q @ d), ConstraintRecord({}, {})

        opts = ALOptions(seed=3, subproblem_budget=1200, outer_iterations=4)
        result = augmented_lagrangian_minimize(evaluate, np.zeros(5), opts)
        assert result.evaluations < 5000
        np.testing.assert_allclose(result.x, target, atol=1e-4)

    def test_deterministic_given_seed(self):
        def evaluate(x):
            return float(np.sum(x**2)), ConstraintRecord({"plane": float(x.sum() - 1.0)}, {})

        opts = ALOptions(seed=42, subproblem_budget=300, outer_iterations=4)
        a = augmented_lagrangian_minimize(evaluate, np.zeros(3), opts)
        b = augmented_lagrangian_minimize(evaluate, np.zeros(3), opts)
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective
        assert a.evaluations == b.evaluations

    def test_infeasible_problem_flagged(self):
        def evaluate(x):
            # x <= -1 and x >= 1 simultaneously: empty feasible set
            return float(x[0] ** 2), ConstraintRecord(
                {}, {"a": float(x[0] + 1.0), "b": float(1.0 - x[0])}
            )

        opts = ALOptions(seed=1, subproblem_budget=200, outer_iterations=3)
        result = augmented_lagrangian_minimize(evaluate, np.zeros(1), opts)
        assert not result.feasible

    def test_nan_everywhere_returns_flagged_start(self):
        # No evaluation ever has a number for its violation, so nothing beats
        # the start point: it comes back, flagged, instead of an exception.
        def evaluate(x):
            return float(x @ x), ConstraintRecord({"e": math.nan}, {})

        x0 = np.array([0.5, -0.5])
        opts = ALOptions(seed=0, subproblem_budget=20, outer_iterations=2)
        result = augmented_lagrangian_minimize(evaluate, x0, opts)
        assert not result.feasible
        assert math.isnan(result.infeasibility)
        np.testing.assert_array_equal(result.x, x0)
        assert result.final == 0.5
        assert result.evaluations > 1


class TestDesign:
    def test_design_smoke_improves_and_replays(self):
        model = builtin_fixture("pendulum1").model
        problem = DesignProblem(model=model, sample_rate=20.0, gamma=0.1)
        opts = ALOptions(seed=2, subproblem_budget=900, outer_iterations=3, restarts=2)
        omega = 2 * math.pi * 0.1
        traj, report = design_trajectory(problem, omega, 3, opts)
        # The start point has zero Fourier coefficients: every sample is the
        # same state, so its projected regressor is rank-deficient.
        assert math.isinf(report.initial.f_c)
        basis, _ = _design_basis(problem, opts.seed)
        random_values = []
        for seed in range(10):
            draw = random_feasible_trajectory(problem, omega, 3, np.random.default_rng(seed))
            _, q, qd, qdd = sample_trajectory(draw, problem.sample_rate)
            W = regressor_batch(model, q, qd, qdd).reshape(-1, 13)
            random_values.append(information_objective(W @ basis, problem.gamma).value)
        assert report.final.value < min(random_values)
        assert report.feasible
        record = _constraints(traj, problem)
        assert record.max_violation() <= opts.constraint_tolerance
        assert math.isfinite(report.final.f_c)

    def test_one_sample_per_design_evaluation(self, monkeypatch):
        calls = {"svd": 0, "fourier_eval": 0, "information_objective": 0,
                 "evaluate_constraints": 0, "regressor_batch": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(np.linalg, "svd")
        for name in ("fourier_eval", "information_objective", "evaluate_constraints",
                     "regressor_batch"):
            counted(excite, name)
        problem = DesignProblem(model=builtin_fixture("planar2").model, sample_rate=20.0)
        opts = ALOptions(seed=4, subproblem_budget=60, outer_iterations=2, restarts=1)
        _, report = design_trajectory(problem, 2 * math.pi * 0.1, 3, opts)
        # Each evaluate(x) samples once and scores once, one per AL evaluation.
        # Nothing is evaluated twice: not the subproblem result that ends each
        # outer iteration, nor x0 and the result for the report. The design
        # basis adds one regressor and the only SVD.
        evaluations = report.evaluations
        assert calls == {
            "svd": 1,
            "fourier_eval": 0,
            "information_objective": evaluations,
            "evaluate_constraints": evaluations,
            "regressor_batch": evaluations + 1,
        }

    def test_design_rejects_undersampling(self):
        model = builtin_fixture("pendulum1").model
        problem = DesignProblem(model=model, sample_rate=0.5)
        with pytest.raises(ExciteError, match="alias"):
            design_trajectory(problem, 2 * math.pi * 0.1, 5, ALOptions())

    def test_random_feasible_trajectories(self):
        problem = DesignProblem(model=builtin_fixture("planar2").model, sample_rate=20.0)
        rng = np.random.default_rng(1)
        traj = random_feasible_trajectory(problem, 2 * math.pi * 0.1, 5, rng)
        assert traj is not None
        record = _constraints(traj, problem)
        assert record.max_violation() <= 1e-9
        assert np.any(traj.sine_coeffs != 0)


class TestSerialization:
    def test_dict_roundtrip(self):
        traj = _traj(seed=21)
        back = trajectory_from_dict(trajectory_to_dict(traj))
        np.testing.assert_array_equal(back.offsets, traj.offsets)
        np.testing.assert_array_equal(back.sine_coeffs, traj.sine_coeffs)
        assert back.duration == traj.duration

    def test_stored_duration_must_be_the_period(self):
        # The period follows from the base frequency; a file that says
        # otherwise would change the sampled span, so it is rejected.
        data = trajectory_to_dict(_traj(seed=24))
        data["duration"] *= 2
        with pytest.raises(ExciteError, match="is not 2 pi / base_frequency"):
            trajectory_from_dict(data)

    def test_file_roundtrip_with_provenance(self, tmp_path):
        traj = _traj(seed=22)
        path = tmp_path / "traj.json"
        save_trajectory(path, traj, {"seed": 5, "hash": "abc"})
        back, provenance = load_trajectory(path)
        np.testing.assert_array_equal(back.cosine_coeffs, traj.cosine_coeffs)
        assert provenance["seed"] == 5

    def test_csv_export(self, tmp_path):
        from armid.excite import export_trajectory_csv

        traj = _traj(n=2, seed=23)
        path = tmp_path / "traj.csv"
        export_trajectory_csv(path, traj, 10.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q_1,q_2,qd_1,qd_2,qdd_1,qdd_2"
        assert len(lines) == 2 + round(traj.duration * 10.0)
