"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS line with the measured numbers. Run with ``pytest -s``
to see the lines; a failed assertion is the FAIL case.
"""

import math
import time

import numpy as np
import pytest

from armid.dynamics import inverse_dynamics_batch, regressor_batch, stack_regressor
from armid.excite import (
    ALOptions,
    ConstraintRecord,
    DesignProblem,
    augmented_lagrangian_minimize,
    design_trajectory,
    evaluate_constraints,
    information_objective,
    random_feasible_trajectory,
    sample_trajectory,
)
from armid.identify import (
    consistent_identify,
    identifiable_subspace,
    least_squares,
    ols_identify,
    payload_identify,
)
from armid.model import (
    combine_inertial,
    pack_params,
    params_from_com,
    solid_sphere_params,
    unpack_params,
)
from armid.signals import average_trials, default_identification_prior, process_trial
from armid.simulate import FIXTURE_NAMES, NoiseSpec, builtin_fixture, generate_dataset


def _project_error(alpha_hat, truth, basis):
    num = np.linalg.norm(basis.T @ (alpha_hat - truth))
    return num / np.linalg.norm(basis.T @ truth)


def test_criterion_1_regressor_identity():
    """W alpha matches the Newton-Euler torques on every fixture."""
    start = time.monotonic()
    worst = {}
    for name in ("pendulum1", "planar2", "chain3", "arm7"):
        model = builtin_fixture(name).model
        n = model.num_joints
        rng = np.random.default_rng(hash(name) % 2**32)
        lo = np.array([j.position_limits[0] for j in model.joint_specs])
        hi = np.array([j.position_limits[1] for j in model.joint_specs])
        vmax = np.array([j.velocity_limit for j in model.joint_specs])
        amax = np.array([j.acceleration_limit for j in model.joint_specs])
        q = rng.uniform(lo, hi, (1000, n))
        qd = rng.uniform(-vmax, vmax, (1000, n))
        qdd = rng.uniform(-amax, amax, (1000, n))
        W = regressor_batch(model, q, qd, qdd)
        tau = inverse_dynamics_batch(model, q, qd, qdd)
        worst[name] = float(np.max(np.abs(W @ pack_params(model) - tau)))
        assert worst[name] < 1e-9, f"{name}: {worst[name]:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    print(f"\nACCEPTANCE 1 regressor identity: PASS ({detail}; {elapsed:.1f}s < 30s)")


@pytest.mark.slow
def test_criterion_2_noiseless_roundtrip():
    """Design on chain3, simulate noiselessly, full pipeline recovers truth."""
    start = time.monotonic()
    fixture = builtin_fixture("chain3")
    model = fixture.model
    truth = pack_params(model)

    problem = DesignProblem(model=model, sample_rate=20.0, gamma=0.1)
    opts = ALOptions(seed=11, subproblem_budget=4000, outer_iterations=4, restarts=3)
    omega = 2 * math.pi * 0.05
    traj, report = design_trajectory(problem, omega, 5, opts)
    assert report.feasible, "designed trajectory must satisfy constraints"

    trials = generate_dataset(fixture, traj, 100.0, 1, NoiseSpec(seed=0))
    dataset = process_trial(trials[0], None, None)
    stack = stack_regressor(model, dataset.q, dataset.qd, dataset.qdd, dataset.tau)

    sub = identifiable_subspace(stack.W)
    basis = sub.identifiable_basis
    system = least_squares(stack)
    r_ols = ols_identify(system, prior=truth)
    r_cons = consistent_identify(system, truth)

    err_cons = _project_error(r_cons.alpha_hat, truth, basis)
    assert err_cons < 1e-6, f"projected parameter error {err_cons:.2e}"

    ols_feasible = all(f.feasible for f in r_ols.link_feasibility)
    agreement = float(
        np.linalg.norm(r_cons.alpha_hat - r_ols.alpha_hat)
        / np.linalg.norm(r_ols.alpha_hat)
    )
    if ols_feasible:
        assert agreement < 1e-6, f"OLS vs consistent disagreement {agreement:.2e}"

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 2 noiseless round-trip: PASS (projected err {err_cons:.1e}, "
        f"OLS/consistent agreement {agreement:.1e}, f_c {report.final.f_c:.1f}, "
        f"{elapsed:.0f}s < 600s)"
    )


def test_criterion_3_noisy_payload_anchor():
    """0.4271 kg payload on arm7 under 1% torque noise, 10 averaged trials."""
    start = time.monotonic()
    fixture = builtin_fixture("arm7")
    model = fixture.model
    truth = pack_params(model)
    payload = solid_sphere_params(0.4271, 0.05, [0.0, 0.02, 0.10])
    loaded = fixture.with_payload(payload)

    problem = DesignProblem(model=model, sample_rate=20.0)
    rng = np.random.default_rng(21)
    traj = random_feasible_trajectory(problem, 2 * math.pi * 0.05, 5, rng)
    assert traj is not None

    noise = NoiseSpec(torque_rel_std=0.01, seed=33)
    trials = generate_dataset(loaded, traj, 100.0, 10, noise)
    averaged = average_trials(trials)
    dataset = process_trial(averaged, None, None)

    n = model.num_joints
    mask = np.ones(13 * n, dtype=bool)
    mask[13 * (n - 1) : 13 * (n - 1) + 10] = False
    stack = stack_regressor(
        model, dataset.q, dataset.qd, dataset.qdd, dataset.tau,
        fixed_mask=mask, fixed_values=truth,
    )
    result = payload_identify(least_squares(stack), truth)

    mass_err = abs(result.params.mass - payload.mass) / payload.mass
    com_est = result.params.first_moment / result.params.mass
    com_true = payload.first_moment / payload.mass
    com_err = float(np.linalg.norm(com_est - com_true)) / fixture.char_length
    inertia_err = float(
        np.linalg.norm(result.params.rotational_inertia - payload.rotational_inertia)
        / np.linalg.norm(payload.rotational_inertia)
    )

    assert mass_err < 0.02, f"mass error {100 * mass_err:.2f}%"
    assert com_err < 0.05, f"CoM error {100 * com_err:.2f}% of char length"

    elapsed = time.monotonic() - start
    print(
        f"\nACCEPTANCE 3 noisy payload anchor: PASS (mass err {100 * mass_err:.3f}% < 2%, "
        f"CoM err {100 * com_err:.3f}% < 5%, inertia err {100 * inertia_err:.1f}% reported, "
        f"{elapsed:.0f}s)"
    )


@pytest.mark.slow
def test_criterion_4_design_efficacy():
    """Optimized f_c beats the random-trajectory mean by at least 5x."""
    start = time.monotonic()
    fixture = builtin_fixture("planar2")
    model = fixture.model
    problem = DesignProblem(model=model, sample_rate=20.0, gamma=0.0)
    omega = 2 * math.pi * 0.03
    harmonics = 5

    opts = ALOptions(
        seed=11, subproblem_budget=6000, outer_iterations=4, restarts=3,
        step_decay=1.0,
    )
    traj, report = design_trajectory(problem, omega, harmonics, opts)
    assert report.feasible
    _, q, qd, qdd = sample_trajectory(traj, problem.sample_rate, include_endpoint=True)
    record = evaluate_constraints(problem, q, qd, qdd)
    assert record.max_violation() <= 1e-3

    from armid.excite import _design_basis

    basis, _ = _design_basis(problem, opts.seed)
    rng = np.random.default_rng(42)
    random_fc = []
    attempts = 0
    while len(random_fc) < 100 and attempts < 400:
        attempts += 1
        rt = random_feasible_trajectory(problem, omega, harmonics, rng)
        if rt is None:
            continue
        _, q, qd, qdd = sample_trajectory(rt, problem.sample_rate)
        W = regressor_batch(model, q, qd, qdd).reshape(-1, 26)
        random_fc.append(information_objective(W @ basis, 0.0).f_c)
    assert len(random_fc) == 100
    mean_random = float(np.mean(random_fc))

    assert report.final.f_c <= mean_random / 5.0, (
        f"optimized f_c {report.final.f_c:.1f} vs random mean {mean_random:.1f}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 4 design efficacy: PASS (optimized f_c {report.final.f_c:.1f} <= "
        f"{mean_random:.1f}/5, ratio {mean_random / report.final.f_c:.1f}x, "
        f"{elapsed:.0f}s < 600s)"
    )


def test_criterion_5_feasibility_guarantee():
    """Constrained estimates are always physically realizable."""
    start = time.monotonic()
    fixture = builtin_fixture("chain3")
    model = fixture.model
    truth = pack_params(model)
    prior = default_identification_prior(model.num_joints)

    feasible_count = 0
    runs = 50
    for seed in range(runs):
        rng = np.random.default_rng(10_000 + seed)
        q = rng.uniform(-2.0, 2.0, (150, 3))
        qd = rng.uniform(-2.0, 2.0, (150, 3))
        qdd = rng.uniform(-6.0, 6.0, (150, 3))
        tau = inverse_dynamics_batch(model, q, qd, qdd)
        tau = tau * (1.0 + 0.01 * rng.standard_normal(tau.shape))
        tau = tau + 0.05 * rng.standard_normal(tau.shape)
        stack = stack_regressor(model, q, qd, qdd, tau)
        result = consistent_identify(least_squares(stack), prior)
        if all(f.feasible for f in result.link_feasibility):
            feasible_count += 1
    assert feasible_count == runs, f"{feasible_count}/{runs} feasible"

    # contrast: unconstrained payload differences go negative, the
    # constrained difference never does
    tiny = solid_sphere_params(0.002, 0.03, [0.05, 0.0, 0.0])
    vec = truth.copy()
    vec[26:36] = tiny.to_vector()[:10]
    rigged = unpack_params(vec, model)
    srng = np.random.default_rng(0)
    q = srng.uniform(-2.0, 2.0, (300, 3))
    qd = srng.uniform(-2.0, 2.0, (300, 3))
    qdd = srng.uniform(-6.0, 6.0, (300, 3))
    tau_clean = inverse_dynamics_batch(rigged, q, qd, qdd)
    mask = np.ones(39, dtype=bool)
    mask[26:36] = False

    ols_negative = 0
    payload_negative = 0
    payload_runs = 10
    for seed in range(payload_runs):
        tau = tau_clean + 0.05 * np.random.default_rng(seed).standard_normal(tau_clean.shape)
        stack = stack_regressor(rigged, q, qd, qdd, tau, fixed_mask=mask, fixed_values=vec)
        system = least_squares(stack)
        if ols_identify(system).alpha_hat[26] < 0:
            ols_negative += 1
        result = payload_identify(system, vec)
        if result.params.mass < 0:
            payload_negative += 1
    assert ols_negative > 0, "contrast fixture should drive OLS mass negative"
    assert payload_negative == 0

    elapsed = time.monotonic() - start
    print(
        f"\nACCEPTANCE 5 feasibility guarantee: PASS ({feasible_count}/{runs} consistent "
        f"feasible; OLS mass negative in {ols_negative}/{payload_runs} contrast runs, "
        f"constrained in 0; {elapsed:.0f}s)"
    )


def test_criterion_6_al_solver_benchmark():
    """Closed-form constrained problems solved to 1e-3, deterministically."""
    start = time.monotonic()

    def run_inequality():
        opts = ALOptions(seed=7, subproblem_budget=400, outer_iterations=8,
                         constraint_tolerance=1e-4)
        return augmented_lagrangian_minimize(
            lambda x: (float(x[0] ** 2), ConstraintRecord({}, {"xmin": 1.0 - float(x[0])})),
            np.array([3.0]),
            opts,
        )

    def run_equality():
        opts = ALOptions(seed=7, subproblem_budget=600, outer_iterations=10,
                         constraint_tolerance=1e-4)
        return augmented_lagrangian_minimize(
            lambda x: (
                float((x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2),
                ConstraintRecord({"sum": float(x[0] + x[1] - 1.0)}, {}),
            ),
            np.zeros(2),
            opts,
        )

    r1a, r1b = run_inequality(), run_inequality()
    assert abs(r1a.x[0] - 1.0) < 1e-3
    assert np.array_equal(r1a.x, r1b.x)

    r2a, r2b = run_equality(), run_equality()
    assert np.max(np.abs(r2a.x - np.array([1.0, 0.0]))) < 1e-3
    assert np.array_equal(r2a.x, r2b.x)

    elapsed = time.monotonic() - start
    print(
        f"\nACCEPTANCE 6 solver benchmark: PASS (x*={r1a.x[0]:.5f} vs 1, "
        f"(x,y)=({r2a.x[0]:.5f},{r2a.x[1]:.5f}) vs (1,0), deterministic; {elapsed:.0f}s)"
    )


def test_criterion_7_convexity_and_ordering():
    """OLS residual never exceeds the constrained residual; barrier paths are
    monotone."""
    start = time.monotonic()
    fixture = builtin_fixture("chain3")
    skeleton = fixture.model

    ordering_ok = 0
    runs = 20
    for seed in range(runs):
        rng = np.random.default_rng(20_000 + seed)
        # randomized feasible ground truth on the chain3 skeleton
        vec = np.zeros(39)
        for link in range(3):
            mass = rng.uniform(0.3, 3.0)
            com = rng.uniform(-0.15, 0.15, 3)
            basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            second = basis @ np.diag(rng.uniform(0.005, 0.04, 3)) @ basis.T
            inertia_com = np.trace(second) * np.eye(3) - second
            body = params_from_com(
                mass, com, inertia_com,
                viscous_friction=rng.uniform(0.01, 0.3),
                coulomb_friction=rng.uniform(0.01, 0.3),
                rotor_inertia=rng.uniform(1e-5, 1e-3),
            )
            vec[13 * link : 13 * link + 13] = body.to_vector()
        model = unpack_params(vec, skeleton)
        q = rng.uniform(-2.0, 2.0, (120, 3))
        qd = rng.uniform(-2.0, 2.0, (120, 3))
        qdd = rng.uniform(-6.0, 6.0, (120, 3))
        tau = inverse_dynamics_batch(model, q, qd, qdd)
        tau = tau + 0.05 * rng.standard_normal(tau.shape)
        stack = stack_regressor(model, q, qd, qdd, tau)

        prior = default_identification_prior(3)
        system = least_squares(stack)
        r_ols = ols_identify(system, prior=prior)
        r_cons = consistent_identify(system, prior)
        slack = 1e-9 * (1.0 + r_ols.residual)
        assert r_ols.residual <= r_cons.residual + slack
        path = np.asarray(r_cons.trace.objective_path)
        assert np.all(np.diff(path) <= 1e-8 * (1.0 + np.abs(path[:-1])))
        ordering_ok += 1

    elapsed = time.monotonic() - start
    print(
        f"\nACCEPTANCE 7 convexity/ordering: PASS ({ordering_ok}/{runs} stacks ordered, "
        f"all barrier paths monotone; {elapsed:.0f}s)"
    )


def test_criterion_8_signal_properties():
    """Zero-phase filtering, DC preservation, and 1/sqrt(K) averaging."""
    from armid.signals import RawTrial, lowpass_zero_phase

    start = time.monotonic()

    # zero-phase: cross-correlation peak at lag zero
    rate = 100.0
    t = np.arange(1024) / rate
    x = np.sin(2 * np.pi * 2.0 * t)
    y = lowpass_zero_phase(x, 10.0, rate)
    xc = x[100:-100] - np.mean(x[100:-100])
    lags = range(-5, 6)
    corr = [float(np.dot(xc, y[100 + lag : y.size - 100 + lag])) for lag in lags]
    best_lag = list(lags)[int(np.argmax(corr))]
    assert best_lag == 0

    # DC preservation
    const = np.full(400, -2.25)
    dc_err = float(np.max(np.abs(lowpass_zero_phase(const, 6.0, rate) - const)))
    assert dc_err < 1e-9

    # averaging: noise std shrinks like 1/sqrt(K) within 20%
    K = 8
    sigma = 1.0
    stds = []
    for repeat in range(100):
        rng = np.random.default_rng(3000 + repeat)
        tg = np.arange(64) / 64.0
        trials = [
            RawTrial(tg, np.zeros((64, 1)), sigma * rng.standard_normal((64, 1)))
            for _ in range(K)
        ]
        stds.append(np.std(average_trials(trials).tau))
    measured = float(np.mean(stds))
    expected = sigma / math.sqrt(K)
    ratio_err = abs(measured - expected) / expected
    assert ratio_err < 0.2

    elapsed = time.monotonic() - start
    print(
        f"\nACCEPTANCE 8 signal properties: PASS (lag 0, DC err {dc_err:.1e} < 1e-9, "
        f"averaging ratio err {100 * ratio_err:.1f}% < 20%; {elapsed:.0f}s)"
    )
