import dataclasses
import errno
import hashlib
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from armid import signals
from armid.cli import main
from armid.dynamics import inverse_dynamics_batch
from armid.excite import (
    DesignProblem,
    ExciteError,
    FourierTrajectory,
    random_feasible_trajectory,
    sample_trajectory,
    save_trajectory,
)
from armid.model import (
    combine_inertial,
    is_physically_feasible,
    model_to_dict,
    pack_params,
    solid_sphere_params,
    unpack_params,
)
from armid.signals import RawTrial, load_dataset, trial_to_csv
from armid.simulate import (
    FIXTURE_NAMES,
    NoiseSpec,
    SimulateError,
    builtin_fixture,
    generate_dataset,
    lump_payload,
    write_dataset,
)


def _test_trajectory(n, seed=0, omega=2 * math.pi * 0.1, L=3):
    rng = np.random.default_rng(seed)
    a = 0.3 * rng.standard_normal((n, L))
    b = 0.3 * rng.standard_normal((n, L))
    return FourierTrajectory(omega, L, np.zeros(n), a, b)


class TestFixtures:
    def test_pendulum_shape(self):
        fixture = builtin_fixture("pendulum1")
        assert fixture.model.num_joints == 1
        assert pack_params(fixture.model).shape == (13,)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_all_links_feasible(self, name):
        fixture = builtin_fixture(name)
        for params in fixture.model.inertial_params:
            report = is_physically_feasible(params)
            assert report.feasible, f"{name}: {report.binding_constraint}"

    def test_arm7_limits(self):
        fixture = builtin_fixture("arm7")
        assert fixture.model.num_joints == 7
        for joint in fixture.model.joint_specs:
            assert joint.position_limits == (-2.9, 2.9)
            assert joint.velocity_limit == 1.7

    def test_unknown_name(self):
        with pytest.raises(SimulateError, match="unknown fixture"):
            builtin_fixture("arm99")

    def test_every_fixture_is_pinned_to_its_bytes(self):
        # Any change to a fixture's kinematics, limits, parameters or length
        # scale changes every artifact made from it.
        digests = {}
        for name in FIXTURE_NAMES:
            f = builtin_fixture(name)
            text = json.dumps(
                {"model": model_to_dict(f.model), "char_length": f.char_length}, sort_keys=True
            )
            digests[name] = hashlib.sha256(text.encode()).hexdigest()
        assert digests == {
            "arm7": "dbd84aee15f4ad008c8dbe221ec51cb71e7e96e1bf9520885ba290f334f7377a",
            "chain3": "c339ab4677bb7193486dcd9d5b4514656840189f4c07b164c88a409f80bd73ca",
            "pendulum1": "b87ef5375e22a52c4f45c704e1b93c41d5ccb473d1d980d2431d6cc52cb3d6f1",
            "planar2": "9fdc0266cf5c910195ad1edd7965967c1c254d3ad58c4397fbe24ce852871e50",
        }


class TestGenerate:
    def test_zero_noise_reproduces_inverse_dynamics(self):
        fixture = builtin_fixture("planar2")
        traj = _test_trajectory(2)
        trials = generate_dataset(fixture, traj, 50.0, 1, NoiseSpec(seed=3))
        trial = trials[0]
        _, q, qd, qdd = sample_trajectory(traj, 50.0)
        tau = inverse_dynamics_batch(fixture.model, q, qd, qdd)
        np.testing.assert_allclose(trial.tau, tau, atol=1e-12)
        np.testing.assert_allclose(trial.q, q, atol=1e-12)

    def test_same_seed_bit_identical(self):
        fixture = builtin_fixture("planar2")
        traj = _test_trajectory(2)
        noise = NoiseSpec(torque_abs_std=0.1, position_std=1e-4, seed=11)
        a = generate_dataset(fixture, traj, 50.0, 3, noise)
        b = generate_dataset(fixture, traj, 50.0, 3, noise)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.q, tb.q)
            np.testing.assert_array_equal(ta.tau, tb.tau)

    def test_trials_differ_within_seed(self):
        fixture = builtin_fixture("planar2")
        traj = _test_trajectory(2)
        noise = NoiseSpec(torque_abs_std=0.1, seed=11)
        a, b = generate_dataset(fixture, traj, 50.0, 2, noise)
        assert not np.array_equal(a.tau, b.tau)

    def test_aliasing_rejected(self):
        fixture = builtin_fixture("planar2")
        traj = _test_trajectory(2, L=5)
        # The sample rate has one check, in excite, whose error it raises.
        with pytest.raises(ExciteError, match="alias"):
            generate_dataset(fixture, traj, 0.5, 1, NoiseSpec())

    def test_noise_statistics(self):
        # empirical std of additive torque noise within 5% over ~1e5 draws
        fixture = builtin_fixture("pendulum1")
        traj = _test_trajectory(1, omega=2 * math.pi * 0.2)
        noise = NoiseSpec(torque_abs_std=0.25, seed=5)
        trials = generate_dataset(fixture, traj, 200.0, 100, noise)
        _, q, qd, qdd = sample_trajectory(traj, 200.0)
        tau_true = inverse_dynamics_batch(fixture.model, q, qd, qdd)
        residuals = np.concatenate([(t.tau - tau_true).ravel() for t in trials])
        assert residuals.size >= 1e5
        assert abs(np.std(residuals) - 0.25) / 0.25 < 0.05

    def test_relative_noise_scales_with_torque(self):
        fixture = builtin_fixture("pendulum1")
        traj = _test_trajectory(1)
        noise = NoiseSpec(torque_rel_std=0.01, seed=6)
        trials = generate_dataset(fixture, traj, 100.0, 200, noise)
        _, q, qd, qdd = sample_trajectory(traj, 100.0)
        tau_true = inverse_dynamics_batch(fixture.model, q, qd, qdd)
        stack = np.stack([t.tau for t in trials])
        stds = np.std(stack - tau_true, axis=0)
        big = np.abs(tau_true) > np.percentile(np.abs(tau_true), 90)
        ratio = np.mean(stds[big] / np.abs(tau_true)[big])
        assert abs(ratio - 0.01) / 0.01 < 0.15


class TestPayloadLumping:
    def test_lumped_equals_manual_composite(self):
        fixture = builtin_fixture("chain3")
        payload = solid_sphere_params(0.4, 0.05, [0.0, 0.0, 0.1])
        lumped = lump_payload(fixture.model, payload)
        vec = pack_params(fixture.model).copy()
        vec[26:39] = combine_inertial(fixture.model.inertial_params[2], payload).to_vector()
        manual = unpack_params(vec, fixture.model)
        rng = np.random.default_rng(1)
        q = rng.uniform(-2, 2, (50, 3))
        qd = rng.uniform(-2, 2, (50, 3))
        qdd = rng.uniform(-5, 5, (50, 3))
        np.testing.assert_allclose(
            inverse_dynamics_batch(lumped, q, qd, qdd),
            inverse_dynamics_batch(manual, q, qd, qdd),
            atol=1e-12,
        )

    def test_generate_uses_lumped_payload(self):
        fixture = builtin_fixture("chain3")
        payload = solid_sphere_params(0.4, 0.05, [0.0, 0.0, 0.1])
        loaded = dataclasses.replace(fixture, payload=payload)
        traj = _test_trajectory(3)
        trial = generate_dataset(loaded, traj, 50.0, 1, NoiseSpec())[0]
        _, q, qd, qdd = sample_trajectory(traj, 50.0)
        tau = inverse_dynamics_batch(lump_payload(fixture.model, payload), q, qd, qdd)
        np.testing.assert_allclose(trial.tau, tau, atol=1e-12)

    def test_infeasible_payload_rejected(self):
        fixture = builtin_fixture("chain3")
        from armid.model import LinkInertialParams

        bogus = LinkInertialParams(-0.5, np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(SimulateError, match="payload"):
            dataclasses.replace(fixture, payload=bogus)


class TestWriteDataset:
    def test_emits_trials_and_manifest(self, tmp_path):
        fixture = builtin_fixture("planar2")
        problem = DesignProblem(model=fixture.model, sample_rate=20.0)
        rng = np.random.default_rng(2)
        traj = random_feasible_trajectory(problem, 2 * math.pi * 0.1, 3, rng)
        paths = write_dataset(tmp_path, fixture, traj, 50.0, 2, NoiseSpec(seed=1))
        assert len(paths) == 2
        assert (tmp_path / "manifest.json").exists()
        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fixture"] == "planar2"
        assert len(manifest["truth_parameters"]) == 26
        assert manifest["noise"]["seed"] == 1

    @pytest.mark.parametrize("position_std", [0.0, 1e-3])
    def test_shared_text_writes_the_bytes_of_lone_writes(self, tmp_path, position_std):
        fixture = builtin_fixture("planar2")
        traj = _test_trajectory(2, seed=4)
        noise = NoiseSpec(torque_rel_std=0.01, position_std=position_std, seed=7)
        paths = write_dataset(tmp_path / "shared", fixture, traj, 50.0, 3, noise)
        lone = tmp_path / "lone.csv"
        for path, trial in zip(paths, generate_dataset(fixture, traj, 50.0, 3, noise)):
            trial_to_csv(trial, lone)
            assert path.read_bytes() == lone.read_bytes()

    def test_shared_text_tells_the_sign_of_zero(self, tmp_path):
        t = np.arange(16) / 50.0
        q = np.zeros((16, 2))
        tau = np.ones((16, 2))
        trials = [RawTrial(t, q, tau), RawTrial(t, -q, tau), RawTrial(t, q, 2.0 * tau)]
        shared_text: dict = {}
        lone = tmp_path / "lone.csv"
        for k, trial in enumerate(trials):
            path = tmp_path / f"trial_{k}.csv"
            trial_to_csv(trial, path, shared_text)
            trial_to_csv(trial, lone)
            assert path.read_bytes() == lone.read_bytes()
        assert b",-0.0," in (tmp_path / "trial_1.csv").read_bytes()

    def test_trials_without_position_noise_format_t_q_once(self, tmp_path, monkeypatch):
        fixture = builtin_fixture("planar2")
        # A file, not a list: the trials are written by this process and a
        # forked child, and both must be counted.
        log = tmp_path / "widths.log"
        real = signals.float_rows

        def counted(table):
            with open(log, "a") as fh:
                fh.write(f"{table.shape[1]}\n")
            return real(table)

        monkeypatch.setattr(signals, "float_rows", counted)
        noise = NoiseSpec(torque_rel_std=0.01, seed=3)
        write_dataset(tmp_path / "data", fixture, _test_trajectory(2, seed=4), 50.0, 10, noise)
        widths = [int(line) for line in log.read_text().split()]
        # One [t | q] block (1 + 2 columns) for all ten trials, one tau block each.
        assert sorted(widths) == [2] * 10 + [3]

    def test_trials_without_position_noise_parse_t_q_once(self, tmp_path, monkeypatch):
        noise = NoiseSpec(torque_rel_std=0.01, seed=3)
        write_dataset(tmp_path, builtin_fixture("planar2"), _test_trajectory(2, seed=4), 50.0,
                      10, noise)
        widths = []
        real = np.loadtxt

        def counted(*args, **kwargs):
            table = real(*args, **kwargs)
            widths.append(table.shape[1])
            return table

        monkeypatch.setattr(signals.np, "loadtxt", counted)
        load_dataset(tmp_path)
        # The first trial parses all 1 + 2 + 2 columns; the other nine parse
        # their 2 torque columns and take its t, q numbers.
        assert sorted(widths) == [2] * 9 + [5]


class TestWriteTrials:
    """Trials are written by this process (even k) and a forked child (odd k)."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # Fork on any machine, one CPU or many: the split is what is tested.
        monkeypatch.setattr(signals, "_usable_cpus", lambda: 2)
        yield
        with pytest.raises(ChildProcessError):  # no child is left behind
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("position_std", [0.0, 1e-3])
    @pytest.mark.parametrize("trials", [1, 2, 3, 10])
    def test_bytes_equal_a_sequential_loop(self, tmp_path, monkeypatch, trials, position_std,
                                           cpus):
        if cpus == 1:  # one usable CPU: every trial in this process, no fork
            monkeypatch.setattr(signals, "_usable_cpus", lambda: 1)
            monkeypatch.setattr(signals.os, "fork", None)
        fixture = builtin_fixture("planar2")
        traj = _test_trajectory(2, seed=5)
        noise = NoiseSpec(torque_rel_std=0.01, position_std=position_std, seed=8)
        paths = write_dataset(tmp_path / "forked", fixture, traj, 50.0, trials, noise)
        assert [p.name for p in paths] == [f"trial_{k:03d}.csv" for k in range(trials)]
        shared_text: dict = {}
        for k, trial in enumerate(generate_dataset(fixture, traj, 50.0, trials, noise)):
            path = tmp_path / f"sequential_{k}.csv"
            trial_to_csv(trial, path, shared_text)
            assert paths[k].read_bytes() == path.read_bytes()

    def _simulate(self, tmp_path, capsys, blocked):
        traj_path = tmp_path / "traj.json"
        save_trajectory(traj_path, _test_trajectory(2, seed=4))
        out = tmp_path / "data"
        for k in blocked:  # a directory where a trial file must go
            (out / f"trial_{k:03d}.csv").mkdir(parents=True)
        code = main(["simulate", "--fixture", "planar2", "--traj", str(traj_path),
                     "--trials", "10", "--rate", "50", "--noise-rel", "0.01",
                     "--out", str(out)])
        return code, capsys.readouterr().err, out

    @pytest.mark.parametrize("k", [4, 7])
    def test_an_unwritable_trial_exits_1_naming_it(self, tmp_path, capsys, k):
        code, err, out = self._simulate(tmp_path, capsys, [k])
        assert code == 1
        assert err.startswith("error: ")
        assert str(out / f"trial_{k:03d}.csv") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("blocked", [(3, 6), (2, 5)])
    def test_the_lowest_failing_trial_is_named(self, tmp_path, capsys, blocked):
        code, err, out = self._simulate(tmp_path, capsys, blocked)
        assert code == 1
        assert err.count("\n") == 1
        assert str(out / f"trial_{min(blocked):03d}.csv") in err
        assert str(out / f"trial_{max(blocked):03d}.csv") not in err

    @settings(max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(half=st.sampled_from(["parent", "child"]), lowest=st.integers(0, 4),
           above=st.sets(st.integers(0, 9)))
    def test_blocked_trials_fail_as_a_sequential_loop(self, capsys, half, lowest, above):
        # The lowest blocked trial is even (this process's half) or odd (the child's).
        lowest = 2 * lowest + (half == "child")
        blocked = {lowest} | {k for k in above if k > lowest}
        with tempfile.TemporaryDirectory() as tmp:
            code, err, out = self._simulate(Path(tmp), capsys, sorted(blocked))
            assert code == 1
            assert err.count("\n") == 1
            assert str(out / f"trial_{lowest:03d}.csv") in err
            trials = generate_dataset(builtin_fixture("planar2"), _test_trajectory(2, seed=4),
                                      50.0, 10, NoiseSpec(torque_rel_std=0.01))
            paths = [out / f"trial_{k:03d}.csv" for k in range(lowest)]
            self._assert_sequential_bytes(paths, trials[:lowest])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _assert_sequential_bytes(self, paths, trials):
        for path, trial in zip(paths, trials, strict=True):
            lone = path.with_name("lone.csv")
            trial_to_csv(trial, lone)
            assert path.read_bytes() == lone.read_bytes()

    def test_a_failing_child_is_redone(self, tmp_path, monkeypatch):
        parent, real = os.getpid(), signals.trial_to_csv

        def child_fails(trial, path, shared_text=None):
            if os.getpid() != parent:
                raise signals.SignalError(f"{path}: failed in the child")
            real(trial, path, shared_text)

        monkeypatch.setattr(signals, "trial_to_csv", child_fails)
        fixture, traj, noise = builtin_fixture("planar2"), _test_trajectory(2, seed=4), NoiseSpec()
        paths = write_dataset(tmp_path / "data", fixture, traj, 50.0, 4, noise)
        self._assert_sequential_bytes(paths, generate_dataset(fixture, traj, 50.0, 4, noise))

    def test_a_fork_that_cannot_start_writes_in_one_process(self, tmp_path, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(signals.os, "fork", no_fork)
        fixture, traj, noise = builtin_fixture("planar2"), _test_trajectory(2, seed=4), NoiseSpec()
        paths = write_dataset(tmp_path / "data", fixture, traj, 50.0, 3, noise)
        self._assert_sequential_bytes(paths, generate_dataset(fixture, traj, 50.0, 3, noise))

    def test_an_error_the_child_could_not_send_is_raised(self, tmp_path, monkeypatch):
        class Unsendable(signals.SignalError):  # a local class does not pickle
            pass

        real = signals.trial_to_csv

        def odd_trial_fails(trial, path, shared_text=None):
            if path.name == "trial_001.csv":
                raise Unsendable(f"{path}: cannot be written")
            real(trial, path, shared_text)

        monkeypatch.setattr(signals, "trial_to_csv", odd_trial_fails)
        fixture = builtin_fixture("planar2")
        with pytest.raises(Unsendable, match=r"trial_001\.csv: cannot be written"):
            write_dataset(tmp_path, fixture, _test_trajectory(2, seed=4), 50.0, 3, NoiseSpec())

    def test_the_fork_warning_of_python_3_12_is_ignored(self, tmp_path, monkeypatch):
        real = os.fork

        def threaded_fork():  # what os.fork does from 3.12 in a process with threads
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning)
            return real()

        monkeypatch.setattr(signals.os, "fork", threaded_fork)
        fixture = builtin_fixture("planar2")
        paths = write_dataset(tmp_path, fixture, _test_trajectory(2, seed=4), 50.0, 3, NoiseSpec())
        assert len(paths) == 3
