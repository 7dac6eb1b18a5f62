import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import armid
from armid import identify, signals
from armid.cli import EXIT_ERROR, EXIT_OK, EXIT_WARNINGS, _load_dataset, build_parser, main
from armid.excite import (
    DesignProblem,
    evaluate_constraints,
    load_trajectory,
    random_feasible_trajectory,
    sample_trajectory,
    save_trajectory,
)
from armid.model import model_to_dict
from armid.signals import RawTrial, SignalError, trial_from_csv, trial_to_csv
from armid.simulate import builtin_fixture

PENDULUM_URDF = """
<robot name="pendulum">
  <link name="base"/>
  <link name="bob">
    <inertial>
      <origin xyz="0 0 -0.5"/>
      <mass value="1.0"/>
      <inertia ixx="0.1" ixy="0" ixz="0" iyy="0.1" iyz="0" izz="0.01"/>
    </inertial>
  </link>
  <joint name="swing" type="revolute">
    <parent link="base"/>
    <child link="bob"/>
    <axis xyz="0 1 0"/>
    <dynamics damping="0.05" friction="0.1" rotor_inertia="0.0001"/>
    <limit lower="{lo}" upper="{hi}" velocity="2.5" acceleration="15.0"/>
  </joint>
</robot>
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's armid."""
    src = str(Path(armid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_start_up_does_not_import_scipy():
    proc = _python(
        "-c",
        "import sys, armid.cli; armid.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_stage_imports_scipy(tmp_path):
    # Every stage is numpy-only: scipy is only the tests' filter oracle.
    traj_path = _write_trajectory(tmp_path, "planar2")
    (tmp_path / "payload.json").write_text(json.dumps({"mass": 0.4, "radius": 0.05}))
    script = f"""
import json, sys
from armid.cli import main
tmp = {str(tmp_path)!r}
codes = [
    main(["design", "--fixture", "pendulum1", "--harmonics", "2", "--sample-rate", "20",
          "--budget", "200", "--outer", "1", "--restarts", "1", "--out", tmp + "/design"]),
    main(["simulate", "--fixture", "planar2", "--traj", {str(traj_path)!r}, "--trials", "2",
          "--rate", "50", "--noise-rel", "0.005", "--payload", tmp + "/payload.json",
          "--out", tmp + "/data"]),
]
truth = json.load(open(tmp + "/data/manifest.json"))["truth_parameters"]
json.dump({{"alpha": truth}}, open(tmp + "/base.json", "w"))
filters = ["--pos-cutoff", "8", "--torque-cutoff", "8"]
codes += [
    main(["identify", "--mode", "robot", "--data", tmp + "/data", *filters,
          "--out", tmp + "/robot"]),
    main(["identify", "--mode", "payload", "--data", tmp + "/data", *filters,
          "--base-params", tmp + "/base.json", "--out", tmp + "/payload"]),
    main(["tune-filters", "--data", tmp + "/data", "--grid", "4,8:4,8", "--out", tmp + "/tuned"]),
]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    # Every stage ran to the end; exit 2 is a finished run with a warning.
    assert all(code in (EXIT_OK, EXIT_WARNINGS) for code in codes), (codes, proc.stderr)
    assert scipy_modules == []


def _write_trajectory(tmp_path, fixture_name, seed=4, omega=2 * math.pi * 0.1, L=3):
    fixture = builtin_fixture(fixture_name)
    problem = DesignProblem(model=fixture.model, sample_rate=20.0)
    rng = np.random.default_rng(seed)
    traj = random_feasible_trajectory(problem, omega, L, rng)
    assert traj is not None
    path = tmp_path / "traj.json"
    save_trajectory(path, traj, {"seed": seed})
    return path


def _planar2_data(tmp_path, trials=1):
    traj_path = _write_trajectory(tmp_path, "planar2")
    data_dir = tmp_path / "data"
    code = main(
        [
            "simulate", "--fixture", "planar2", "--traj", str(traj_path),
            "--trials", str(trials), "--rate", "50", "--out", str(data_dir),
        ]
    )
    assert code == EXIT_OK
    return data_dir


class TestDesignCommand:
    def test_design_pendulum_feasible(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "design", "--fixture", "pendulum1", "--harmonics", "3",
                "--sample-rate", "20", "--budget", "700", "--outer", "3",
                "--restarts", "2", "--seed", "2", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        traj, provenance = load_trajectory(out / "trajectory.json")
        assert provenance["config"]["seed"] == 2
        assert "problem_hash" in provenance
        problem = DesignProblem(
            model=builtin_fixture("pendulum1").model, sample_rate=20.0
        )
        _, q, qd, qdd = sample_trajectory(traj, problem.sample_rate, include_endpoint=True)
        record = evaluate_constraints(problem, q, qd, qdd)
        assert record.max_violation() <= 1e-3
        report = json.loads((out / "design_report.json").read_text())["report"]
        assert report["feasible"] is True
        assert report["flagged"] is False
        assert (out / "trajectory.csv").exists()

    def test_missing_model_path(self, tmp_path):
        code = main(
            ["design", "--model", str(tmp_path / "nope.urdf"), "--out", str(tmp_path)]
        )
        assert code == EXIT_ERROR

    def test_degenerate_limits_flagged(self, tmp_path):
        urdf = tmp_path / "frozen.urdf"
        urdf.write_text(PENDULUM_URDF.format(lo="0.5", hi="0.5"))
        code = main(
            [
                "design", "--model", str(urdf), "--harmonics", "2",
                "--sample-rate", "20", "--budget", "150", "--outer", "2",
                "--restarts", "1", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_WARNINGS
        report = json.loads((tmp_path / "run" / "design_report.json").read_text())["report"]
        assert report["feasible"] is False
        assert report["flagged"] is True

    def test_usage_error(self):
        assert main(["design"]) == EXIT_ERROR  # no --out

    def test_negative_restarts_is_a_usage_error(self, tmp_path, capsys):
        code = main(
            ["design", "--fixture", "pendulum1", "--restarts", "-1", "--out", str(tmp_path)]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: restarts must be >= 0\n"


class TestSimulateIdentifyPipeline:
    def test_noiseless_robot_roundtrip(self, tmp_path):
        traj_path = _write_trajectory(tmp_path, "chain3")
        data_dir = tmp_path / "data"
        code = main(
            [
                "simulate", "--fixture", "chain3", "--traj", str(traj_path),
                "--trials", "2", "--rate", "100", "--seed", "0",
                "--out", str(data_dir),
            ]
        )
        assert code == EXIT_OK
        assert (data_dir / "manifest.json").exists()
        out_dir = tmp_path / "ident"
        code = main(
            ["identify", "--mode", "robot", "--data", str(data_dir), "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        metrics = (out_dir / "metrics.csv").read_text().splitlines()
        header = metrics[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in metrics[1:]]
        consistent_rows = [r for r in rows if r["method"] == "consistent"]
        assert len(consistent_rows) == 3
        assert all(float(r["mass_pct"]) < 1e-4 for r in consistent_rows)

    def test_robot_mode_factors_the_stack_once(self, tmp_path, monkeypatch):
        # OLS and consistent estimates share one blocked QR and one SVD of the
        # stack: one np.linalg.qr call per block of rows.
        data_dir = _planar2_data(tmp_path)
        monkeypatch.setattr(identify, "_QR_BLOCK_ROWS", 256)
        calls = []
        for owner, name in ((np.linalg, "qr"), (np.linalg, "svd")):
            real = getattr(owner, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        code = main(
            ["identify", "--mode", "robot", "--data", str(data_dir), "--out", str(tmp_path / "id")]
        )
        assert code == EXIT_OK
        samples = len((data_dir / "trial_000.csv").read_text().splitlines()) - 1
        rows = 2 * (samples - 8)  # two joints; processing trims 4 samples at each end
        assert rows > 3 * 256
        assert sorted(calls) == ["qr"] * -(-rows // 256) + ["svd"]

    def test_payload_mode_needs_base_params(self, tmp_path):
        traj_path = _write_trajectory(tmp_path, "chain3")
        data_dir = tmp_path / "data"
        main(
            [
                "simulate", "--fixture", "chain3", "--traj", str(traj_path),
                "--trials", "1", "--rate", "50", "--out", str(data_dir),
            ]
        )
        code = main(
            ["identify", "--mode", "payload", "--data", str(data_dir), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_ERROR

    def test_payload_pipeline_recovers_mass(self, tmp_path):
        traj_path = _write_trajectory(tmp_path, "chain3")
        payload_spec = tmp_path / "payload.json"
        payload_spec.write_text(
            json.dumps({"mass": 0.4, "radius": 0.05, "com": [0.0, 0.0, 0.1]})
        )
        data_dir = tmp_path / "data"
        code = main(
            [
                "simulate", "--fixture", "chain3", "--traj", str(traj_path),
                "--trials", "1", "--rate", "100", "--payload", str(payload_spec),
                "--out", str(data_dir),
            ]
        )
        assert code == EXIT_OK
        base_path = tmp_path / "base.json"
        truth = json.loads((data_dir / "manifest.json").read_text())["truth_parameters"]
        base_path.write_text(json.dumps({"alpha": truth}))
        out_dir = tmp_path / "payload_out"
        code = main(
            [
                "identify", "--mode", "payload", "--data", str(data_dir),
                "--base-params", str(base_path), "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        result = json.loads((out_dir / "payload.json").read_text())
        assert result["payload"]["mass"] == pytest.approx(0.4, rel=1e-4)
        metrics = (out_dir / "metrics.csv").read_text()
        assert "payload" in metrics

    def _payload_dataset(self, tmp_path):
        traj_path = _write_trajectory(tmp_path, "chain3")
        payload_spec = tmp_path / "payload.json"
        payload_spec.write_text(json.dumps({"mass": 0.4, "radius": 0.05}))
        data_dir = tmp_path / "data"
        code = main(
            [
                "simulate", "--fixture", "chain3", "--traj", str(traj_path),
                "--trials", "1", "--payload", str(payload_spec), "--out", str(data_dir),
            ]
        )
        assert code == EXIT_OK
        truth = json.loads((data_dir / "manifest.json").read_text())["truth_parameters"]
        return data_dir, truth

    def test_labeled_base_params_pick_nearest_set(self, tmp_path, capsys):
        data_dir, truth = self._payload_dataset(tmp_path)
        base_path = tmp_path / "base.json"
        # Only the 0.06 set is usable, so picking 0.02 would fail the run.
        base_path.write_text(json.dumps({"labeled_sets": {"0.02": [1.0], "0.06": truth}}))
        out_dir = tmp_path / "payload_out"
        code = main(
            [
                "identify", "--mode", "payload", "--data", str(data_dir),
                "--base-params", str(base_path), "--configuration", "0.05",
                "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert "using base parameter set labeled 0.06" in capsys.readouterr().err
        assert (out_dir / "payload.json").exists()

    def test_base_params_without_alpha_or_labeled_sets(self, tmp_path, capsys):
        data_dir, truth = self._payload_dataset(tmp_path)
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps({"consistent": {"alpha": truth}}))
        code = main(
            [
                "identify", "--mode", "payload", "--data", str(data_dir),
                "--base-params", str(base_path), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_ERROR
        assert "needs 'alpha' or 'labeled_sets'" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        traj_path = _write_trajectory(tmp_path, "planar2")
        data_dir = tmp_path / "data"
        args = [
            "simulate", "--fixture", "planar2", "--traj", str(traj_path),
            "--trials", "2", "--rate", "50", "--noise-rel", "0.01",
            "--seed", "9", "--out", str(data_dir),
        ]
        assert main(args) == EXIT_OK
        first = {p.name: p.read_bytes() for p in sorted(data_dir.iterdir())}
        assert main(args) == EXIT_OK
        second = {p.name: p.read_bytes() for p in sorted(data_dir.iterdir())}
        assert first == second

        out_dir = tmp_path / "ident"
        ident_args = [
            "identify", "--mode", "robot", "--data", str(data_dir),
            "--pos-cutoff", "8", "--torque-cutoff", "8", "--out", str(out_dir),
        ]
        assert main(ident_args) == EXIT_OK
        ident_first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert main(ident_args) == EXIT_OK
        ident_second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert ident_first == ident_second

    def test_corrupt_csv_names_row(self, tmp_path, capsys):
        traj_path = _write_trajectory(tmp_path, "planar2")
        data_dir = tmp_path / "data"
        main(
            [
                "simulate", "--fixture", "planar2", "--traj", str(traj_path),
                "--trials", "1", "--rate", "50", "--out", str(data_dir),
            ]
        )
        trial = data_dir / "trial_000.csv"
        lines = trial.read_text().splitlines()
        lines[10] = "garbage"
        trial.write_text("\n".join(lines) + "\n")
        code = main(
            ["identify", "--mode", "robot", "--data", str(data_dir), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_ERROR
        assert "row 11" in capsys.readouterr().err

    def test_corrupt_trial_exits_1_naming_file_and_line(self, tmp_path):
        traj_path = _write_trajectory(tmp_path, "planar2")
        data_dir = tmp_path / "data"
        main(
            [
                "simulate", "--fixture", "planar2", "--traj", str(traj_path),
                "--trials", "3", "--rate", "50", "--out", str(data_dir),
            ]
        )
        trial = data_dir / "trial_001.csv"
        lines = trial.read_text().splitlines()
        lines[6] = lines[6].replace(",", ",x", 1)
        trial.write_text("\n".join(lines) + "\n")
        proc = _python(
            "-m", "armid.cli", "identify", "--data", str(data_dir), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == EXIT_ERROR
        # The whole of stderr: no traceback, no numpy wording.
        assert proc.stderr == f"error: {trial}: row 7 contains a non-numeric field\n"

    def test_missing_dataset_files_are_signal_errors(self, tmp_path):
        with pytest.raises(SignalError, match="no manifest.json"):
            _load_dataset(tmp_path)
        traj_path = _write_trajectory(tmp_path, "planar2")
        data_dir = tmp_path / "data"
        main(
            [
                "simulate", "--fixture", "planar2", "--traj", str(traj_path),
                "--trials", "1", "--rate", "50", "--out", str(data_dir),
            ]
        )
        (data_dir / "trial_000.csv").unlink()
        with pytest.raises(SignalError, match=r"no trial_\*\.csv"):
            _load_dataset(data_dir)

    def test_trial_joint_count_must_match_the_model(self, tmp_path, capsys):
        data_dir = _planar2_data(tmp_path)
        manifest_path = data_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["model"] = model_to_dict(builtin_fixture("chain3").model)
        manifest_path.write_text(json.dumps(manifest))
        code = main(["identify", "--data", str(data_dir), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        trial = data_dir / "trial_000.csv"
        assert capsys.readouterr().err == (
            f"error: {trial}: 2 joints, but the manifest's model has 3\n"
        )

    def test_manifest_without_model_names_file_and_key(self, tmp_path, capsys):
        data_dir = _planar2_data(tmp_path)
        manifest_path = data_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["model"]
        manifest_path.write_text(json.dumps(manifest))
        code = main(["tune-filters", "--data", str(data_dir), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {manifest_path}: no 'model' entry\n"

    def test_payload_spec_without_mass_names_file_and_key(self, tmp_path, capsys):
        traj_path = _write_trajectory(tmp_path, "chain3")
        spec = tmp_path / "payload.json"
        spec.write_text(json.dumps({"radius": 0.05}))
        code = main(
            [
                "simulate", "--fixture", "chain3", "--traj", str(traj_path), "--trials", "1",
                "--payload", str(spec), "--out", str(tmp_path / "data"),
            ]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {spec}: no 'mass' entry\n"

    @pytest.mark.parametrize("change", ["shorter", "shifted"])
    def test_trials_must_share_the_time_grid(self, tmp_path, capsys, change):
        data_dir = _planar2_data(tmp_path, trials=2)
        first, second = data_dir / "trial_000.csv", data_dir / "trial_001.csv"
        trial = trial_from_csv(second)
        t, q, tau = trial.timestamps, trial.q, trial.tau
        if change == "shorter":
            trial_to_csv(RawTrial(t[:-5], q[:-5], tau[:-5]), second)
            expected = f"{second}: {t.size - 5} samples, but {first} has {t.size}"
        else:
            trial_to_csv(RawTrial(t + 0.001, q, tau), second)
            expected = f"{second}: time grid differs from {first}"
        code = main(["identify", "--data", str(data_dir), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "content, problem",
        [
            ({"labeled_sets": {"open": [0.0] * 26}}, "labeled_sets key 'open' is not numeric"),
            ({"labeled_sets": {"0.5": [1.0] * 5}},
             "labeled_sets['0.5'] has 5 entries, expected 26"),
            ({"alpha": [1.0] * 5}, "'alpha' has 5 entries, expected 26"),
            ({"alpha": "abc"}, "'alpha' is not numeric"),
            ({"labeled_sets": [[1.0]]}, "'labeled_sets' is not a JSON object"),
            (5, "not a JSON object"),
        ],
    )
    def test_base_params_errors_name_file_and_key(self, tmp_path, capsys, content, problem):
        data_dir = _planar2_data(tmp_path)
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(content))
        code = main(
            [
                "identify", "--mode", "payload", "--data", str(data_dir),
                "--base-params", str(base_path), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {base_path}: {problem}"

    def test_manifest_payload_without_first_moment_names_file_and_key(self, tmp_path, capsys):
        data_dir, truth = self._payload_dataset(tmp_path)
        manifest_path = data_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["payload"]["first_moment"]
        manifest_path.write_text(json.dumps(manifest))
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps({"alpha": truth}))
        code = main(
            [
                "identify", "--mode", "payload", "--data", str(data_dir),
                "--base-params", str(base_path), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {manifest_path} 'payload': no 'first_moment' entry"
        )

    @pytest.mark.parametrize("flag, value", [("--pos-cutoff", "abc"), ("--torque-cutoff", "-2")])
    def test_bad_cutoff_fails_before_reading_trials(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        data_dir = _planar2_data(tmp_path)
        reads = []
        monkeypatch.setattr(signals, "trial_from_csv", lambda path: reads.append(path))
        out = str(tmp_path / "o")
        code = main(["identify", "--data", str(data_dir), flag, value, "--out", out])
        assert code == EXIT_ERROR
        assert reads == []
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"armid identify: error: argument {flag}: "
            f"expected Hz > 0, 'none' or 'auto', got {value!r}"
        )

    def test_robot_prior_comes_from_the_model(self, tmp_path):
        # Without truth_parameters in the manifest, the barrier and the OLS
        # fill-in start from the same prior: the manifest's model.
        data_dir = _planar2_data(tmp_path)
        args = ["identify", "--data", str(data_dir), "--pos-cutoff", "none",
                "--torque-cutoff", "none"]
        assert main([*args, "--out", str(tmp_path / "with")]) == EXIT_OK
        manifest_path = data_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["truth_parameters"]
        manifest_path.write_text(json.dumps(manifest))
        assert main([*args, "--out", str(tmp_path / "without")]) == EXIT_OK
        with_truth, without = (
            json.loads((tmp_path / name / "identification.json").read_text())
            for name in ("with", "without")
        )
        for key in ("ols", "consistent", "alpha"):
            assert with_truth[key] == without[key]

    @pytest.mark.parametrize("mode, weight", [("payload", "-1"), ("robot", "nan")])
    def test_reg_weight_must_be_finite_and_nonnegative(self, tmp_path, capsys, mode, weight):
        data_dir = _planar2_data(tmp_path)
        base_path = tmp_path / "base.json"
        truth = json.loads((data_dir / "manifest.json").read_text())["truth_parameters"]
        base_path.write_text(json.dumps({"alpha": truth}))
        code = main(
            [
                "identify", "--mode", mode, "--data", str(data_dir), "--base-params",
                str(base_path), "--reg-weight", weight, "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_ERROR
        assert "reg_weight must be finite and >= 0" in capsys.readouterr().err


class TestTuneAndReport:
    def test_tune_filters_writes_table(self, tmp_path):
        traj_path = _write_trajectory(tmp_path, "planar2")
        data_dir = tmp_path / "data"
        main(
            [
                "simulate", "--fixture", "planar2", "--traj", str(traj_path),
                "--trials", "1", "--rate", "50", "--noise-rel", "0.005",
                "--out", str(data_dir),
            ]
        )
        out_dir = tmp_path / "tuned"
        code = main(
            [
                "tune-filters", "--data", str(data_dir),
                "--grid", "6,12:6,12", "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        table = (out_dir / "cutoff_search.csv").read_text().splitlines()
        assert len(table) == 1 + 4
        best = json.loads((out_dir / "best_cutoffs.json").read_text())
        residuals = {}
        for line in table[1:]:
            pos, torque, residual, err = line.split(",")
            residuals[(float(pos), float(torque))] = float(residual)
        assert residuals[(best["position_cutoff"], best["torque_cutoff"])] == min(
            residuals.values()
        )

    def test_report_aggregates_runs(self, tmp_path, capsys):
        run = tmp_path / "runA"
        run.mkdir()
        (run / "metrics.csv").write_text(
            "method,link,mass_pct,com_pct,inertia_pct\nconsistent,j1,0.1,0.2,0.3\n"
        )
        code = main(["report", "--runs", str(run)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "consistent" in out
        assert str(run) in out

    def test_report_without_metrics_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--runs", str(empty)]) == EXIT_ERROR


def _replay_argv(config: dict) -> list[str]:
    """The argv a run's ``config`` records: each path, parameter and the seed as its flag."""
    argv = [config["command"]]
    for key, value in {**config["paths"], **config["parameters"], "seed": config["seed"]}.items():
        if key == "model" and value.startswith("fixture:"):
            key, value = "fixture", value.removeprefix("fixture:")
        if value is None:
            if key not in ("pos_cutoff", "torque_cutoff"):  # the cutoffs default to "auto"
                continue
            value = "none"
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


class TestConfig:
    """Every artifact's ``config`` is the run's parsed command line."""

    def _assert_replays(self, argv, artifact, **resolved):
        config = json.loads(Path(artifact).read_text())
        config = config.get("provenance", config)["config"]
        expected = build_parser().parse_args(argv)
        vars(expected).update(resolved)
        assert build_parser().parse_args(_replay_argv(config)) == expected

    def test_config_replays_its_command(self, tmp_path):
        runs = []

        def run(*argv):
            assert main(list(argv)) in (EXIT_OK, EXIT_WARNINGS)
            runs.append(list(argv))
            return runs[-1]

        design = run(
            "design", "--fixture", "pendulum1", "--harmonics", "2", "--sample-rate", "20",
            "--budget", "100", "--outer", "1", "--restarts", "0", "--seed", "4",
            "--out", str(tmp_path / "design"),
        )
        self._assert_replays(design, tmp_path / "design" / "trajectory.json")
        self._assert_replays(design, tmp_path / "design" / "design_report.json")

        traj_path = _write_trajectory(tmp_path, "planar2")
        payload_spec = tmp_path / "payload.json"
        payload_spec.write_text(json.dumps({"mass": 0.4, "radius": 0.05}))
        data_dir = tmp_path / "data"
        simulate = run(
            "simulate", "--fixture", "planar2", "--traj", str(traj_path), "--trials", "1",
            "--rate", "50", "--noise-rel", "0.005", "--payload", str(payload_spec),
            "--char-length", "0.7", "--seed", "3", "--out", str(data_dir),
        )
        self._assert_replays(simulate, data_dir / "manifest.json")

        robot = run("identify", "--data", str(data_dir), "--out", str(tmp_path / "robot"))
        # Noisy data at 50 Hz: "auto" resolves to min(10, rate / 4) Hz.
        self._assert_replays(
            robot, tmp_path / "robot" / "identification.json",
            pos_cutoff=10.0, torque_cutoff=10.0,
        )
        payload = run(
            "identify", "--mode", "payload", "--data", str(data_dir),
            "--base-params", str(tmp_path / "robot" / "identification.json"),
            "--pos-cutoff", "none", "--torque-cutoff", "8", "--reg-weight", "0.01",
            "--out", str(tmp_path / "payload"),
        )
        self._assert_replays(payload, tmp_path / "payload" / "payload.json")

        tune = run(
            "tune-filters", "--data", str(data_dir), "--grid", "6,12:6",
            "--out", str(tmp_path / "tuned"),
        )
        self._assert_replays(tune, tmp_path / "tuned" / "best_cutoffs.json")

    @pytest.mark.parametrize("source, default", [("model", 0.3), ("fixture", 0.4)])
    def test_char_length_reaches_the_manifest_and_the_hash(self, tmp_path, source, default):
        if source == "model":
            robot = tmp_path / "pendulum.urdf"
            robot.write_text(PENDULUM_URDF.format(lo="-3", hi="3"))
            traj_path = _write_trajectory(tmp_path, "pendulum1")
        else:
            robot, traj_path = "chain3", _write_trajectory(tmp_path, "chain3")
        args = ["simulate", f"--{source}", str(robot), "--traj", str(traj_path), "--trials", "1"]
        manifests = []
        for flags in ([], ["--char-length", "0.9"]):
            assert main([*args, *flags, "--out", str(tmp_path / "data")]) == EXIT_OK
            manifests.append(json.loads((tmp_path / "data" / "manifest.json").read_text()))
        assert [m["char_length"] for m in manifests] == [default, 0.9]
        assert manifests[0]["config_hash"] != manifests[1]["config_hash"]


class TestGoldenCsv:
    """Exact bytes of the CLI's CSV artifacts, with the estimates pinned."""

    def test_metrics_rows(self, tmp_path, monkeypatch):
        data_dir = _planar2_data(tmp_path)
        monkeypatch.setattr(
            identify, "error_metrics", lambda est, truth, length: (0.1, 1e-05, 1 / 3)
        )
        out_dir = tmp_path / "ident"
        code = main(
            ["identify", "--mode", "robot", "--data", str(data_dir), "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        row = "{},{},0.1,1e-05,0.3333333333333333\r\n"
        expected = "method,link,mass_pct,com_pct,inertia_pct\r\n" + "".join(
            row.format(method, link)
            for method in ("ols", "consistent")
            for link in ("shoulder", "elbow")
        )
        assert (out_dir / "metrics.csv").read_bytes() == expected.encode()

    def test_cutoff_search_rows(self, tmp_path, monkeypatch):
        data_dir = _planar2_data(tmp_path)
        monkeypatch.setattr(
            identify, "consistent_identify", lambda system, prior: SimpleNamespace(residual=1 / 3)
        )
        out_dir = tmp_path / "tuned"
        code = main(
            ["tune-filters", "--data", str(data_dir), "--grid", "6,2000:6", "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        expected = (
            "position_cutoff,torque_cutoff,residual,error\r\n"
            "6.0,6.0,0.3333333333333333,\r\n"
            '2000.0,6.0,,"cutoff 2000.0 Hz must lie in (0, 25.0) for rate 50.0 Hz"\r\n'
        )
        assert (out_dir / "cutoff_search.csv").read_bytes() == expected.encode()
