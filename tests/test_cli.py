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
from armid import identify
from armid.cli import EXIT_ERROR, EXIT_OK, EXIT_WARNINGS, _load_dataset, main
from armid.excite import (
    DesignProblem,
    evaluate_constraints,
    load_trajectory,
    random_feasible_trajectory,
    save_trajectory,
)
from armid.signals import SignalError
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
    # scipy.signal costs over a second to import; only the filtering stages need it.
    proc = _python(
        "-c",
        "import sys, armid.cli; armid.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _write_trajectory(tmp_path, fixture_name, seed=4, omega=2 * math.pi * 0.1, L=3):
    fixture = builtin_fixture(fixture_name)
    problem = DesignProblem(model=fixture.model, sample_rate=20.0)
    rng = np.random.default_rng(seed)
    traj = random_feasible_trajectory(problem, omega, L, rng)
    assert traj is not None
    path = tmp_path / "traj.json"
    save_trajectory(path, traj, {"seed": seed})
    return path


def _planar2_data(tmp_path):
    traj_path = _write_trajectory(tmp_path, "planar2")
    data_dir = tmp_path / "data"
    code = main(
        [
            "simulate", "--fixture", "planar2", "--traj", str(traj_path),
            "--trials", "1", "--rate", "50", "--out", str(data_dir),
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
        record = evaluate_constraints(traj, problem)
        assert record.max_violation() <= 1e-3
        report = json.loads((out / "design_report.json").read_text())
        assert report["report"]["feasible"] is True
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

    def test_usage_error(self):
        assert main(["design"]) == EXIT_ERROR  # no --out


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
        # OLS and consistent estimates share one QR and one SVD of the stack.
        data_dir = _planar2_data(tmp_path)
        calls = []
        for name in ("qr", "svd"):
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        code = main(
            ["identify", "--mode", "robot", "--data", str(data_dir), "--out", str(tmp_path / "id")]
        )
        assert code == EXIT_OK
        assert sorted(calls) == ["qr", "svd"]

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
