"""armid's errors: every input error is an ``ArmidError`` that names the file
and the entry at fault, and the CLI maps exactly those (and ``OSError``) to
exit 1. Any other exception is a bug and propagates out of ``main``."""

import ast
import copy
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import armid
from armid import dynamics, excite, identify, model, signals, simulate
from armid.cli import EXIT_ERROR, EXIT_OK, EXIT_WARNINGS, main
from armid.excite import ALOptions, DesignProblem, FourierTrajectory, Sphere, design_trajectory
from armid.model import ArmidError, JointSpec, LinkInertialParams, Transform
from armid.simulate import Fixture, NoiseSpec

from test_cli import PENDULUM_URDF, _planar2_data, _write_trajectory

SRC = Path(armid.__file__).resolve().parent
MODULES = [importlib.import_module(f"armid.{m.name}") for m in pkgutil.iter_modules([str(SRC)])]


def test_armid_raises_no_builtin_value_type_or_key_error():
    builtin = {"ValueError", "TypeError", "KeyError"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in builtin:
                    found.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert found == []


def test_every_armid_exception_class_derives_from_armid_error():
    classes = [
        obj
        for module in MODULES
        for _, obj in inspect.getmembers(module, inspect.isclass)
        if obj.__module__ == module.__name__ and issubclass(obj, BaseException)
    ]
    assert len(classes) >= 8
    assert [c.__name__ for c in classes if not issubclass(c, ArmidError)] == []


def test_an_internal_value_error_is_not_an_input_error(tmp_path, monkeypatch):
    # A ValueError from a bug must end in a traceback, not pass for bad input.
    traj_path = _write_trajectory(tmp_path, "chain3")

    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(simulate, "write_dataset", broken)
    with pytest.raises(ValueError, match="internal"):
        main(
            [
                "simulate", "--fixture", "chain3", "--traj", str(traj_path),
                "--trials", "1", "--out", str(tmp_path / "data"),
            ]
        )


_AT_LEAST_0 = "must be finite and >= 0, got"
_ABOVE_0 = "must be finite and > 0, got"


@pytest.mark.parametrize(
    "command, flag, value, problem",
    [
        ("design", "--seed", "-1", f"seed {_AT_LEAST_0} -1"),
        ("design", "--harmonics", "-1", f"harmonics {_ABOVE_0} -1"),
        ("design", "--budget", "0", f"subproblem_budget {_ABOVE_0} 0"),
        ("design", "--outer", "0", f"outer_iterations {_ABOVE_0} 0"),
        ("design", "--sample-rate", "nan", f"sample rate {_ABOVE_0} nan"),
        ("design", "--sample-rate", "inf", f"sample rate {_ABOVE_0} inf"),
        ("simulate", "--seed", "-1", f"seed {_AT_LEAST_0} -1"),
        ("simulate", "--trials", "0", f"trials {_ABOVE_0} 0"),
        ("simulate", "--rate", "nan", f"sample rate {_ABOVE_0} nan"),
        ("simulate", "--rate", "inf", f"sample rate {_ABOVE_0} inf"),
        # Each of these once exited 0 or 2, or exited 1 naming something else.
        ("design", "--gamma", "nan", f"gamma {_AT_LEAST_0} nan"),
        ("design", "--gamma", "inf", f"gamma {_AT_LEAST_0} inf"),
        ("design", "--tolerance", "nan", f"constraint_tolerance {_AT_LEAST_0} nan"),
        ("design", "--tolerance", "inf", f"constraint_tolerance {_AT_LEAST_0} inf"),
        ("design", "--tolerance", "-1", f"constraint_tolerance {_AT_LEAST_0} -1.0"),
        ("design", "--base-freq", "inf", f"base frequency (rad/s) {_ABOVE_0} inf"),
        ("simulate", "--char-length", "nan", f"char_length {_ABOVE_0} nan"),
        ("simulate", "--char-length", "inf", f"char_length {_ABOVE_0} inf"),
        ("simulate", "--char-length", "-1", f"char_length {_ABOVE_0} -1.0"),
        ("simulate", "--char-length", "0", f"char_length {_ABOVE_0} 0.0"),
        ("simulate", "--noise-rel", "nan", f"torque_rel_std {_AT_LEAST_0} nan"),
        ("simulate", "--noise-rel", "inf", f"torque_rel_std {_AT_LEAST_0} inf"),
        ("simulate", "--noise-abs", "nan", f"torque_abs_std {_AT_LEAST_0} nan"),
        ("simulate", "--noise-abs", "inf", f"torque_abs_std {_AT_LEAST_0} inf"),
        ("simulate", "--noise-pos", "nan", f"position_std {_AT_LEAST_0} nan"),
        ("simulate", "--noise-pos", "inf", f"position_std {_AT_LEAST_0} inf"),
        ("simulate", "--rate", "0", f"sample rate {_ABOVE_0} 0.0"),
        ("simulate", "--rate", "-1", f"sample rate {_ABOVE_0} -1.0"),
        ("tune-filters", "--grid", "4,nan:4,8", f"grid cutoff (Hz) {_ABOVE_0} nan"),
    ],
)
def test_out_of_range_flags_are_armid_errors(tmp_path, capsys, command, flag, value, problem):
    # Exit 1, naming the setting and the value, before anything is written: NaN
    # and inf never pass, and numpy never sees a value it would reject with a
    # ValueError.
    out = tmp_path / "o"
    args = [flag, value, "--out", str(out)]
    if command == "tune-filters":
        args += ["--data", str(_planar2_data(tmp_path))]
    else:
        args += ["--fixture", "planar2"]
    if command == "simulate":
        args += ["--traj", str(_write_trajectory(tmp_path, "planar2"))]
    assert main([command, *args]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


_URDF = PENDULUM_URDF.format(lo=-1, hi=1)


def _robot_file(tmp_path, text):
    urdf = tmp_path / "robot.urdf"
    urdf.write_text(text)
    return urdf


def _edited_trial(tmp_path, edit):
    """A planar2 dataset whose trial 0 has ``edit`` applied to its data rows."""
    data_dir = _planar2_data(tmp_path)
    path = data_dir / "trial_000.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(edit(rows)))
    return data_dir, path


def _no_robot(tmp_path):
    return ["design"], "either --model or --fixture is required"


def _grid_not_a_number(tmp_path):
    return (["tune-filters", "--data", str(_planar2_data(tmp_path)), "--grid", "4,abc:4"],
            "grid must be 'default' or 'p1,p2,...:t1,t2,...' (Hz or none)")


def _nan_torque(tmp_path):
    data_dir, trial = _edited_trial(
        tmp_path, lambda rows: [rows[0].rsplit(",", 1)[0] + ",nan\r\n", *rows[1:]]
    )
    return ["identify", "--data", str(data_dir)], f"{trial}: tau contains non-finite values"


def _decreasing_time(tmp_path):
    data_dir, trial = _edited_trial(tmp_path, lambda rows: rows[::-1])  # a uniform grid
    return (["identify", "--data", str(data_dir)],
            f"{trial}: timestamps must be strictly increasing")


def _root_not_robot(tmp_path):
    urdf = _robot_file(tmp_path, "<notrobot/>")
    return (["design", "--model", str(urdf)],
            f"{urdf}: expected <robot> root element, got <notrobot>")


def _no_links(tmp_path):
    urdf = _robot_file(tmp_path, '<robot name="r"/>')
    return ["design", "--model", str(urdf)], f"{urdf}: document declares no links"


def _zero_axis(tmp_path):
    urdf = _robot_file(tmp_path, _URDF.replace("0 1 0", "0 0 0"))
    return ["design", "--model", str(urdf)], f"{urdf}: joint 'swing': zero axis"


def _no_mass(tmp_path):
    urdf = _robot_file(tmp_path, _URDF.replace('<mass value="1.0"/>', ""))
    return (["design", "--model", str(urdf)],
            f"{urdf}: link 'bob': <inertial> needs <mass> and <inertia>")


def _zero_harmonics(tmp_path):
    traj = _write_trajectory(tmp_path, "planar2")
    spec = json.loads(traj.read_text())
    spec["trajectory"]["harmonics"] = 0
    traj.write_text(json.dumps(spec))
    return (["simulate", "--fixture", "planar2", "--traj", str(traj)],
            f"{traj} trajectory: harmonics must be finite and > 0, got 0")


def _nan_configuration(tmp_path):
    # Checked before any work in both modes, not only to pick among labeled sets.
    return (["identify", "--data", str(_planar2_data(tmp_path)), "--configuration", "nan"],
            "configuration must be finite, got nan")


def _nan_configuration_with_alpha(tmp_path):
    data_dir = _planar2_data(tmp_path)
    base = tmp_path / "base.json"
    truth = json.loads((data_dir / "manifest.json").read_text())["truth_parameters"]
    base.write_text(json.dumps({"alpha": truth}))
    return (["identify", "--mode", "payload", "--data", str(data_dir), "--base-params", str(base),
             "--configuration", "nan"], "configuration must be finite, got nan")


def _negative_radius(tmp_path):
    # (2/5) m r**2 would read -0.05 as 0.05.
    spec = tmp_path / "payload.json"
    spec.write_text(json.dumps({"mass": 0.4, "radius": -0.05, "com": [0, 0, 0.1]}))
    traj = _write_trajectory(tmp_path, "planar2")
    return (["simulate", "--fixture", "planar2", "--traj", str(traj), "--payload", str(spec)],
            f"{spec}: 'radius' must be finite and > 0, got -0.05")


@pytest.mark.parametrize(
    "case",
    [_no_robot, _grid_not_a_number, _nan_torque, _decreasing_time, _root_not_robot, _no_links,
     _zero_axis, _no_mass, _zero_harmonics, _nan_configuration, _nan_configuration_with_alpha,
     _negative_radius],
    ids=lambda case: case.__name__[1:],
)
def test_an_input_error_exits_1_naming_it_and_writes_nothing(tmp_path, capsys, case):
    # The range errors of numeric flags are in test_out_of_range_flags_are_armid_errors.
    argv, fault = case(tmp_path)
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {fault}\n"
    assert not out.exists()


_PLANAR2 = simulate.builtin_fixture("planar2").model
# A stack built from bare matrices: two free columns and no per-link layout.
_BARE = identify.least_squares(dynamics.RegressorStack(np.eye(6, 2), np.zeros(6), np.ones(6)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: dynamics.inverse_dynamics_batch(
                _PLANAR2, np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((2, 2))
            ),
            model.ValidationError, "state batch shapes (3, 2)/(3, 2)/(2, 2) do not match N=2",
            id="dynamics-state-shapes",
        ),
        pytest.param(
            lambda: Transform(np.eye(2), np.zeros(3)),
            model.ValidationError, "rotation must have shape (3, 3), got (2, 2)",
            id="model-array-shape",
        ),
        pytest.param(
            lambda: Transform(np.eye(3), [0.0, math.nan, 0.0]),
            model.ValidationError, "translation contains non-finite entries",
            id="model-array-non-finite",
        ),
        pytest.param(
            lambda: Transform(np.diag([2.0, 1.0, 1.0]), np.zeros(3)),
            model.ValidationError, "rotation is not orthonormal (deviation 3.00e+00)",
            id="model-rotation",
        ),
        pytest.param(
            lambda: LinkInertialParams.from_vector(np.zeros(12)),
            model.ValidationError, "expected 13 entries, got (12,)",
            id="model-from-vector-size",
        ),
        pytest.param(
            lambda: model.RobotModel(links=((1, 2),)),
            model.ValidationError, "links must be (JointSpec, LinkInertialParams) pairs",
            id="model-links-not-pairs",
        ),
        pytest.param(
            lambda: model.inertia_about_com(LinkInertialParams(0.0, np.zeros(3), np.eye(3))),
            model.ValidationError, "center-of-mass inertia requires mass > 0",
            id="model-com-inertia-massless",
        ),
        pytest.param(
            lambda: model.parse_robot_description(_URDF.replace('<mass value="1.0"/>', ""), "r"),
            model.ValidationError, "r: link 'bob': <inertial> needs <mass> and <inertia>",
            id="model-inertial-without-mass",
        ),
        pytest.param(
            lambda: model.parse_robot_description(_URDF.replace("0 1 0", "0 0 0"), "r"),
            model.ValidationError, "r: joint 'swing': zero axis",
            id="model-zero-axis",
        ),
        pytest.param(
            lambda: signals.RawTrial(np.zeros((3, 1)), np.zeros((3, 2)), np.zeros((3, 2))),
            signals.SignalError, "timestamps must be (S,), q and tau (S, N)",
            id="signals-trial-dims",
        ),
        pytest.param(
            lambda: signals.RawTrial(np.zeros(3), np.zeros((2, 2)), np.zeros((2, 2))),
            signals.SignalError, "timestamps, q, tau row counts disagree",
            id="signals-trial-rows",
        ),
        pytest.param(
            lambda: signals.average_trials([]),
            signals.SignalError, "no trials to average",
            id="signals-average-nothing",
        ),
        pytest.param(
            lambda: DesignProblem(_PLANAR2, link_collision_spheres=((),)),
            excite.ExciteError, "need one collision sphere list per link (or none)",
            id="excite-sphere-lists",
        ),
        pytest.param(
            lambda: Sphere([0.0, 0.0], 0.1),
            excite.ExciteError, "sphere center must be 3 finite numbers, got [0.0, 0.0]",
            id="excite-sphere-center-size",
        ),
        pytest.param(
            lambda: Sphere(np.array([math.nan, 0.0, 0.0]), 0.1),
            excite.ExciteError, "sphere center must be 3 finite numbers, got [nan, 0.0, 0.0]",
            id="excite-sphere-center-non-finite",
        ),
        pytest.param(
            lambda: excite.evaluate_constraints(DesignProblem(_PLANAR2), *[np.zeros((3, 3))] * 3),
            excite.ExciteError, "trajectory and model joint counts differ",
            id="excite-joint-count",
        ),
        pytest.param(
            lambda: identify.ols_identify(_BARE, prior=np.zeros(5)),
            identify.IdentifyError, "prior has 5 entries, expected 2",
            id="identify-prior-size",
        ),
        pytest.param(
            lambda: identify.consistent_identify(_BARE, np.zeros(2)),
            identify.IdentifyError, "consistent_identify needs a stack with link structure",
            id="identify-consistent-bare-stack",
        ),
        pytest.param(
            lambda: identify.payload_identify(_BARE),
            identify.IdentifyError, "payload_identify needs a stack with link structure",
            id="identify-payload-bare-stack",
        ),
    ],
)
def test_library_input_checks_name_the_problem(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


_BASE = {
    FourierTrajectory: FourierTrajectory(1.0, 1, [0.0], [[0.0]], [[0.0]]),
    Sphere: Sphere(np.zeros(3), 0.1),
    DesignProblem: DesignProblem(simulate.builtin_fixture("pendulum1").model),
    ALOptions: ALOptions(),
    NoiseSpec: NoiseSpec(),
    Fixture: simulate.builtin_fixture("pendulum1"),
    JointSpec: simulate.builtin_fixture("pendulum1").model.joint_specs[0],
}
# The one float setting checked where it is used rather than where it is set.
_CHECKED_IN_USE = {
    (DesignProblem, "sample_rate"): lambda problem: design_trajectory(problem, 1.0, 1),
}


@pytest.mark.parametrize("cls", list(_BASE), ids=lambda cls: cls.__name__)
def test_every_float_setting_rejects_nan_and_inf(cls):
    # Every numeric field, float or int, goes through model.check_number; one
    # added later must as well.
    names = [f.name for f in dataclasses.fields(cls) if f.type in ("float", float, "int", int)]
    assert names
    for name in names:
        for bad in (math.nan, math.inf):
            use = _CHECKED_IN_USE.get((cls, name), lambda obj: None)
            with pytest.raises(ArmidError, match=f"{bad}"):
                use(dataclasses.replace(_BASE[cls], **{name: bad}))


def test_generate_dataset_rejects_a_nan_trial_count():
    traj = _BASE[FourierTrajectory]
    with pytest.raises(simulate.SimulateError, match="trials must be finite and > 0, got nan"):
        simulate.generate_dataset(_BASE[Fixture], traj, 20.0, math.nan, NoiseSpec())


def test_an_integer_beyond_float_range_is_out_of_range():
    # float() of such an int raises OverflowError, which is not an ArmidError.
    with pytest.raises(ArmidError, match="seed must be finite and >= 0, got 1000"):
        ALOptions(seed=10**400)


def _design_urdf(tmp_path, capsys, text):
    urdf = tmp_path / "robot.urdf"
    urdf.write_bytes(text) if isinstance(text, bytes) else urdf.write_text(text)
    code = main(["design", "--model", str(urdf), "--out", str(tmp_path / "run")])
    return code, capsys.readouterr().err, urdf


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda t: t.replace("<robot", "<robot<"), "malformed XML at line 2, column 6"),
        (lambda t: t.replace('<mass value="1.0"/>', '<mass value="abc"/>'),
         "link 'bob' <mass>: 'value' is not a finite number: 'abc'"),
        (lambda t: t.replace('<mass value="1.0"/>', "<mass/>"),
         "link 'bob' <mass>: 'value' is missing"),
        (lambda t: t.replace('velocity="2.5"', 'velocity="inf"'),
         "joint 'swing' <limit>: 'velocity' is not a finite number: 'inf'"),
        (lambda t: t.replace('<axis xyz="0 1 0"/>', '<axis xyz="0 1"/>'),
         "joint 'swing' <axis>: 'xyz' is not 3 finite numbers: '0 1'"),
        (lambda t: t.replace('<origin xyz="0 0 -0.5"/>', '<origin xyz="0 0 x"/>'),
         "link 'bob' <inertial> <origin>: 'xyz' is not 3 finite numbers: '0 0 x'"),
    ],
    ids=["malformed-xml", "non-numeric-mass", "no-mass-value", "infinite-velocity",
         "short-axis", "bad-origin"],
)
def test_model_file_errors_name_file_element_and_attribute(tmp_path, capsys, edit, problem):
    code, err, urdf = _design_urdf(tmp_path, capsys, edit(PENDULUM_URDF.format(lo=-3, hi=3)))
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {urdf}: {problem}")


def _simulate(tmp_path, traj, *flags):
    return main(
        ["simulate", "--fixture", "planar2", "--traj", str(traj), "--trials", "1",
         "--rate", "50", *flags, "--out", str(tmp_path / "sim")]
    )


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", b"[1, 2]"],
                         ids=["malformed", "undecodable", "not-an-object"])
@pytest.mark.parametrize("document", ["manifest", "trajectory", "payload", "base"])
def test_a_bad_json_file_exits_1_naming_it(tmp_path, capsys, document, content):
    data_dir = _planar2_data(tmp_path)
    traj, spec, base = tmp_path / "traj.json", tmp_path / "spec.json", tmp_path / "base.json"
    spec.write_text(json.dumps({"mass": 0.4}))
    base.write_text(json.dumps({"alpha": [0.0] * 26}))
    bad = {"manifest": data_dir / "manifest.json", "trajectory": traj, "payload": spec,
           "base": base}[document]
    bad.write_bytes(content)
    if document == "manifest":
        code = main(["tune-filters", "--data", str(data_dir), "--out", str(tmp_path / "o")])
    elif document == "base":
        code = main(["identify", "--mode", "payload", "--data", str(data_dir),
                     "--base-params", str(base), "--out", str(tmp_path / "o")])
    else:
        code = _simulate(tmp_path, traj, "--payload", str(spec))
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_a_trajectory_for_another_robot_exits_1_naming_both_counts(tmp_path, capsys):
    traj = _write_trajectory(tmp_path, "arm7")
    assert _simulate(tmp_path, traj) == EXIT_ERROR
    assert capsys.readouterr().err == "error: trajectory has 7 joints, but robot 'planar2' has 2\n"
    assert not (tmp_path / "sim").exists()


def test_an_undecodable_model_file_exits_1_naming_it(tmp_path, capsys):
    code, err, urdf = _design_urdf(tmp_path, capsys, b"<robot name='\xff'/>")
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {urdf}: not a text file")


def test_an_undecodable_metrics_file_exits_1_naming_it(tmp_path, capsys):
    (tmp_path / "metrics.csv").write_bytes(b"method,link\n\xff\n")
    assert main(["report", "--runs", str(tmp_path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'metrics.csv'}: not a text")


@pytest.mark.parametrize(
    "key, value, problem",
    [("axis", [0.0, 1.0], "'axis' has shape (2,), expected (3,)"),
     ("position_limits", [0, 1, 2], "'position_limits' has shape (3,), expected (2,)")],
)
def test_manifest_entries_of_the_wrong_length_name_file_and_key(
    tmp_path, capsys, key, value, problem
):
    data_dir = _planar2_data(tmp_path)
    manifest_path = data_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["model"]["links"][1]["joint"][key] = value
    manifest_path.write_text(json.dumps(manifest))
    code = main(["identify", "--data", str(data_dir), "--out", str(tmp_path / "o")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {manifest_path} model links[1] joint: {problem}\n"


# --- input sweep -------------------------------------------------------------------

_VALUES = [None, "x", [], {}, 5, [1.0, 2.0]]


def _entries(doc, at=()):
    """Paths to the entries of a JSON document: every key of an object, every
    element of a short list of numbers, and, for a list of objects, the keys
    of its last object. Run provenance (``config``) is not read, so it is skipped."""
    found = []
    for key, value in doc.items():
        if key == "config":
            continue
        found.append(at + (key,))
        if isinstance(value, dict):
            found += _entries(value, at + (key,))
        elif isinstance(value, list) and value and isinstance(value[-1], dict):
            found += _entries(value[-1], at + (key, len(value) - 1))
        elif isinstance(value, list) and len(value) <= 3:
            found += [at + (key, i) for i, v in enumerate(value) if not isinstance(v, list)]
    return found


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    traj = _write_trajectory(tmp, "planar2")
    spec = tmp / "sphere.json"
    spec.write_text(json.dumps({"mass": 0.4, "radius": 0.05, "com": [0.0, 0.0, 0.1]}))
    assert _simulate(tmp, traj, "--noise-rel", "0.005", "--payload", str(spec)) == EXIT_OK
    manifest = json.loads((tmp / "sim" / "manifest.json").read_text())
    (tmp / "base.json").write_text(json.dumps({"alpha": manifest["truth_parameters"]}))
    return tmp


# Entries whose bad values ended in a traceback before every input went
# through one reader; their messages must name the file and the entry.
_ONCE_TRACEBACKS = ("noise", "torque_abs_std", "torque_rel_std", "rate", "char_length",
                    "truth_parameters", "position_limits")


@pytest.mark.parametrize("document", ["manifest", "trajectory", "sphere", "rigid body"])
def test_every_bad_entry_exits_through_main(tmp_path, capsys, sweep_inputs, document):
    # Each entry of each document gets each of _VALUES in turn. main must
    # return 0, 1 or 2 every time; exit 1 must name the file.
    simulate = ["simulate", "--fixture", "planar2", "--trials", "1", "--rate", "50",
                "--out", str(tmp_path / "sim")]
    if document == "manifest":
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for trial in (sweep_inputs / "sim").glob("trial_*.csv"):
            (data_dir / trial.name).write_bytes(trial.read_bytes())
        path = data_dir / "manifest.json"
        doc = json.loads((sweep_inputs / "sim" / "manifest.json").read_text())
        argv = ["identify", "--mode", "payload", "--data", str(data_dir), "--pos-cutoff", "8",
                "--base-params", str(sweep_inputs / "base.json"), "--out", str(tmp_path / "o")]
    elif document == "trajectory":
        path = tmp_path / "traj.json"
        doc = json.loads((sweep_inputs / "traj.json").read_text())
        argv = [*simulate, "--traj", str(path)]
    else:
        path = tmp_path / "spec.json"
        doc = (
            {"mass": 0.4, "radius": 0.05, "com": [0.0, 0.0, 0.1]} if document == "sphere"
            else {"mass": 0.4, "first_moment": [0.0, 0.0, 0.04],
                  "rotational_inertia": np.diag([5e-3, 5e-3, 4e-4]).tolist()}
        )
        argv = [*simulate, "--traj", str(sweep_inputs / "traj.json"), "--payload", str(path)]
    problems = []
    for entry in _entries(doc):
        named = next(k for k in reversed(entry) if isinstance(k, str))
        for value in _VALUES:
            path.write_text(json.dumps(_replaced(doc, entry, value)))
            case = f"{entry} = {value!r}"
            try:
                code = main(argv)
            except Exception as exc:  # any exception out of main is the failure
                problems.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err.strip()
            if code not in (EXIT_OK, EXIT_ERROR, EXIT_WARNINGS):
                problems.append(f"{case}: exit {code}")
            elif code != EXIT_ERROR:
                continue
            elif str(path) not in err:
                problems.append(f"{case}: {err}")
            elif named in _ONCE_TRACEBACKS and not (
                repr(named) in err or named.replace("_", " ") in err
            ):
                problems.append(f"{case}: {err} (does not name {named!r})")
    assert problems == []


@pytest.mark.parametrize(
    "entry, value, rule",
    [
        (("char_length",), -0.3, _ABOVE_0),
        (("char_length",), 0, _ABOVE_0),
        (("rate",), -50, _ABOVE_0),
        (("rate",), 0, _ABOVE_0),
        (("noise", "torque_abs_std"), -1, _AT_LEAST_0),
        (("noise", "torque_rel_std"), -1, _AT_LEAST_0),
        (("noise", "position_std"), -1e-3, _AT_LEAST_0),
    ],
    ids=["char_length<0", "char_length=0", "rate<0", "rate=0", "torque_abs_std<0",
         "torque_rel_std<0", "position_std<0"],
)
def test_out_of_range_manifest_numbers_exit_1_before_any_artifact(
    tmp_path, capsys, sweep_inputs, entry, value, rule
):
    # Each once passed its read: char_length failed after identification.json
    # was written, a negative rate made negative cutoffs, and negative stds
    # turned the auto filters off on noisy data.
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for trial in (sweep_inputs / "sim").glob("trial_*.csv"):
        (data_dir / trial.name).write_bytes(trial.read_bytes())
    path = data_dir / "manifest.json"
    doc = json.loads((sweep_inputs / "sim" / "manifest.json").read_text())
    path.write_text(json.dumps(_replaced(doc, entry, value)))
    out = tmp_path / "o"
    assert main(["identify", "--data", str(data_dir), "--out", str(out)]) == EXIT_ERROR
    where = f"{path} 'noise'" if entry[0] == "noise" else path
    problem = f"{entry[-1]!r} {rule} {float(value)}"
    assert capsys.readouterr().err == f"error: {where}: {problem}\n"
    assert not out.exists()
