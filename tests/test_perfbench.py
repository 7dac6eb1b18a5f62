"""The benchmark's required spans and prepare steps name what armid still has.

perfbench traces a run by wrapping armid's public functions, and a workload
fails when a span it requires never fires; its prepare step calls armid's
fixtures and trajectory API directly. These tests read perfbench's sources
without running a benchmark (``workloads.py``, standard library only, is
loaded to call its ``plan``, and ``tracer.py`` to apply its counters to real
results), so a refactor that renames or privatizes what the benchmark uses
fails here first.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from armid import dynamics, identify, signals, simulate
from armid.model import pack_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _constant(filename: str, name: str):
    """The literal value assigned to ``name`` at the top of a perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in perfbench/{filename}")


def test_every_required_span_is_a_traced_public_function():
    traced = _constant("tracer.py", "TRACED_MODULES")
    spans = {span for spans in _constant("workloads.py", "REQUIRED_SPANS").values()
             for span in spans}
    spans.discard("linalg.svd")  # numpy's, wrapped by the tracer itself
    assert spans
    for span in sorted(spans):
        short, name = span.split(".")
        assert short in traced, span
        module = importlib.import_module(f"armid.{short}")
        attr = f"cmd_{name}" if short == "cli" else name
        fn = getattr(module, attr, None)
        assert not attr.startswith("_"), span
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span


def test_trial_paths_sit_where_the_tracer_reads_them():
    # The tracer's byte counts take the trial path from these arguments.
    assert list(inspect.signature(signals.trial_from_csv).parameters)[0] == "path"
    assert list(inspect.signature(signals.trial_to_csv).parameters)[1] == "path"


def test_every_armid_attribute_the_benchmark_calls_is_public():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("excite", "simulate", "cli")
        and not node.attr.startswith("__")  # module metadata such as cli.__file__
    }
    assert ("simulate", "builtin_fixture") in used and ("cli", "main") in used
    for short, name in sorted(used):
        module = importlib.import_module(f"armid.{short}")
        assert not name.startswith("_"), (short, name)
        assert callable(getattr(module, name, None)), (short, name)


def test_every_armid_call_the_benchmark_makes_fits_its_signature():
    # A renamed, reordered or dropped parameter fails here rather than in the
    # benchmark's prepare step.
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("excite", "simulate", "cli")
    ]
    names = {call.func.attr for call in calls}
    assert {"random_feasible_trajectory", "DesignProblem", "save_trajectory"} <= names
    for call in calls:
        short, name = call.func.value.id, call.func.attr
        where = f"perfbench/child.py:{call.lineno} {short}.{name}"
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), where
        assert all(keyword.arg is not None for keyword in call.keywords), where
        fn = getattr(importlib.import_module(f"armid.{short}"), name)
        try:
            inspect.signature(fn).bind(
                *[None] * len(call.args), **{k.arg: None for k in call.keywords}
            )
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None


def _load(filename: str, monkeypatch):
    """A perfbench file loaded as a module of its own."""
    name = f"_perfbench_{filename.removesuffix('.py')}"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_every_fixture_the_workloads_use_is_builtin(monkeypatch):
    workloads = _load("workloads.py", monkeypatch)
    used = set()
    for workload in workloads.WORKLOADS:
        plan = workloads.plan(workload, 0)
        argvs = [stage.argv for stage in plan.stages]
        if plan.prepare is not None:
            used |= set(plan.prepare["trajectories"])
            argvs.append(plan.prepare["simulate"])
        used |= {argv[argv.index("--fixture") + 1] for argv in argvs if "--fixture" in argv}
    assert used == {"arm7", "chain3"}
    assert used <= set(simulate.FIXTURE_NAMES)


def test_barrier_counters_read_real_results(monkeypatch):
    # The tracer reads identify.barrier.* off each barrier result's trace, so a
    # renamed BarrierTrace field would zero them without failing a run.
    tracer = _load("tracer.py", monkeypatch)
    model = simulate.builtin_fixture("chain3").model
    truth = pack_params(model)
    rng = np.random.default_rng(0)
    q, qd, qdd = (rng.uniform(-2.0, 2.0, (100, 3)) for _ in range(3))
    tau = dynamics.inverse_dynamics_batch(model, q, qd, qdd)
    tau = tau + 0.01 * rng.standard_normal(tau.shape)
    mask = identify.payload_fixed_mask(3)
    results = {
        "identify.consistent_identify": identify.consistent_identify(
            identify.least_squares(dynamics.stack_regressor(model, q, qd, qdd, tau)), truth
        ),
        "identify.payload_identify": identify.payload_identify(
            identify.least_squares(
                dynamics.stack_regressor(model, q, qd, qdd, tau, fixed_mask=mask, fixed_values=truth)
            )
        ),
    }
    for span, result in results.items():
        assert tracer.MEASURES[span] is tracer._barrier
        counts = dict(tracer._barrier((), {}, result))
        assert counts == {
            "identify.barrier.newton_iters": sum(result.trace.newton_iterations),
            "identify.barrier.mu_stages": len(result.trace.mu_path),
        }
        assert counts["identify.barrier.newton_iters"] > 0
        assert counts["identify.barrier.mu_stages"] > 0
