"""The benchmark's required spans name functions that armid still has.

perfbench traces a run by wrapping armid's public functions, and a workload
fails when a span it requires never fires. These tests read perfbench's
constants from its source, without importing or running it, so a refactor
that renames or privatizes a required function fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

from armid import signals

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
