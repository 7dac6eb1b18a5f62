"""One fresh process of the benchmark; ``run.py`` starts it and reads its result.

    child.py setup   --result R                  time importing armid.cli and building its parser
    child.py prepare --workload W --seed N --result R   the same, then make the workload's inputs
    child.py run     --workload W --seed N --trace 0|1 --seconds S --deadline D --result R
                     time the CLI stages, pass after pass, until S seconds of
                     passes have run (at least one pass; none that would end past D seconds);
                     untraced, read the host's speed (hostspeed.py) around every stage

The working directory is the workload's work directory; ``armid`` is imported
from the checkout's ``src`` through ``PYTHONPATH``. The result is a JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

clock = time.perf_counter


def _import_cli():
    """Import ``armid.cli`` and build its parser: the set-up every CLI call pays.

    Returns the module and the set-up time with a reading of the host's speed
    taken right after it.
    """
    start = clock()
    from armid import cli

    cli.build_parser()
    setup_s = clock() - start
    import hostspeed  # after the timing, so it adds nothing to setup_s

    return cli, {"setup_s": setup_s, "setup_calibration_s": hostspeed.sample("interp")}


def setup() -> dict:
    _, timing = _import_cli()
    return timing


def prepare(workload: str, seed: int) -> dict:
    cli, timing = _import_cli()
    import numpy as np
    import scipy

    from armid import excite, simulate

    spec = workloads.plan(workload, seed).prepare
    if spec is not None:
        for fixture_name, traj_seed in spec["trajectories"].items():
            fixture = simulate.builtin_fixture(fixture_name)
            problem = excite.DesignProblem(model=fixture.model, sample_rate=20.0)
            rng = np.random.default_rng(traj_seed)
            traj = excite.random_feasible_trajectory(problem, 2 * math.pi * 0.05, 5, rng)
            if traj is None:
                raise RuntimeError(f"no feasible {fixture_name} trajectory for seed {seed}")
            excite.save_trajectory(f"in/traj_{fixture_name}.json", traj)
        with open("in/payload.json", "w") as fh:
            json.dump(spec["payload"], fh, indent=2, sort_keys=True)
        if cli.main(list(spec["simulate"])) != 0:
            raise RuntimeError("simulating the input dataset failed")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **timing,
        "armid": cli.__file__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _trace_delta(after: dict, before: dict) -> dict:
    """What a tracer summary gained between two snapshots: one pass's trace."""
    stats = {}
    for name, stat in after["stats"].items():
        old = before["stats"].get(name, {"calls": 0, "self_s": 0.0})
        stats[name] = {"calls": stat["calls"] - old["calls"],
                       "self_s": stat["self_s"] - old["self_s"]}
    counts = {k: v - before["counts"].get(k, 0) for k, v in after["counts"].items()}
    return {
        "stats": stats,
        "counts": counts,
        "overhead_s": after["overhead_s"] - before["overhead_s"],
        "root_s": after["root_s"] - before["root_s"],
    }


def run(workload: str, seed: int, traced: bool, seconds: float, deadline: float) -> dict:
    cli, timing = _import_cli()
    import hostspeed

    end_by = clock() + deadline
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    passes, measured = [], 0.0
    # The latest reading of the host's speed, while nothing has run since.
    reading = ("interp", timing["setup_calibration_s"])
    while True:
        before = tracer.summary() if tracer else None
        stages = []
        begun = clock()
        for stage in workloads.plan(workload, seed).stages:
            if not tracer and reading[0] != stage.host_loop:
                reading = (stage.host_loop, hostspeed.sample(stage.host_loop))
            root_before = tracer.root_s if tracer else 0.0
            error = None
            start = clock()
            try:
                code = cli.main(list(stage.argv))
            except Exception:  # a crashing stage is a counted failure, not the end of the run
                code, error = None, traceback.format_exc()
            wall = clock() - start
            entry = {"name": stage.name, "code": code, "error": error, "wall_s": wall}
            if tracer:
                entry["root_s"] = tracer.root_s - root_before
            else:  # the host's speed just before and just after the stage
                after = hostspeed.sample(stage.host_loop)
                entry["calibration_s"] = (reading[1] + after) / 2
                reading = (stage.host_loop, after)
            stages.append(entry)
        took = clock() - begun
        measured += sum(s["wall_s"] for s in stages)
        record = {"stages": stages, "digests": workloads.digests(Path.cwd())}
        if tracer:
            record["trace"] = _trace_delta(tracer.summary(), before)
        passes.append(record)
        if measured >= seconds or clock() + took > end_by:
            break
    if tracer:
        tracer.write_spans("spans.jsonl")
    return {
        **timing,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "prepare", "run"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup()
    elif args.mode == "prepare":
        result = prepare(args.workload, args.seed)
    else:
        result = run(args.workload, args.seed, bool(args.trace), args.seconds, args.deadline)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
