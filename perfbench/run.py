"""armid benchmark: time the real CLI, stage by stage, on seeded inputs.

    python3 perfbench/run.py --workload design-chain3 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 0        # every workload, untraced then traced

Run from the root of a checkout. Each run makes its inputs from ``--seed``
(untimed), then starts one fresh child process that imports ``armid.cli``
(that is ``setup_s``, with a few set-up-only children for its median) and runs
the workload's CLI stages one after another through ``cli.main(argv)``, pass
after pass, until ``--seconds`` of passes have run (at least one). ``total_s``
is the median pass. Every stage, and set-up, is scaled to a fixed host speed
by readings of ``hostspeed.py`` taken around it. The artifacts are
checked against the workload's correctness gates, against every other pass
byte for byte, and, whenever a seed repeats in this checkout, against the
artifacts of the earlier run.

With ``--trace 1`` the child wraps armid's public functions and reports self
time and counts per layer instead of the end-to-end metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench"
# Fresh processes that time set-up in an untraced run: the prepare child, this
# many set-up-only children, and the run child, so the median is over 4.
SETUP_CHILDREN = 2
DEADLINE_S = 170.0  # a run stops starting passes that would end past this

# Counts that must repeat exactly across runs of one seed.
EXACT_SUFFIXES = (
    ".calls", ".samples", ".rows", ".cols", ".bytes", ".u_bytes", ".inf", ".failed_points"
)
EXACT_NAMES = (
    "excite.al_evals",
    "identify.barrier.newton_iters",
    "identify.barrier.mu_stages",
    "cli.exit2_warnings",
)


class BenchError(Exception):
    """The benchmark itself could not run: no result is printed."""


@dataclass
class Report:
    """Everything one run of one workload measured and checked."""

    workload: str
    traced: bool
    attempted: int = 0
    failed: int = 0
    warnings: int = 0
    problems: list = field(default_factory=list)
    stage_s: dict = field(default_factory=dict)  # stage metric -> median seconds over passes
    quality: dict = field(default_factory=dict)  # residuals and other gate values
    metrics: dict = field(default_factory=dict)  # name -> value, as the run reports them
    passes: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def blas_threads() -> int:
    """BLAS threads pinned in every child: all usable cores, at most two."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def _child(mode: str, work: Path, deadline: float, *args: str) -> dict:
    """Start one child process, wait for it, and return its JSON result."""
    result_path = work / f"{mode}.result.json"
    result_path.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {mode} child")
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, "--result", str(result_path), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=work, env=_child_env(), stdout=sys.stderr, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} child ran past the run's deadline") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"the {mode} child exited {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def source_digest() -> str:
    """Identity of the code under test and of the benchmark, for repeat records."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _compare_record(path: Path, key: str, current: dict) -> list[str]:
    """Compare ``current`` with what an earlier run of this seed stored; store it if new."""
    record = json.loads(path.read_text()) if path.exists() else {}
    if key not in record:
        record[key] = current
        path.write_text(json.dumps(record, sort_keys=True))
        return []
    earlier = record[key]
    return sorted(k for k in set(earlier) | set(current) if earlier.get(k) != current.get(k))


def _layer_values(result: dict, gate_values: dict) -> dict:
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json uses."""
    trace = result["trace"]
    values = dict(trace["counts"])
    for name, stat in trace["stats"].items():
        values[f"{name}.calls"] = stat["calls"]
        values[f"{name}.self_s"] = stat["self_s"]
    evals = gate_values.get("al_evals", 0)
    design_s = sum(s["wall_s"] for s in result["stages"] if s["name"] == "design")
    objective_calls = values.get("excite.information_objective.calls", 0)
    values["excite.al_evals"] = evals
    values["excite.al_evals_per_s"] = evals / design_s if evals else 0.0
    values["excite.objective_calls_per_eval"] = objective_calls / evals if evals else 0.0
    values["excite.objective_inf_frac"] = (
        values.get("excite.information_objective.inf", 0) / objective_calls
        if objective_calls
        else 0.0
    )
    values["signals.tune_filter_cutoffs.failed_points"] = gate_values.get("failed_points", 0)
    values["cli.exit2_warnings"] = sum(1 for s in result["stages"] if s["code"] == 2)
    wall = sum(s["wall_s"] for s in result["stages"])
    rooted = sum(s["root_s"] for s in result["stages"])
    values["trace.overhead_pct"] = 100.0 * trace["overhead_s"] / (wall - trace["overhead_s"])
    values["trace.unattributed_pct"] = 100.0 * (wall - rooted) / wall
    return values


def _stage_time(stage: workloads.Stage, entry: dict) -> float:
    """A stage's time at the reference host speed; a traced stage's wall time."""
    if "calibration_s" not in entry:
        return entry["wall_s"]
    return entry["wall_s"] * hostspeed.REFERENCE_S[stage.host_loop] / entry["calibration_s"]


def _is_exact(name: str) -> bool:
    return name in EXACT_NAMES or name.endswith(EXACT_SUFFIXES)


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> Report:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plan = workloads.plan(workload, seed)
    work = WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    (work / "out").mkdir()
    report = Report(workload, traced)

    env = _child("prepare", work, deadline, "--workload", workload, "--seed", str(seed))
    if not Path(env["armid"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"armid was imported from {env['armid']}, not from this checkout")
    print(f"# {workload} seed={seed} trace={int(traced)} python={sys.version.split()[0]} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']!r} "
          f"blas_threads={blas_threads()} nproc={os.cpu_count()}")

    setups = [env]
    if not traced:
        setups += [_child("setup", work, deadline) for _ in range(SETUP_CHILDREN)]
    result = _child("run", work, deadline, "--workload", workload, "--seed", str(seed),
                    "--trace", str(int(traced)), "--seconds", str(seconds),
                    "--deadline", str(deadline - time.monotonic() - 5.0))
    setups.append(result)
    passes = result["passes"]

    # Gates read the artifacts the last pass left; every pass must have left
    # the same bytes, so a gate's verdict holds for each pass.
    gate_problems, gate_values = {}, {}
    for i, stage in enumerate(plan.stages):
        problems, values = workloads.check_stage(work, stage)
        gate_problems[i] = problems
        gate_values.update(values)
        report.problems += problems
    record_key = f"{source_digest()}/{workload}/{seed}"
    records = WORK_DIR / "records.json"
    first = passes[0]["digests"]
    changed = _compare_record(records, f"{record_key}/artifacts", first)
    if changed:
        report.problems.append(f"artifacts differ from an earlier run of this seed: {changed}")
    for n, run_pass in enumerate(passes, 1):
        differs = sorted(k for k in set(first) | set(run_pass["digests"])
                         if first.get(k) != run_pass["digests"].get(k))
        if differs:
            report.problems.append(f"pass {n} artifacts differ from pass 1: {differs}")
        for i, (stage, entry) in enumerate(zip(plan.stages, run_pass["stages"])):
            failed = bool(gate_problems[i])
            if entry["error"]:
                report.problems.append(
                    f"pass {n} {stage.name} raised: {entry['error'].strip().splitlines()[-1]}")
                failed = True
            elif entry["code"] == 2:
                report.warnings += 1
            elif entry["code"] != 0:
                report.problems.append(f"pass {n} {stage.name} exited {entry['code']}")
                failed = True
            if any(p.startswith(stage.out + "/") for p in changed + differs):
                failed = True
            report.attempted += 1
            report.failed += failed
        print(f"pass {n}: " + ", ".join(
            f"{stage.name} {entry['wall_s']:.3f} s (exit {entry['code']})"
            for stage, entry in zip(plan.stages, run_pass["stages"])))
    if report.warnings:
        print(f"warning: {report.warnings} stage runs exited 2 (completed with a warning)")
    report.quality = {k: v for k, v in gate_values.items() if k.endswith("residual")}

    stage_totals = []
    for run_pass in passes:
        totals = {}
        for stage, entry in zip(plan.stages, run_pass["stages"]):
            totals[stage.metric] = totals.get(stage.metric, 0.0) + _stage_time(stage, entry)
        stage_totals.append(totals)
    pass_totals = [sum(t.values()) for t in stage_totals]
    report.stage_s = {m: statistics.median(t[m] for t in stage_totals) for m in stage_totals[0]}
    report.metrics["total_s"] = statistics.median(pass_totals)
    report.metrics["total_min_s"] = min(pass_totals)
    report.metrics["total_max_s"] = max(pass_totals)
    report.metrics["total_wall_s"] = statistics.median(
        sum(entry["wall_s"] for entry in run_pass["stages"]) for run_pass in passes)
    report.metrics["setup_s"] = statistics.median(
        t["setup_s"] * hostspeed.REFERENCE_S["interp"] / t["setup_calibration_s"] for t in setups)
    report.metrics["setup_wall_s"] = statistics.median(t["setup_s"] for t in setups)
    report.metrics["peak_rss_mb"] = result["peak_rss_mb"]
    report.passes = len(passes)
    if traced:
        per_pass = [_layer_values(run_pass, gate_values) for run_pass in passes]
        exact = {k: v for k, v in per_pass[0].items() if _is_exact(k)}
        for n, layer in enumerate(per_pass[1:], 2):
            differs = sorted(k for k in exact if layer.get(k) != exact[k])
            if differs:
                report.problems.append(f"pass {n} counts differ from pass 1: {differs}")
        changed = _compare_record(records, f"{record_key}/counts", exact)
        if changed:
            report.problems.append(f"counts differ from an earlier run of this seed: {changed}")
        missing = [n for n in workloads.REQUIRED_SPANS[workload]
                   if per_pass[0].get(f"{n}.calls", 0) == 0]
        if missing:
            report.problems.append(f"traced spans never fired: {missing}")
        for name in sorted({k for layer in per_pass for k in layer}):
            values = [layer.get(name, 0) for layer in per_pass]
            report.metrics[name] = values[0] if _is_exact(name) else statistics.median(values)
        for stage, entry in zip(plan.stages, passes[0]["stages"]):
            print(f"pass 1 {stage.name}: wall {entry['wall_s']:.3f} s, "
                  f"traced spans cover {entry['root_s']:.3f} s")
    return report


def _print_report(report: Report, spec: dict) -> None:
    label = report.workload
    print(f"{label} passes {report.passes}; pass total: median {report.metrics['total_s']:.4f} s, "
          f"fastest {report.metrics['total_min_s']:.4f} s, slowest {report.metrics['total_max_s']:.4f} s "
          f"(stage times below are medians over the passes)")
    if not report.traced:
        print(f"{label} as measured, without host correction: median pass "
              f"{report.metrics['total_wall_s']:.4f} s, median set-up "
              f"{report.metrics['setup_wall_s']:.4f} s")
    for name, value in report.stage_s.items():
        print(f"{label} {name} {value:.4f} s")
    for name, value in report.quality.items():
        print(f"{label} {name} {value:.9g} N^2m^2")
    failed_frac = report.failed / report.attempted
    print(f"{label} failed_frac {failed_frac:.4f} ({report.failed}/{report.attempted} stage runs)")
    print(f"{label} warnings {report.warnings} (stage runs that exited 2)")
    table = spec["per_layer"] if report.traced else spec["end_to_end"]
    for metric in table:
        print(f"{label} {metric['name']} {report.metrics.get(metric['name'], 0):.6g} "
              f"{metric['unit']}")
    if report.traced:
        self_times = sorted(
            ((v, k) for k, v in report.metrics.items() if k.endswith(".self_s")), reverse=True
        )
        print(f"{label} largest self times: "
              + ", ".join(f"{k} {v:.3f} s" for v, k in self_times[:3]))
        by_module = {}
        for value, name in self_times:
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + value
        print(f"{label} self time by module: "
              + ", ".join(f"{m} {v:.3f} s" for m, v in sorted(by_module.items())))
    for problem in report.problems:
        print(f"{label} PROBLEM {problem}")


def _result_line(report: Report, spec: dict) -> str:
    table = spec["per_layer"] if report.traced else spec["end_to_end"]
    return json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            m["name"]: {"value": report.metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in table
        },
    })


def _stop(signum, frame):
    # Raised inside the wait for a child, so subprocess.run kills and reaps it.
    raise BenchError(f"stopped by signal {signum}")


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=workloads.WORKLOADS)
    target.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced, and summarize")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "armid" / "cli.py").is_file():
        print(f"error: no armid sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if not args.all:
            report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            _print_report(report, spec)
            print(_result_line(report, spec))
            return 0
        reports = []
        for workload in workloads.WORKLOADS:
            for traced in (False, True):
                reports.append(run_workload(workload, args.seed, args.seconds, traced))
                _print_report(reports[-1], spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("\nsummary: untraced medians, then the traced run's overhead (and the pair's)")
    for plain, traced in zip(reports[::2], reports[1::2]):
        rows = [(name, value, "s") for name, value in plain.stage_s.items()]
        rows += [(m["name"], plain.metrics[m["name"]], m["unit"]) for m in spec["end_to_end"]]
        rows += [(name, value, "N^2m^2") for name, value in plain.quality.items()]
        failed, attempted = plain.failed + traced.failed, plain.attempted + traced.attempted
        rows.append(("failed_frac", failed / attempted, f"({failed} of {attempted})"))
        rows.append(("exit2_warnings", plain.warnings + traced.warnings, "count"))
        pair = 100.0 * (traced.metrics["total_s"] / plain.metrics["total_wall_s"] - 1.0)
        rows.append(("trace.overhead_pct", traced.metrics["trace.overhead_pct"],
                     f"% (pair: {pair:+.2f} %)"))
        for name, value, unit in rows:
            print(f"  {plain.workload:14s} {name:20s} {value:12.6g} {unit}")
    ok = all(r.correct for r in reports)
    print("all gates passed" if ok else "SOME GATES FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
