"""Measurement pipeline: raw joint logs to filtered, differentiated datasets.

Raw trials carry sampled joint positions and torques on a uniform time grid.
Processing filters positions, differentiates twice with a five-point central
stencil, filters the derivatives with the same cutoff, filters torques with
their own cutoff, and trims the stencil-contaminated boundary samples. All
filters are zero phase (forward-backward second-order Butterworth) because
phase lag between positions and torques biases identification.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import identify
from .dynamics import stack_regressor
from .model import (
    ArmidError, LinkInertialParams, RobotModel, check_number, float_rows, is_physically_feasible,
    json_entry, model_from_dict, pack_params, read_json, read_text, write_csv, write_json,
)

# Samples discarded at each boundary per differentiation pass (the five-point
# stencil needs two neighbours on each side).
EDGE_TRIM_PER_PASS = 2
# Samples a processed trial drops at each end: two differentiation passes.
_EDGE_TRIM = 2 * EDGE_TRIM_PER_PASS
# Samples of odd extension the zero-phase filter adds at each end; scipy's
# sosfiltfilt pads a single second-order section by the same amount.
_FILTER_PAD = 9

DEFAULT_CUTOFF_GRID: tuple[tuple[float, float], ...] = tuple(
    (p, t)
    for p in (2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0)
    for t in (2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0)
)


class SignalError(ArmidError):
    """Raised for malformed trials or invalid processing parameters."""


@dataclass(frozen=True)
class RawTrial:
    """One recorded run: timestamps (S,), positions and torques (S, N)."""

    timestamps: np.ndarray
    q: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        q = np.asarray(self.q, dtype=float)
        tau = np.asarray(self.tau, dtype=float)
        if t.ndim != 1 or q.ndim != 2 or tau.ndim != 2:
            raise SignalError("timestamps must be (S,), q and tau (S, N)")
        if q.shape[0] != t.size or tau.shape != q.shape:
            raise SignalError("timestamps, q, tau row counts disagree")
        if t.size < 16:
            raise SignalError(f"trial too short: {t.size} samples < 16")
        dt = np.diff(t)
        if np.max(np.abs(dt - dt[0])) > 1e-6:
            raise SignalError("timestamps are not a uniform grid")
        if dt[0] <= 0:
            raise SignalError("timestamps must be strictly increasing")
        for name, arr in (("timestamps", t), ("q", q), ("tau", tau)):
            if not np.all(np.isfinite(arr)):
                raise SignalError(f"{name} contains non-finite values")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tau", tau)

    @property
    def sample_rate(self) -> float:
        return 1.0 / float(self.timestamps[1] - self.timestamps[0])

    @property
    def num_joints(self) -> int:
        return self.q.shape[1]


def lowpass_zero_phase(x: np.ndarray, cutoff: float, rate: float) -> np.ndarray:
    """Forward-backward second-order Butterworth low-pass (zero phase, DC gain 1).

    Filters along axis 0, each column on its own; ``x`` needs at least 10
    samples. The filter is scipy's
    ``sosfiltfilt(butter(2, cutoff, fs=rate, output="sos"), x, axis=0)``,
    equal to it within rounding:

    - Coefficients by the bilinear transform with prewarping, K = tan(pi
      cutoff / rate): b = (K^2, 2 K^2, K^2) / D and a = (1, 2 (K^2 - 1) / D,
      (1 - sqrt(2) K + K^2) / D), with D = 1 + sqrt(2) K + K^2.
    - Edges: each end is extended by the odd reflection of its next
      ``_FILTER_PAD`` samples, 2 x[0] - x[i], and trimmed off again after both
      passes.
    - Each pass starts from the steady state of a constant input u[0]
      (Gustafsson, IEEE TSP 1996): z1 = (1 - b0) u[0] and z2 = (b2 - a2) u[0].

    A pass is the recursion y[n] + a1 y[n-1] + a2 y[n-2] = b0 u[n] + b1 u[n-1]
    + b2 u[n-2], with the initial state added to the first two right-hand
    sides, solved by :func:`_recursion_blocked`.
    """
    if not 0.0 < cutoff < rate / 2.0:
        raise SignalError(
            f"cutoff {cutoff} Hz must lie in (0, {rate / 2.0}) for rate {rate} Hz"
        )
    x = np.asarray(x, dtype=float)
    if x.shape[0] <= _FILTER_PAD:
        raise SignalError(
            f"filtering needs at least {_FILTER_PAD + 1} samples, got {x.shape[0]}"
        )
    k = math.tan(math.pi * cutoff / rate)
    d = 1.0 + math.sqrt(2.0) * k + k * k
    b0 = b2 = k * k / d
    b1 = 2.0 * b0
    a1 = 2.0 * (k * k - 1.0) / d
    a2 = (1.0 - math.sqrt(2.0) * k + k * k) / d
    cols = x.reshape(x.shape[0], -1)
    padded = np.concatenate(
        [
            2.0 * cols[0] - cols[_FILTER_PAD:0:-1],
            cols,
            2.0 * cols[-1] - cols[-2 : -_FILTER_PAD - 2 : -1],
        ]
    )

    def one_pass(u: np.ndarray) -> np.ndarray:
        rhs = b0 * u
        rhs[1:] += b1 * u[:-1]
        rhs[2:] += b2 * u[:-2]
        rhs[0] += (1.0 - b0) * u[0]
        rhs[1] += (b2 - a2) * u[0]
        return _recursion_blocked(rhs, a1, a2)

    y = one_pass(one_pass(padded)[::-1])[::-1]
    return np.ascontiguousarray(y[_FILTER_PAD:-_FILTER_PAD]).reshape(x.shape)


# Samples per block of the blocked recursion: each pass takes this many
# vectorized steps plus one small step per block.
_RECURSION_BLOCK = 64


def _recursion_blocked(rhs: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """Solve y[n] + a1 y[n-1] + a2 y[n-2] = rhs[n] from y[-1] = y[-2] = 0.

    ``rhs`` is (P, C); each column is solved on its own. Every block of
    ``_RECURSION_BLOCK`` samples is first solved from a zero state, all blocks
    and columns in one vectorized step per sample. A block's solution then
    gains the homogeneous responses h1 and h2 (the zero-input response to a
    unit y[-1] or y[-2]), weighted by the last two values of the block before,
    which are carried forward block by block. Only elementwise arithmetic is
    used, so a column's result never depends on the other columns.
    """
    P, C = rhs.shape
    L = _RECURSION_BLOCK
    blocks = -(-P // L)
    z = np.zeros((blocks * L, C))
    z[:P] = rhs
    # Sample-major layout: z[i] holds sample i of every block, contiguous.
    z = np.ascontiguousarray(z.reshape(blocks, L, C).transpose(1, 0, 2))
    tmp = np.empty((blocks, C))
    np.multiply(z[0], a1, out=tmp)
    z[1] -= tmp
    for i in range(2, L):
        np.multiply(z[i - 1], a1, out=tmp)
        z[i] -= tmp
        np.multiply(z[i - 2], a2, out=tmp)
        z[i] -= tmp
    # h[i] = (h1[i], h2[i]); Python floats, since 64 tiny steps cost more as arrays.
    h = [(0.0, 1.0), (1.0, 0.0)]  # y[-2], y[-1]
    for i in range(2, L + 2):
        (u1, u2), (v1, v2) = h[i - 1], h[i - 2]
        h.append((-a1 * u1 - a2 * v1, -a1 * u2 - a2 * v2))
    h = np.array(h[2:])
    # carry[k]: y at the last and second-last sample of block k. It starts as
    # the zero-state values and gains the carry of block k - 1.
    carry = np.stack((z[-1], z[-2]), axis=1)
    h1_end = h[[-1, -2], 0, None]  # h1 at the last and second-last sample
    h2_end = h[[-1, -2], 1, None]
    term = np.empty((2, C))
    for k in range(1, blocks):
        np.multiply(h1_end, carry[k - 1, 0], out=term)
        carry[k] += term
        np.multiply(h2_end, carry[k - 1, 1], out=term)
        carry[k] += term
    z[:, 1:] += h[:, 0, None, None] * carry[:-1, 0]
    z[:, 1:] += h[:, 1, None, None] * carry[:-1, 1]
    return z.transpose(1, 0, 2).reshape(blocks * L, C)[:P]


def _five_point_derivative(x: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order central differences; one-sided estimates at the two edge
    samples on each side (callers trim those)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[2:-2] = (-x[4:] + 8.0 * x[3:-1] - 8.0 * x[1:-3] + x[:-4]) / (12.0 * dt)
    for i in (0, 1):
        out[i] = (-3.0 * x[i] + 4.0 * x[i + 1] - x[i + 2]) / (2.0 * dt)
        out[-1 - i] = (3.0 * x[-1 - i] - 4.0 * x[-2 - i] + x[-3 - i]) / (2.0 * dt)
    return out


def differentiate_twice(q: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Velocities and accelerations by repeated central differencing.

    Each pass contaminates EDGE_TRIM_PER_PASS samples at both ends; callers
    are expected to trim 2 samples per pass before using the result.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[0] < 5:
        raise SignalError(f"need at least 5 samples to differentiate, got {q.shape[0]}")
    dt = 1.0 / rate
    qd = _five_point_derivative(q, dt)
    qdd = _five_point_derivative(qd, dt)
    return qd, qdd


def average_trials(trials: Sequence[RawTrial]) -> RawTrial:
    """Elementwise mean of aligned trials (improves signal-to-noise)."""
    if not trials:
        raise SignalError("no trials to average")
    _check_trial_set(trials, [f"trial {i}" for i in range(len(trials))])
    q = np.mean([t.q for t in trials], axis=0)
    tau = np.mean([t.tau for t in trials], axis=0)
    return RawTrial(timestamps=trials[0].timestamps.copy(), q=q, tau=tau)


def _check_trial_set(trials: Sequence[RawTrial], names: Sequence) -> None:
    """Raise unless every trial has trial 0's sample count, joint count and
    time grid (within 1e-9); errors call ``trials[k]`` ``names[k]``."""
    first = trials[0]
    for name, trial in zip(names[1:], trials[1:]):
        for what, count, expected in (
            ("samples", trial.timestamps.size, first.timestamps.size),
            ("joints", trial.num_joints, first.num_joints),
        ):
            if count != expected:
                raise SignalError(f"{name}: {count} {what}, but {names[0]} has {expected}")
        if np.max(np.abs(trial.timestamps - first.timestamps)) > 1e-9:
            raise SignalError(f"{name}: time grid differs from {names[0]}")


def process_trial(
    trial: RawTrial,
    position_cutoff: float | None,
    torque_cutoff: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Filter, differentiate twice, filter derivatives, and trim boundaries.

    Returns trimmed copies of ``(q, qd, qdd, tau)``, each (S - 8, N): the
    samples :func:`~armid.dynamics.stack_regressor` takes. A cutoff of None
    skips the corresponding filter (useful for noiseless synthetic data,
    where filtering only removes signal).
    """
    rate = trial.sample_rate
    q = trial.q
    if position_cutoff is not None:
        q = lowpass_zero_phase(q, position_cutoff, rate)
    qd, qdd = differentiate_twice(q, rate)
    if position_cutoff is not None:
        # One call for both: every column is filtered on its own.
        qd, qdd = np.hsplit(lowpass_zero_phase(np.hstack([qd, qdd]), position_cutoff, rate), 2)
    tau = _filtered_torque(trial, torque_cutoff)
    return tuple(x[_EDGE_TRIM:-_EDGE_TRIM].copy() for x in (q, qd, qdd, tau))


def _filtered_torque(trial: RawTrial, torque_cutoff: float | None) -> np.ndarray:
    """The trial's torques, low-passed unless ``torque_cutoff`` is None; untrimmed."""
    if torque_cutoff is None:
        return trial.tau
    return lowpass_zero_phase(trial.tau, torque_cutoff, trial.sample_rate)


# Errors that fail one cutoff grid point but not the search.
_POINT_ERRORS = (ArmidError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class CutoffSearchEntry:
    position_cutoff: float | None
    torque_cutoff: float | None
    residual: float | None
    error: str | None = None


def tune_filter_cutoffs(
    trial: RawTrial,
    model: RobotModel,
    grid: Sequence[tuple[float | None, float | None]] = DEFAULT_CUTOFF_GRID,
) -> tuple[tuple[float | None, float | None] | None, list[CutoffSearchEntry]]:
    """Grid-search filter cutoffs by the consistent-identification residual.

    Every grid point processes the trial, runs the constrained identification
    from :func:`identification_prior`, and records its residual. The
    regressor depends only on the position cutoff, so the points run grouped
    by position cutoff, and each group materializes its regressor rows once;
    only the current group's rows are held. Each torque cutoff's torques are
    filtered once. Every point then factors its own ``[W | T - w0]``, so its
    residual has the bits it gets when searched alone. A point that fails with
    a data, model or identification error (its own, or its group's stack's),
    or whose barrier did not converge, is not ranked but kept in the table;
    any other exception is a bug and propagates. Ties break toward the lower
    cutoffs. Returns the best (position, torque) pair, None if no point ranks,
    and the full search table, in grid order.
    """
    if not grid:
        raise SignalError("cutoff grid is empty")
    prior = identification_prior(model)

    @functools.cache
    def torques_at(tor_cut):  # trimmed and flattened as a stack's T
        return _filtered_torque(trial, tor_cut)[_EDGE_TRIM:-_EDGE_TRIM].reshape(-1)

    def search_point(stack, tor_cut):  # (residual, None), or (None, what stopped it)
        try:
            system = identify.least_squares(replace(stack, T=torques_at(tor_cut)))
            result = identify.consistent_identify(system, prior)
        except _POINT_ERRORS as exc:
            return None, str(exc)
        if not result.trace.converged:
            return None, "the barrier did not converge"
        return float(result.residual), None

    groups: dict = {}  # position cutoff -> the grid indices of its points
    for i, (pos_cut, _) in enumerate(grid):
        groups.setdefault(pos_cut, []).append(i)
    table: list = [None] * len(grid)
    for pos_cut, members in groups.items():
        try:  # T holds unfiltered torques, which each point replaces
            stack = stack_regressor(model, *process_trial(trial, pos_cut, None)).materialize()
        except _POINT_ERRORS as exc:
            for i in members:
                table[i] = CutoffSearchEntry(*grid[i], None, str(exc))
            continue
        for i in members:
            table[i] = CutoffSearchEntry(*grid[i], *search_point(stack, grid[i][1]))

    def sort_key(e: CutoffSearchEntry):  # a cutoff of None (no filter) ranks highest
        cutoffs = (e.position_cutoff, e.torque_cutoff)
        return e.residual, *(np.inf if c is None else c for c in cutoffs)

    best = min((e for e in table if e.residual is not None), key=sort_key, default=None)
    return None if best is None else (best.position_cutoff, best.torque_cutoff), table


def default_identification_prior(num_links: int) -> np.ndarray:
    """Generic strictly feasible prior: light links, small positive frictions."""
    per_link = LinkInertialParams(0.1, np.zeros(3), 0.01 * np.eye(3), 1e-2, 1e-2, 1e-3)
    return np.tile(per_link.to_vector(), num_links)


def identification_prior(model: RobotModel) -> np.ndarray:
    """The barrier's start: the model's parameters if they can start it, else
    the default prior.

    A usable start is strictly feasible on every link, by a margin of 1e-12:
    pseudo-inertia eigenvalues and friction and rotor terms above it. Nearer
    the boundary, the barrier's curvature mu / x**2 overflows (at 1e-275, say).
    """
    if all(
        is_physically_feasible(p, tol=1e-12).feasible
        and min(p.viscous_friction, p.coulomb_friction, p.rotor_inertia) > 1e-12
        for _, p in model.links
    ):
        return pack_params(model)
    return default_identification_prior(model.num_joints)


# --- artifact formats ------------------------------------------------------------


def trial_to_csv(trial: RawTrial, path, shared_text: dict | None = None) -> None:
    """Write ``t,q_1..q_N,tau_1..tau_N`` rows in 64-bit decimal text.

    ``shared_text`` lets the trials of one dataset share the text of their
    ``[t | q]`` block: pass the same dict to every call, and a block whose
    bytes equal the previous call's is not formatted again. The key is the
    block's exact bytes, not its values, because ``-0.0`` and ``0.0`` print
    differently. The dict keeps one block; the bytes written never depend on it.
    """
    n = trial.num_joints
    header = ["t"] + [f"q_{i + 1}" for i in range(n)] + [f"tau_{i + 1}" for i in range(n)]
    t_q_rows = _t_q_rows(trial, {} if shared_text is None else shared_text)
    rows = [a + "," + b for a, b in zip(t_q_rows, float_rows(trial.tau))]
    write_csv(path, header, rows)


def _t_q_rows(trial: RawTrial, shared_text: dict) -> list[str]:
    """The ``[t | q]`` rows of ``trial``, formatted unless ``shared_text``
    holds them; ``shared_text`` keeps the last block it was asked for."""
    t_q = np.column_stack([trial.timestamps, trial.q])
    key = (t_q.shape, t_q.tobytes())
    if key not in shared_text:
        shared_text.clear()
        shared_text[key] = float_rows(t_q)
    return shared_text[key]


MANIFEST_NAME = "manifest.json"  # beside a dataset's trial_*.csv files


def save_dataset(out_dir, trials: Sequence[RawTrial], manifest: dict) -> list[Path]:
    """Write a dataset directory: ``trials[k]`` to ``trial_{k:03d}.csv`` with
    :func:`trial_to_csv`, then ``manifest``; returns the trial paths.

    Trial 0's ``[t | q]`` block is formatted first and shared, as in
    :func:`trial_to_csv`. With at least two trials and two usable CPUs, one
    forked child writes the odd trials while this process writes the even
    ones, and the child is reaped before this returns or raises. If either
    half fails, or the fork does, a sequential loop writes every trial again:
    the bytes written and the error raised (the lowest-numbered failing
    trial's) are that loop's.
    """
    out_dir = Path(out_dir)
    paths = [out_dir / f"trial_{k:03d}.csv" for k in range(len(trials))]
    shared_text: dict = {}  # trials without position noise share their t, q text
    if trials:
        _t_q_rows(trials[0], shared_text)
    if len(trials) < 2 or _usable_cpus() < 2 or not _written_forked(trials, paths, shared_text):
        for trial, path in zip(trials, paths):
            trial_to_csv(trial, path, shared_text)
    write_json(out_dir / MANIFEST_NAME, manifest)
    return paths


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it; write in one process there
        return 1


def _written_forked(trials, paths, shared_text: dict) -> bool:
    """Whether this process wrote the even trials and a forked child the odd
    ones, both without error; the child reports only by its exit status."""
    with warnings.catch_warnings():
        # From Python 3.12 fork warns in a process with other threads (numpy's
        # BLAS threads, say). The child is safe: it only formats text, writes
        # files and leaves by os._exit.
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
            DeprecationWarning,
        )
        try:
            pid = os.fork()
        except OSError:  # no process to spare (EAGAIN, say)
            return False
    if pid == 0:
        status = 1
        try:
            for k in range(1, len(trials), 2):
                trial_to_csv(trials[k], paths[k], shared_text)
            status = 0
        finally:
            os._exit(status)
    try:
        for k in range(0, len(trials), 2):
            trial_to_csv(trials[k], paths[k], shared_text)
    except Exception:
        return False
    finally:
        _, status = os.waitpid(pid, 0)
    return status == 0


def trial_from_csv(path, shared_text: dict | None = None) -> RawTrial:
    """Read a trial written by :func:`trial_to_csv`.

    Lines may end in ``\\n`` or ``\\r\\n``. Every data line must hold one
    number per header field: blank lines and comments are errors. Errors name
    the file and the bad line, counting the header as row 1.

    ``shared_text`` is the reading twin of :func:`trial_to_csv`'s: pass the same
    dict for every trial of one dataset, and a trial whose lines each start with
    the ``[t | q]`` text of the last trial parsed in full parses only its torques
    and takes that trial's ``t`` and ``q`` numbers. Equal text reads to equal
    bits, and any other trial is parsed in full, so the result never depends on it.
    """
    text = read_text(path, SignalError)
    if not text:
        raise SignalError(f"{path}: empty file")
    header, *lines = text.split("\n")
    header = header.split(",")
    if header[0] != "t" or len(header) < 3 or (len(header) - 1) % 2 != 0:
        raise SignalError(f"{path}: unexpected header {header!r}")
    if lines[-1:] == [""]:
        lines.pop()  # the newline that ends the last row
    width = len(header)
    n = (width - 1) // 2
    table = _reuse_t_q(lines, n, shared_text) if shared_text else None
    parsed = table is None
    if parsed:
        table = _parse_rows(lines) if lines else np.empty((0, width))
        # loadtxt skips blank lines and numbers rows its own way, so any failure
        # is located here, line by line.
        if table is None or table.shape != (len(lines), width):
            raise SignalError(f"{path}: {_bad_row(lines, width)}")
    try:
        trial = RawTrial(timestamps=table[:, 0], q=table[:, 1 : 1 + n], tau=table[:, 1 + n :])
    except SignalError as exc:
        raise SignalError(f"{path}: {exc}") from exc
    if parsed and shared_text is not None:
        shared_text.clear()
        shared_text["last"] = (lines, table[:, : n + 1].copy())
    return trial


def load_dataset(data_dir) -> tuple[dict, RobotModel, list[RawTrial]]:
    """A dataset directory's manifest, the robot model in it, and its trials,
    read one file at a time with shared ``[t | q]`` text. The trials must have
    the model's joints and trial 0's time grid, and match the manifest's
    ``trials`` count and ``rate`` (within 1e-9 relative) where it has them."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise SignalError(f"no {MANIFEST_NAME} in {data_dir}")
    manifest = read_json(manifest_path, SignalError)
    robot = model_from_dict(json_entry(manifest, "model", manifest_path), f"{manifest_path} model")
    paths = sorted(data_dir.glob("trial_*.csv"))
    if not paths:
        raise SignalError(f"no trial_*.csv files in {data_dir}")
    expected = json_entry(manifest, "trials", manifest_path, int, SignalError, None)
    if expected is not None and expected != len(paths):
        found = f"{data_dir} holds {len(paths)} trial_*.csv files"
        raise SignalError(f"{manifest_path} says {expected} trials, but {found}")
    shared_text: dict = {}  # trials without position noise share their t, q text
    trials = [trial_from_csv(path, shared_text) for path in paths]
    if trials[0].num_joints != robot.num_joints:
        joints = f"{trials[0].num_joints} joints, but the manifest's model has {robot.num_joints}"
        raise SignalError(f"{paths[0]}: {joints}")
    _check_trial_set(trials, paths)
    rate = trials[0].sample_rate
    recorded = json_entry(manifest, "rate", manifest_path, (), SignalError, rate)
    check_number(recorded, f"{manifest_path}: 'rate'", SignalError, positive=True)
    if abs(recorded - rate) > 1e-9 * rate:
        found = f"but the trials are sampled at {rate} Hz"
        raise SignalError(f"{manifest_path}: 'rate' is {recorded} Hz, {found}")
    return manifest, robot, trials


def _t_q_text(line: str, n: int) -> str:
    """A data line of ``n`` joints up to and including its (n + 1)-th comma."""
    return line[: len(line) - len(line.split(",", n + 1)[-1])]


def _reuse_t_q(lines: list[str], n: int, shared_text: dict) -> np.ndarray | None:
    """The table of ``lines`` if each starts with the ``[t | q]`` text of the
    last trial in ``shared_text`` and the rest parses to ``n`` torques, its
    ``t`` and ``q`` columns taken from that trial; else None."""
    last, t_q = shared_text["last"]
    if t_q.shape[1] != n + 1 or len(lines) != len(last):
        return None
    # The first line alone turns away a trial with its own q text, so that
    # trial pays for no prefixes; they are cut once, for the first match.
    if "prefixes" not in shared_text:
        if not lines[0].startswith(_t_q_text(last[0], n)):
            return None
        shared_text["prefixes"] = [_t_q_text(line, n) for line in last]
    prefixes = shared_text["prefixes"]
    if not all(map(str.startswith, lines, prefixes)):
        return None
    tau = _parse_rows([line[len(p) :] for line, p in zip(lines, prefixes)])
    if tau is None or tau.shape != (len(lines), n):
        return None
    return np.hstack([t_q, tau])


def _parse_rows(lines: list[str]) -> np.ndarray | None:
    """Comma-separated ``lines`` as a 2-D float table, or None if a field is not
    a number. numpy's loadtxt skips blank lines, so callers check the row count."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _bad_row(lines: list[str], width: int) -> str:
    """What is wrong with the first data line that does not parse to ``width``
    numbers; ``lines`` start at file row 2."""
    for row, line in enumerate(lines, start=2):
        if not line.strip():
            return f"row {row} is blank"
        fields = line.count(",") + 1
        if fields != width:
            return f"row {row} has {fields} fields, expected {width}"
        if _parse_rows([line]) is None:
            return f"row {row} contains a non-numeric field"
    return "data rows do not parse"
