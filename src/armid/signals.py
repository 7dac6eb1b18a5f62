"""Measurement pipeline: raw joint logs to filtered, differentiated datasets.

Raw trials carry sampled joint positions and torques on a uniform time grid.
Processing filters positions, differentiates twice with a five-point central
stencil, filters the derivatives with the same cutoff, filters torques with
their own cutoff, and trims the stencil-contaminated boundary samples. All
filters are zero phase (forward-backward second-order Butterworth) because
phase lag between positions and torques biases identification.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import identify
from .dynamics import stack_regressor
from .model import (
    PARAMS_PER_LINK,
    LinkInertialParams,
    ModelError,
    RobotModel,
    is_physically_feasible,
    pack_params,
)

# Samples discarded at each boundary per differentiation pass (the five-point
# stencil needs two neighbours on each side).
EDGE_TRIM_PER_PASS = 2
# Samples a processed trial drops at each end: two differentiation passes.
_EDGE_TRIM = 2 * EDGE_TRIM_PER_PASS

DEFAULT_CUTOFF_GRID: tuple[tuple[float, float], ...] = tuple(
    (p, t)
    for p in (2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0)
    for t in (2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0)
)


class SignalError(Exception):
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


@dataclass(frozen=True)
class ProcessedDataset:
    """Aligned kinematic states and torques, boundary samples already trimmed."""

    timestamps: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    tau: np.ndarray
    sample_rate: float
    cutoffs_used: dict

    def __post_init__(self):
        for name in ("timestamps", "q", "qd", "qdd", "tau"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise SignalError(f"{name} contains non-finite values after processing")
            object.__setattr__(self, name, arr)


def lowpass_zero_phase(x: np.ndarray, cutoff: float, rate: float) -> np.ndarray:
    """Forward-backward second-order Butterworth low-pass (zero phase, DC gain 1)."""
    if not 0.0 < cutoff < rate / 2.0:
        raise SignalError(
            f"cutoff {cutoff} Hz must lie in (0, {rate / 2.0}) for rate {rate} Hz"
        )
    # Imported here, not at module level: scipy.signal takes over a second to
    # import, and only the filtering stages need it.
    from scipy import signal

    x = np.asarray(x, dtype=float)
    sos = signal.butter(2, cutoff, btype="low", fs=rate, output="sos")
    return signal.sosfiltfilt(sos, x, axis=0)


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
    first = trials[0]
    for i, trial in enumerate(trials[1:], start=1):
        if trial.q.shape != first.q.shape:
            raise SignalError(f"trial {i} dimensions differ from trial 0")
        if np.max(np.abs(trial.timestamps - first.timestamps)) > 1e-9:
            raise SignalError(f"trial {i} time grid differs from trial 0")
    q = np.mean([t.q for t in trials], axis=0)
    tau = np.mean([t.tau for t in trials], axis=0)
    return RawTrial(timestamps=first.timestamps.copy(), q=q, tau=tau)


def process_trial(
    trial: RawTrial,
    position_cutoff: float | None,
    torque_cutoff: float | None,
) -> ProcessedDataset:
    """Filter, differentiate twice, filter derivatives, and trim boundaries.

    A cutoff of None skips the corresponding filter (useful for noiseless
    synthetic data, where filtering only removes signal).
    """
    rate = trial.sample_rate
    q = trial.q
    if position_cutoff is not None:
        q = lowpass_zero_phase(q, position_cutoff, rate)
    qd, qdd = differentiate_twice(q, rate)
    if position_cutoff is not None:
        qd = lowpass_zero_phase(qd, position_cutoff, rate)
        qdd = lowpass_zero_phase(qdd, position_cutoff, rate)
    tau = _filtered_torque(trial, torque_cutoff)

    if trial.q.shape[0] <= 2 * _EDGE_TRIM:
        raise SignalError("trial too short to trim differentiation boundaries")
    sl = slice(_EDGE_TRIM, -_EDGE_TRIM)
    return ProcessedDataset(
        timestamps=trial.timestamps[sl].copy(),
        q=q[sl].copy(),
        qd=qd[sl].copy(),
        qdd=qdd[sl].copy(),
        tau=tau[sl].copy(),
        sample_rate=rate,
        cutoffs_used={"position": position_cutoff, "torque": torque_cutoff},
    )


def _filtered_torque(trial: RawTrial, torque_cutoff: float | None) -> np.ndarray:
    """The trial's torques, low-passed unless ``torque_cutoff`` is None; untrimmed."""
    if torque_cutoff is None:
        return trial.tau
    return lowpass_zero_phase(trial.tau, torque_cutoff, trial.sample_rate)


# Errors that fail one cutoff grid point but not the search.
_POINT_ERRORS = (SignalError, ModelError, identify.IdentifyError, np.linalg.LinAlgError)


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
    prior: np.ndarray | None = None,
) -> tuple[tuple[float | None, float | None], list[CutoffSearchEntry]]:
    """Grid-search filter cutoffs by the consistent-identification residual.

    Every grid point processes the trial, runs the constrained identification,
    and records its residual. The regressor depends only on the position
    cutoff, so each distinct position cutoff builds one stack, and each of
    its points only filters the torques again and factors that system. A point that fails with a
    data, model or identification error is skipped but kept in the table; any
    other exception is a bug and propagates. Ties break toward the lower
    cutoffs. Returns the best (position, torque) pair and the full search
    table, in grid order.
    """
    if not grid:
        raise SignalError("cutoff grid is empty")
    if prior is None:
        prior = identification_prior(pack_params(model), model.num_joints)

    by_position: dict = {}
    for index, (pos_cut, _) in enumerate(grid):
        by_position.setdefault(pos_cut, []).append(index)
    table: list = [None] * len(grid)
    for pos_cut, indices in by_position.items():
        try:
            ds = process_trial(trial, pos_cut, None)
            stack = stack_regressor(model, ds.q, ds.qd, ds.qdd, ds.tau)
        except _POINT_ERRORS as exc:  # every point at this position cutoff fails alike
            for index in indices:
                table[index] = CutoffSearchEntry(*grid[index], None, error=str(exc))
            continue
        for index in indices:
            try:
                tau = _filtered_torque(trial, grid[index][1])[_EDGE_TRIM:-_EDGE_TRIM]
                system = identify.least_squares(replace(stack, T=tau.reshape(-1)))
                result = identify.consistent_identify(system, prior)
                table[index] = CutoffSearchEntry(*grid[index], float(result.residual))
            except _POINT_ERRORS as exc:  # recorded: one bad point must not kill the sweep
                table[index] = CutoffSearchEntry(*grid[index], None, error=str(exc))

    valid = [e for e in table if e.residual is not None]
    if not valid:
        raise SignalError("every grid point failed during cutoff tuning")

    def sort_key(e: CutoffSearchEntry):
        pos = e.position_cutoff if e.position_cutoff is not None else np.inf
        tor = e.torque_cutoff if e.torque_cutoff is not None else np.inf
        return (e.residual, pos, tor)

    best = min(valid, key=sort_key)
    return (best.position_cutoff, best.torque_cutoff), table


def default_identification_prior(num_links: int) -> np.ndarray:
    """Generic strictly feasible prior: light links, small positive frictions."""
    per_link = np.array(
        [0.1, 0.0, 0.0, 0.0, 0.01, 0.0, 0.0, 0.01, 0.0, 0.01, 1e-2, 1e-2, 1e-3]
    )
    return np.tile(per_link, num_links)


def identification_prior(candidate: np.ndarray | None, num_links: int) -> np.ndarray:
    """``candidate`` if it can start the barrier, else the default prior.

    A usable start is strictly feasible on every link: positive definite
    pseudo-inertia and strictly positive friction and rotor terms.
    """
    if candidate is not None:
        links = (
            LinkInertialParams.from_vector(candidate[k : k + PARAMS_PER_LINK])
            for k in range(0, num_links * PARAMS_PER_LINK, PARAMS_PER_LINK)
        )
        if all(
            is_physically_feasible(p, tol=0.0).feasible
            and min(p.viscous_friction, p.coulomb_friction, p.rotor_inertia) > 0
            for p in links
        ):
            return candidate
    return default_identification_prior(num_links)


# --- artifact formats ------------------------------------------------------------


def _write_csv(path, header: Sequence[str], rows) -> None:
    """Write ``header`` then ``rows``; every CSV table armid writes uses this.

    A float table comes as a 2-D array. Each value is written as the ``repr``
    of a Python float, the shortest decimal that reads back to the same 64-bit
    value, and each line ends in ``\\r\\n``: the bytes ``csv`` writes, made
    without its per-cell work. Any other ``rows`` go through ``csv``, which
    writes None as an empty cell and quotes text where needed.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            # tolist() first: under numpy 2, repr(np.float64(x)) is 'np.float64(x)'.
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows.tolist()))
        else:
            writer.writerows(rows)


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys; every JSON
    artifact armid writes uses this, so field order never changes its bytes."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_hash(payload: dict) -> str:
    """SHA-256 of ``payload`` as compact sorted-key JSON: config and problem hashes."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def trial_to_csv(trial: RawTrial, path) -> None:
    """Write ``t,q_1..q_N,tau_1..tau_N`` rows in 64-bit decimal text."""
    n = trial.num_joints
    header = ["t"] + [f"q_{i + 1}" for i in range(n)] + [f"tau_{i + 1}" for i in range(n)]
    _write_csv(path, header, np.column_stack([trial.timestamps, trial.q, trial.tau]))


def trial_from_csv(path) -> RawTrial:
    """Read a trial written by :func:`trial_to_csv`.

    Lines may end in ``\\n`` or ``\\r\\n``. Every data line must hold one
    number per header field: blank lines and comments are errors. Errors name
    the file and the bad line, counting the header as row 1.
    """
    try:
        with open(path) as fh:
            header = fh.readline()
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise SignalError(f"{path}: not a text file ({exc.reason})") from None
    if not header:
        raise SignalError(f"{path}: empty file")
    header = header.rstrip("\n").split(",")
    if header[0] != "t" or (len(header) - 1) % 2 != 0:
        raise SignalError(f"{path}: unexpected header {header!r}")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last row
    width = len(header)
    try:
        table = (
            np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if lines
            else np.empty((0, width))
        )
    except ValueError:
        table = None
    # loadtxt skips blank lines and numbers rows its own way, so any failure
    # is located here, line by line.
    if table is None or table.shape != (len(lines), width):
        raise SignalError(f"{path}: {_bad_row(lines, width)}")
    n = (width - 1) // 2
    try:
        return RawTrial(timestamps=table[:, 0], q=table[:, 1 : 1 + n], tau=table[:, 1 + n :])
    except SignalError as exc:
        raise SignalError(f"{path}: {exc}") from exc


def _bad_row(lines: list[str], width: int) -> str:
    """What is wrong with the first data line that does not parse to ``width``
    numbers; ``lines`` start at file row 2."""
    for row, line in enumerate(lines, start=2):
        if not line.strip():
            return f"row {row} is blank"
        fields = line.count(",") + 1
        if fields != width:
            return f"row {row} has {fields} fields, expected {width}"
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            return f"row {row} contains a non-numeric field"
    return "data rows do not parse"
