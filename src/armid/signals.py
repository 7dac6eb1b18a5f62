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
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import signal as _signal

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
    x = np.asarray(x, dtype=float)
    sos = _signal.butter(2, cutoff, btype="low", fs=rate, output="sos")
    return _signal.sosfiltfilt(sos, x, axis=0)


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
    tau = trial.tau
    if torque_cutoff is not None:
        tau = lowpass_zero_phase(tau, torque_cutoff, rate)

    trim = 2 * EDGE_TRIM_PER_PASS
    if trial.q.shape[0] <= 2 * trim:
        raise SignalError("trial too short to trim differentiation boundaries")
    sl = slice(trim, -trim)
    return ProcessedDataset(
        timestamps=trial.timestamps[sl].copy(),
        q=q[sl].copy(),
        qd=qd[sl].copy(),
        qdd=qdd[sl].copy(),
        tau=tau[sl].copy(),
        sample_rate=rate,
        cutoffs_used={"position": position_cutoff, "torque": torque_cutoff},
    )


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
    and records its residual. A point that fails with a data, model or
    identification error is skipped but kept in the table; any other
    exception is a bug and propagates. Ties break toward the lower cutoffs.
    Returns the best (position, torque) pair and the full search table.
    """
    if not grid:
        raise SignalError("cutoff grid is empty")
    if prior is None:
        prior = identification_prior(pack_params(model), model.num_joints)

    table: list[CutoffSearchEntry] = []
    for pos_cut, torque_cut in grid:
        try:
            ds = process_trial(trial, pos_cut, torque_cut)
            stack = stack_regressor(model, ds.q, ds.qd, ds.qdd, ds.tau)
            result = identify.consistent_identify(stack, prior)
            table.append(
                CutoffSearchEntry(pos_cut, torque_cut, float(result.residual))
            )
        except (
            SignalError, ModelError, identify.IdentifyError, np.linalg.LinAlgError
        ) as exc:  # recorded, not raised: one bad point must not kill the sweep
            table.append(CutoffSearchEntry(pos_cut, torque_cut, None, error=str(exc)))

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
    """Write ``header`` then ``rows``; every float table armid writes uses this.

    ``csv`` writes a float cell as its ``repr``, the shortest decimal that
    reads back to the same 64-bit value, and None as an empty cell. Pass a
    float table as ``table.tolist()``.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
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
    table = np.column_stack([trial.timestamps, trial.q, trial.tau])
    _write_csv(path, header, table.tolist())


def trial_from_csv(path) -> RawTrial:
    """Read a trial written by :func:`trial_to_csv`; errors name the bad row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SignalError(f"{path}: empty file") from None
        if not header or header[0] != "t" or (len(header) - 1) % 2 != 0:
            raise SignalError(f"{path}: unexpected header {header!r}")
        n = (len(header) - 1) // 2
        times, qs, taus = [], [], []
        for row_index, row in enumerate(reader, start=2):
            if len(row) != 1 + 2 * n:
                raise SignalError(
                    f"{path}: row {row_index} has {len(row)} fields, expected {1 + 2 * n}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise SignalError(f"{path}: row {row_index} contains a non-numeric field") from None
            times.append(values[0])
            qs.append(values[1 : 1 + n])
            taus.append(values[1 + n :])
    try:
        return RawTrial(
            timestamps=np.asarray(times), q=np.asarray(qs), tau=np.asarray(taus)
        )
    except SignalError as exc:
        raise SignalError(f"{path}: {exc}") from exc
