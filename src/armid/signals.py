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
import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import identify
from .dynamics import stack_regressor
from .model import ModelError, RobotModel, is_physically_feasible, pack_params

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

    def __post_init__(self):
        for name in ("timestamps", "q", "qd", "qdd", "tau"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise SignalError(f"{name} contains non-finite values after processing")
            object.__setattr__(self, name, arr)


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
        # One call for both: every column is filtered on its own.
        qd, qdd = np.hsplit(lowpass_zero_phase(np.hstack([qd, qdd]), position_cutoff, rate), 2)
    tau = _filtered_torque(trial, torque_cutoff)
    sl = slice(_EDGE_TRIM, -_EDGE_TRIM)
    return ProcessedDataset(
        timestamps=trial.timestamps[sl].copy(),
        q=q[sl].copy(),
        qd=qd[sl].copy(),
        qdd=qdd[sl].copy(),
        tau=tau[sl].copy(),
        sample_rate=rate,
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
) -> tuple[tuple[float | None, float | None], list[CutoffSearchEntry]]:
    """Grid-search filter cutoffs by the consistent-identification residual.

    Every grid point processes the trial, runs the constrained identification
    from :func:`identification_prior`, and records its residual. The
    regressor depends only on the position cutoff, so each distinct position
    cutoff builds one stack, and each torque cutoff's torques are filtered
    once; every point then factors its own ``[W | T - w0]``, so its residual
    has the bits it gets when searched alone. A point that fails with a data,
    model or identification error is skipped but kept in the table (a failed
    stack or filter is not cached, so each of its points retries it); any
    other exception is a bug and propagates. Ties break toward the lower
    cutoffs. Returns the best (position, torque) pair and the full search
    table, in grid order.
    """
    if not grid:
        raise SignalError("cutoff grid is empty")
    prior = identification_prior(model)

    @functools.cache
    def stack_at(pos_cut):  # T holds unfiltered torques, which each point replaces
        ds = process_trial(trial, pos_cut, None)
        return stack_regressor(model, ds.q, ds.qd, ds.qdd, ds.tau)

    @functools.cache
    def torques_at(tor_cut):  # trimmed and flattened as a stack's T
        return _filtered_torque(trial, tor_cut)[_EDGE_TRIM:-_EDGE_TRIM].reshape(-1)

    def search_point(pos_cut, tor_cut):  # its estimate, or the error that stopped it
        try:
            stack = replace(stack_at(pos_cut), T=torques_at(tor_cut))
            return identify.consistent_identify(identify.least_squares(stack), prior)
        except _POINT_ERRORS as exc:
            return exc

    outcome = [search_point(*point) for point in grid]
    table = [
        CutoffSearchEntry(*point, None, error=str(result))
        if isinstance(result, Exception)
        else CutoffSearchEntry(*point, float(result.residual))
        for point, result in zip(grid, outcome)
    ]

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


def identification_prior(model: RobotModel) -> np.ndarray:
    """The barrier's start: the model's parameters if they can start it, else
    the default prior.

    A usable start is strictly feasible on every link: positive definite
    pseudo-inertia and strictly positive friction and rotor terms.
    """
    if all(
        is_physically_feasible(p, tol=0.0).feasible
        and min(p.viscous_friction, p.coulomb_friction, p.rotor_inertia) > 0
        for _, p in model.links
    ):
        return pack_params(model)
    return default_identification_prior(model.num_joints)


# --- artifact formats ------------------------------------------------------------


def _float_rows(table: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as its comma-joined values.

    Each value is the ``repr`` of a Python float, the shortest decimal that
    reads back to the same 64-bit value.
    """
    # tolist() first: under numpy 2, repr(np.float64(x)) is 'np.float64(x)'.
    return [",".join(map(repr, row)) for row in table.tolist()]


def _write_csv(path, header: Sequence[str], rows) -> None:
    """Write ``header`` then ``rows``; every CSV table armid writes uses this.

    A float table comes as its rows formatted by :func:`_float_rows` (a list
    of str). Those lines end in ``\\r\\n``: the bytes ``csv`` writes, made
    without its per-cell work. Any other ``rows`` go through ``csv``, which
    writes None as an empty cell and quotes text where needed.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if rows and isinstance(rows[0], str):
            fh.write("".join(line + "\r\n" for line in rows))
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
    t_q = np.column_stack([trial.timestamps, trial.q])
    key = (t_q.shape, t_q.tobytes())
    cache = {} if shared_text is None else shared_text
    if key not in cache:
        cache.clear()
        cache[key] = _float_rows(t_q)
    rows = [a + "," + b for a, b in zip(cache[key], _float_rows(trial.tau))]
    _write_csv(path, header, rows)


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
    if header[0] != "t" or len(header) < 3 or (len(header) - 1) % 2 != 0:
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
