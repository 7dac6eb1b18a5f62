import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from armid import identify, signals
from armid.model import model_to_dict, pack_params
from armid.signals import (
    DEFAULT_CUTOFF_GRID,
    RawTrial,
    SignalError,
    average_trials,
    differentiate_twice,
    lowpass_zero_phase,
    process_trial,
    trial_from_csv,
    trial_to_csv,
    tune_filter_cutoffs,
)
from armid.simulate import builtin_fixture


def _make_trial(rate=100.0, duration=2.0, n=1, fn=None, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * rate)) / rate
    if fn is None:
        q = np.zeros((t.size, n))
    else:
        q = np.column_stack([fn(t) for _ in range(n)])
    tau = np.zeros_like(q)
    if noise:
        q = q + noise * rng.standard_normal(q.shape)
        tau = tau + noise * rng.standard_normal(tau.shape)
    return RawTrial(timestamps=t, q=q, tau=tau)


class TestLowpass:
    def test_constant_preserved(self):
        x = np.full(200, 3.7)
        y = lowpass_zero_phase(x, 5.0, 100.0)
        np.testing.assert_allclose(y, x, atol=1e-9)

    def test_attenuates_above_cutoff(self):
        # 25 Hz tone through a 5 Hz cutoff: fourth-order zero-phase Butterworth
        # response at 5x cutoff is far below 10% amplitude.
        rate = 200.0
        t = np.arange(2000) / rate
        x = np.sin(2 * np.pi * 25.0 * t)
        y = lowpass_zero_phase(x, 5.0, rate)
        core = slice(400, 1600)
        assert np.max(np.abs(y[core])) < 0.1 * np.max(np.abs(x[core]))

    def test_passes_below_cutoff(self):
        rate = 200.0
        t = np.arange(2000) / rate
        x = np.sin(2 * np.pi * 0.5 * t)
        y = lowpass_zero_phase(x, 10.0, rate)
        core = slice(400, 1600)
        assert np.max(np.abs(y[core] - x[core])) < 1e-3

    def test_zero_phase_no_lag(self):
        # cross-correlation of input and output peaks at lag zero
        rate = 100.0
        t = np.arange(1024) / rate
        x = np.sin(2 * np.pi * 2.0 * t)
        y = lowpass_zero_phase(x, 10.0, rate)
        xc = x[100:-100] - x[100:-100].mean()
        lags = range(-5, 6)
        corr = [float(np.dot(xc, y[100 + lag : y.size - 100 + lag])) for lag in lags]
        assert lags[int(np.argmax(corr))] == 0

    def test_cutoff_out_of_range(self):
        with pytest.raises(SignalError):
            lowpass_zero_phase(np.zeros(100), 50.0, 100.0)
        with pytest.raises(SignalError):
            lowpass_zero_phase(np.zeros(100), 0.0, 100.0)

    def test_too_short(self):
        # scipy's sosfiltfilt raises a bare ValueError here (the 9-sample pad).
        with pytest.raises(SignalError, match="at least 10 samples"):
            lowpass_zero_phase(np.zeros((9, 2)), 5.0, 100.0)
        assert lowpass_zero_phase(np.zeros(10), 5.0, 100.0).shape == (10,)

    def test_matches_scipy_sosfiltfilt(self):
        rng = np.random.default_rng(11)
        # Lengths on both sides of powers of two, of the input and of the input
        # padded by 9 samples at each end. The lowest cutoff puts the poles
        # within 0.5 % of 1, where rounding has the most room to grow.
        edges = (46, 47, 63, 64, 65, 110, 111, 128, 129)
        for samples in (10, 11, 37, *edges, 500, 2000, 5000):
            for shape in ((samples,), (samples, 3)):
                x = rng.standard_normal(shape).cumsum(axis=0)
                for ratio in (0.0005, 0.0025, 0.01, 0.1, 0.3, 0.45, 0.49):
                    y = lowpass_zero_phase(x, ratio * 100.0, 100.0)
                    assert y.shape == x.shape
                    diff = np.max(np.abs(y - _sosfiltfilt(x, ratio * 100.0, 100.0)))
                    assert diff <= 1e-10 * np.max(np.abs(x)), (shape, ratio)

    def test_matches_scipy_on_default_cutoff_grid(self):
        x = np.random.default_rng(3).standard_normal((2000, 4)).cumsum(axis=0)
        for cutoff in sorted({c for pair in DEFAULT_CUTOFF_GRID for c in pair}):
            diff = np.max(np.abs(lowpass_zero_phase(x, cutoff, 100.0) - _sosfiltfilt(x, cutoff, 100.0)))
            assert diff <= 1e-12 * np.max(np.abs(x)), cutoff

    def test_columns_filtered_independently(self):
        # process_trial filters qd and qdd in one call; each column's bytes
        # must equal those of filtering it alone, whatever the width, the
        # length, the memory order and the column's place in the batch.
        rng = np.random.default_rng(5)
        for samples in (10, 11, 64, 129, 1000, 5000):
            x = rng.standard_normal((samples, 17)).cumsum(axis=0)
            for cutoff in (0.25, 2.0, 7.0, 20.0, 49.0):
                alone = np.column_stack(
                    [lowpass_zero_phase(x[:, i], cutoff, 100.0) for i in range(17)]
                )
                for width in range(1, 18):
                    picked = (np.arange(width) + 3 * width) % 17
                    for layout in (np.ascontiguousarray, np.asfortranarray):
                        y = lowpass_zero_phase(layout(x[:, picked]), cutoff, 100.0)
                        np.testing.assert_array_equal(y, alone[:, picked], (samples, cutoff, width))


def _sosfiltfilt(x, cutoff, rate):
    """The reference filter: scipy's zero-phase second-order Butterworth."""
    from scipy import signal

    sos = signal.butter(2, cutoff, btype="low", fs=rate, output="sos")
    return signal.sosfiltfilt(sos, x, axis=0)


class TestDifferentiate:
    def test_quadratic_exact(self):
        rate = 100.0
        t = np.arange(200) / rate
        q = (t**2)[:, None]
        qd, qdd = differentiate_twice(q, rate)
        np.testing.assert_allclose(qd[4:-4, 0], 2 * t[4:-4], atol=1e-9)
        np.testing.assert_allclose(qdd[4:-4, 0], 2.0, atol=1e-9)

    def test_constant_zero(self):
        q = np.full((100, 2), 1.5)
        qd, qdd = differentiate_twice(q, 50.0)
        np.testing.assert_allclose(qd, 0.0, atol=1e-12)
        np.testing.assert_allclose(qdd, 0.0, atol=1e-12)

    def test_sine_against_analytic(self):
        # five-point stencil on sin(t) at 100 Hz: interior error orders of
        # magnitude below the dt^2 contract bound
        rate = 100.0
        t = np.arange(500) / rate
        q = np.sin(t)[:, None]
        qd, qdd = differentiate_twice(q, rate)
        dt2 = (1.0 / rate) ** 2
        err_qd = np.max(np.abs(qd[4:-4, 0] - np.cos(t[4:-4])))
        err_qdd = np.max(np.abs(qdd[4:-4, 0] + np.sin(t[4:-4])))
        assert err_qd < dt2
        assert err_qdd < dt2
        # frozen oracle bounds for the fourth-order stencil
        assert err_qd < 5e-10
        assert err_qdd < 5e-8

    def test_too_few_samples(self):
        with pytest.raises(SignalError):
            differentiate_twice(np.zeros((4, 1)), 100.0)


class TestAverage:
    def test_identical_trials(self):
        trial = _make_trial(fn=np.sin)
        avg = average_trials([trial, trial])
        np.testing.assert_array_equal(avg.q, trial.q)
        np.testing.assert_array_equal(avg.tau, trial.tau)

    def test_single_trial_identity(self):
        trial = _make_trial(fn=np.cos)
        avg = average_trials([trial])
        np.testing.assert_array_equal(avg.q, trial.q)

    def test_noise_reduction_rate(self):
        # averaging K i.i.d. trials shrinks noise std by ~1/sqrt(K)
        K = 8
        sigma = 1.0
        stds = []
        for repeat in range(100):
            rng = np.random.default_rng(1000 + repeat)
            t = np.arange(64) / 64.0
            trials = [
                RawTrial(t, np.zeros((64, 1)), sigma * rng.standard_normal((64, 1)))
                for _ in range(K)
            ]
            stds.append(np.std(average_trials(trials).tau))
        measured = float(np.mean(stds))
        expected = sigma / np.sqrt(K)
        assert abs(measured - expected) / expected < 0.2

    def test_grid_mismatch(self):
        t1 = _make_trial(rate=100.0)
        t2 = _make_trial(rate=50.0, duration=4.0)
        with pytest.raises(SignalError):
            average_trials([t1, t2])

    def test_commutes_with_lowpass(self):
        trials = [_make_trial(fn=np.sin, noise=0.05, seed=s) for s in range(4)]
        avg_then_filter = lowpass_zero_phase(average_trials(trials).q, 8.0, 100.0)
        filtered = [
            RawTrial(t.timestamps, lowpass_zero_phase(t.q, 8.0, 100.0), t.tau)
            for t in trials
        ]
        filter_then_avg = average_trials(filtered).q
        np.testing.assert_allclose(avg_then_filter, filter_then_avg, atol=1e-9)


class TestProcess:
    def test_no_nan_and_trim(self):
        trial = _make_trial(fn=np.sin, noise=0.01)
        q, _, qdd, _ = process_trial(trial, 10.0, 10.0)
        assert np.all(np.isfinite(q))
        assert np.all(np.isfinite(qdd))
        assert q.shape[0] == trial.q.shape[0] - 8

    def test_none_cutoffs_skip_filtering(self):
        trial = _make_trial(fn=np.sin)
        q, _, _, tau = process_trial(trial, None, None)
        np.testing.assert_array_equal(q, trial.q[4:-4])
        np.testing.assert_array_equal(tau, trial.tau[4:-4])


class TestTuneCutoffs:
    def _noiseless_setup(self):
        from armid.excite import DesignProblem, random_feasible_trajectory
        from armid.simulate import NoiseSpec, builtin_fixture, generate_dataset

        fixture = builtin_fixture("planar2")
        problem = DesignProblem(model=fixture.model, sample_rate=20.0)
        rng = np.random.default_rng(4)
        traj = random_feasible_trajectory(problem, 2 * np.pi * 0.1, 3, rng)
        trial = generate_dataset(fixture, traj, 50.0, 1, NoiseSpec(seed=1))[0]
        return fixture.model, trial

    def test_grid_of_one(self):
        model, trial = self._noiseless_setup()
        best, table = tune_filter_cutoffs(trial, model, [(8.0, 8.0)])
        assert best == (8.0, 8.0)
        assert len(table) == 1

    def test_best_attains_minimum(self):
        model, trial = self._noiseless_setup()
        grid = [(4.0, 4.0), (10.0, 10.0)]
        best, table = tune_filter_cutoffs(trial, model, grid)
        residuals = {((e.position_cutoff, e.torque_cutoff)): e.residual for e in table}
        assert residuals[best] == min(r for r in residuals.values() if r is not None)

    def test_noiseless_monotone_in_cutoff(self):
        # filtering noiseless data only removes signal: residual shrinks as
        # the cutoffs rise
        model, trial = self._noiseless_setup()
        grid = [(2.0, 2.0), (6.0, 6.0), (12.0, 12.0), (20.0, 20.0)]
        best, table = tune_filter_cutoffs(trial, model, grid)
        residuals = [e.residual for e in table]
        assert all(r is not None for r in residuals)
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert best == (20.0, 20.0)

    def test_failed_points_recorded(self):
        model, trial = self._noiseless_setup()
        grid = [(8.0, 8.0), (2000.0, 2000.0)]  # second point beyond Nyquist
        best, table = tune_filter_cutoffs(trial, model, grid)
        assert best == (8.0, 8.0)
        assert table[1].residual is None
        assert table[1].error

    def test_programming_error_propagates(self, monkeypatch):
        model, trial = self._noiseless_setup()

        def broken(system, prior):
            raise RuntimeError("bug in the estimator")

        monkeypatch.setattr(identify, "consistent_identify", broken)
        with pytest.raises(RuntimeError, match="bug in the estimator"):
            tune_filter_cutoffs(trial, model, [(8.0, 8.0)])

    def test_identify_error_recorded(self, monkeypatch):
        model, trial = self._noiseless_setup()
        real = identify.consistent_identify
        calls = []

        def fails_first(system, prior):
            calls.append(None)
            if len(calls) == 1:
                raise identify.IdentifyError("barrier gave up")
            return real(system, prior)

        monkeypatch.setattr(identify, "consistent_identify", fails_first)
        best, table = tune_filter_cutoffs(trial, model, [(4.0, 4.0), (8.0, 8.0)])
        assert best == (8.0, 8.0)
        assert table[0].residual is None
        assert table[0].error == "barrier gave up"
        assert table[1].residual is not None

    def test_an_unconverged_point_is_never_best(self, monkeypatch):
        model, trial = self._noiseless_setup()
        real = identify.consistent_identify
        calls = []

        def second_unconverged(system, prior):  # the lowest residual, but unconverged
            result = real(system, prior)
            calls.append(None)
            if len(calls) == 2:
                trace = dataclasses.replace(result.trace, converged=False)
                return dataclasses.replace(result, residual=0.0, trace=trace)
            return result

        monkeypatch.setattr(identify, "consistent_identify", second_unconverged)
        best, table = tune_filter_cutoffs(trial, model, [(4.0, 4.0), (8.0, 8.0)])
        assert best == (4.0, 4.0)
        assert table[1].residual is None
        assert table[1].error == "the barrier did not converge"

    def test_a_search_with_no_ranked_point_returns_its_table(self):
        model, trial = self._noiseless_setup()
        grid = [(2000.0, 8.0), (8.0, 2000.0)]  # a position, then a torque cutoff past Nyquist
        best, table = tune_filter_cutoffs(trial, model, grid)
        assert best is None
        assert [(e.position_cutoff, e.torque_cutoff) for e in table] == grid
        assert all(e.residual is None for e in table)
        assert [e.error for e in table] == [
            "cutoff 2000.0 Hz must lie in (0, 25.0) for rate 50.0 Hz"
        ] * 2

    def test_empty_grid(self):
        model, trial = self._noiseless_setup()
        with pytest.raises(SignalError):
            tune_filter_cutoffs(trial, model, [])

    def test_one_stack_per_position_cutoff(self, monkeypatch):
        # Any sequence of pairs, not only a product: the table keeps grid order,
        # and each point's residual is the one it gets when searched alone.
        model, trial = self._noiseless_setup()
        grid = [(4.0, 8.0), (2000.0, 4.0), (8.0, 4.0), (4.0, 4.0), (8.0, 2000.0), (2000.0, 8.0)]
        # Row 0 of each search is the point searched alone; the second point,
        # (4, 4), changes nothing in it. (A search in which no point ranks
        # returns (None, table) rather than raising.)
        alone = [tune_filter_cutoffs(trial, model, [p, (4.0, 4.0)])[1][0] for p in grid]
        built = []
        real = signals.stack_regressor
        factored = []
        real_factor = identify.least_squares

        def counted(*args, **kwargs):
            built.append(None)
            return real(*args, **kwargs)

        def counted_factor(stack):
            factored.append(None)
            return real_factor(stack)

        monkeypatch.setattr(signals, "stack_regressor", counted)
        monkeypatch.setattr(identify, "least_squares", counted_factor)
        _, table = tune_filter_cutoffs(trial, model, grid)
        assert len(built) == 2  # 4 Hz and 8 Hz; the 2000 Hz points fail before the stack
        # One factorization per point whose filters work: (4, 8), (8, 4) and
        # (4, 4); 2000 Hz torques fail.
        assert len(factored) == 3
        assert table == alone
        assert [e.error is None for e in table] == [True, False, True, True, False, False]

    def test_torques_filtered_once_per_cutoff(self, monkeypatch):
        model, trial = self._noiseless_setup()
        calls = []
        real = signals.lowpass_zero_phase

        def counted(x, cutoff, rate):
            calls.append(cutoff)
            return real(x, cutoff, rate)

        monkeypatch.setattr(signals, "lowpass_zero_phase", counted)
        tune_filter_cutoffs(trial, model, [(4.0, 4.0), (4.0, 8.0), (8.0, 4.0), (8.0, 8.0)])
        # Each position cutoff filters q, then qd and qdd together; each
        # torque cutoff filters the torques once.
        assert sorted(calls) == [4.0, 4.0, 4.0, 8.0, 8.0, 8.0]

    def test_default_grid_size(self):
        assert len(DEFAULT_CUTOFF_GRID) == 49


# Finite doubles, with the ones a decimal round trip most easily gets wrong
# always in the mix: signed zero, subnormals and the extreme exponents.
_FINITE = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestCsv:
    @given(n=st.integers(1, 3), data=st.data())
    def test_roundtrip_is_bit_exact(self, n, data):
        q = data.draw(arrays(np.float64, (16, n), elements=_FINITE))
        tau = data.draw(arrays(np.float64, (16, n), elements=_FINITE))
        trial = RawTrial(timestamps=np.arange(16) / 100.0, q=q, tau=tau)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trial.csv"
            trial_to_csv(trial, path)
            back = trial_from_csv(path)
        for name in ("timestamps", "q", "tau"):
            np.testing.assert_array_equal(
                getattr(back, name).view(np.int64), getattr(trial, name).view(np.int64)
            )

    def test_trial_roundtrip(self, tmp_path):
        trial = _make_trial(fn=np.sin, n=2, noise=0.1)
        path = tmp_path / "trial.csv"
        trial_to_csv(trial, path)
        back = trial_from_csv(path)
        np.testing.assert_array_equal(back.timestamps, trial.timestamps)
        np.testing.assert_array_equal(back.q, trial.q)
        np.testing.assert_array_equal(back.tau, trial.tau)

    def test_written_bytes(self, tmp_path):
        # Pins the file format: shortest round-trip decimals and \r\n line ends.
        q = np.zeros((16, 1))
        q[:5, 0] = [0.1, 1e-05, -0.0, 1 / 3, 123456789.125]
        tau = np.zeros((16, 1))
        tau[:5, 0] = [-1e-05, 123456789.125, 1 / 3, 0.1, -0.0]
        trial = RawTrial(timestamps=np.arange(16) / 10.0, q=q, tau=tau)
        path = tmp_path / "trial.csv"
        trial_to_csv(trial, path)
        rows = [
            "t,q_1,tau_1",
            "0.0,0.1,-1e-05",
            "0.1,1e-05,123456789.125",
            "0.2,-0.0,0.3333333333333333",
            "0.3,0.3333333333333333,0.1",
            "0.4,123456789.125,-0.0",
            "0.5,0.0,0.0",
            "0.6,0.0,0.0",
            "0.7,0.0,0.0",
            "0.8,0.0,0.0",
            "0.9,0.0,0.0",
            "1.0,0.0,0.0",
            "1.1,0.0,0.0",
            "1.2,0.0,0.0",
            "1.3,0.0,0.0",
            "1.4,0.0,0.0",
            "1.5,0.0,0.0",
        ]
        assert path.read_bytes() == "".join(r + "\r\n" for r in rows).encode()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_either_line_ending_reads_back(self, tmp_path, newline):
        trial = _make_trial(fn=np.sin, n=2, noise=0.1)
        path = tmp_path / "trial.csv"
        trial_to_csv(trial, path)
        lines = path.read_text().splitlines()
        path.write_bytes((newline.join(lines) + newline).encode())
        back = trial_from_csv(path)
        np.testing.assert_array_equal(back.timestamps, trial.timestamps)
        np.testing.assert_array_equal(back.q, trial.q)
        np.testing.assert_array_equal(back.tau, trial.tau)

    @staticmethod
    def _edited(tmp_path, edit):
        """A two-joint trial file (5 fields a row) after ``edit`` of its lines."""
        path = tmp_path / "trial.csv"
        trial_to_csv(_make_trial(fn=np.sin, n=2), path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def _assert_read_error(path, message):
        # The whole message: the file, its 1-based line, and no numpy wording.
        with pytest.raises(SignalError) as info:
            trial_from_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty file"), ("t,q_1,tau_1\r\n", "trial too short: 0 samples < 16")],
    )
    def test_no_data(self, tmp_path, text, message):
        path = tmp_path / "trial.csv"
        path.write_text(text)
        self._assert_read_error(path, message)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_bytes(b"t,q_1,tau_1\r\n\xff,0.0,0.0\r\n")
        self._assert_read_error(path, "not a text file (invalid start byte)")

    # "t" alone has no joints: it is not read as an (S, 0) trial.
    @pytest.mark.parametrize("header", ["time,q_1,q_2,tau_1,tau_2", "t,q_1,q_2,tau_1", "t"])
    def test_bad_header(self, tmp_path, header):
        def edit(lines):
            lines[0] = header

        path = self._edited(tmp_path, edit)
        self._assert_read_error(path, f"unexpected header {header.split(',')!r}")

    @pytest.mark.parametrize(
        "row, fields", [(4, "0.1,0.2"), (9, "0.1,0.2,0.3,0.4,0.5,0.6")]
    )
    def test_short_or_long_row(self, tmp_path, row, fields):
        def edit(lines):
            lines[row - 1] = fields

        path = self._edited(tmp_path, edit)
        count = fields.count(",") + 1
        self._assert_read_error(path, f"row {row} has {count} fields, expected 5")

    @pytest.mark.parametrize("blank", ["", "  "])
    def test_blank_line(self, tmp_path, blank):
        # The blank line is the error, not the bad field below it that a parser
        # skipping blank lines would report first.
        def edit(lines):
            lines.insert(5, blank)
            lines[11] = "x,1,2,3,4"

        path = self._edited(tmp_path, edit)
        self._assert_read_error(path, "row 6 is blank")

    def test_blank_last_line(self, tmp_path):
        path = self._edited(tmp_path, lambda lines: lines.append(""))
        self._assert_read_error(path, "row 202 is blank")

    def test_hash_in_a_field(self, tmp_path):
        # A '#' starts no comment: the field holding it is not a number.
        def edit(lines):
            lines[7] += "#note"

        path = self._edited(tmp_path, edit)
        self._assert_read_error(path, "row 8 contains a non-numeric field")

    def test_corrupt_row_named(self, tmp_path):
        trial = _make_trial(fn=np.sin)
        path = tmp_path / "trial.csv"
        trial_to_csv(trial, path)
        lines = path.read_text().splitlines()
        lines[5] = "not,a,number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SignalError, match="row 6"):
            trial_from_csv(path)


def _bits(trial) -> tuple[bytes, ...]:
    return tuple(getattr(trial, name).tobytes() for name in ("timestamps", "q", "tau"))


class TestSharedRead:
    """``trial_from_csv`` with a ``shared_text`` dict reads what each file reads alone."""

    @given(
        n=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(
            st.sampled_from(["same", "position noise", "zero signs", "one zero", "shorter"]),
            min_size=1, max_size=4,
        ),
    )
    def test_shared_reads_give_the_bits_of_lone_reads(self, n, seed, kinds):
        # Each trial after the first takes the [t | q] of the one before it:
        # as is, with noise on q, with the sign of every zero in q flipped,
        # with its first zero made 1.0 (text of the same length), or one
        # sample shorter.
        rng = np.random.default_rng(seed)
        t = np.arange(24) / 50.0
        q = rng.standard_normal((24, n))
        q[rng.random(q.shape) < 0.3] = 0.0
        q[rng.random(q.shape) < 0.3] = -0.0
        trials = [RawTrial(t, q, rng.standard_normal(q.shape))]
        for kind in kinds:
            t, q = trials[-1].timestamps, trials[-1].q
            if kind == "position noise":
                q = q + 1e-3 * rng.standard_normal(q.shape)
            elif kind == "zero signs":
                q = np.where(q == 0.0, -q, q)
            elif kind == "one zero":
                q = q.copy()
                q.flat[np.argmax(q == 0.0)] = 1.0
            elif kind == "shorter":
                t, q = t[:-1], q[:-1]
            trials.append(RawTrial(t, q, rng.standard_normal(q.shape)))
        with tempfile.TemporaryDirectory() as tmp:
            data_dir = Path(tmp)
            written: dict = {}
            for k, trial in enumerate(trials):
                trial_to_csv(trial, data_dir / f"trial_{k:03d}.csv", written)
            paths = sorted(data_dir.glob("trial_*.csv"))
            shared: dict = {}
            for path in paths:
                assert _bits(trial_from_csv(path, shared)) == _bits(trial_from_csv(path))
            # A dataset loads to the same averaged trial, or the same error,
            # with or without the shared text.
            model = builtin_fixture(("pendulum1", "planar2", "chain3")[n - 1]).model
            (data_dir / "manifest.json").write_text(json.dumps({"model": model_to_dict(model)}))
            outcomes = []
            real = signals.trial_from_csv
            for lone in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    if lone:
                        mp.setattr(signals, "trial_from_csv", lambda path, shared_text: real(path))
                    try:
                        outcomes.append(_bits(average_trials(signals.load_dataset(data_dir)[2])))
                    except SignalError as exc:
                        outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: line.rsplit(",", 1)[0] + ",abc",
            lambda line: line + ",0.5",
            lambda line: line.rsplit(",", 1)[0],
            lambda line: ",".join(line.split(",")[:3]) + ",",
            lambda line: "\n" + line,
        ],
        ids=["non-numeric", "extra field", "missing field", "no torques", "blank line"],
    )
    def test_a_bad_torque_part_raises_the_lone_error(self, tmp_path, edit):
        # Row 7's [t | q] text is the previous trial's; its torques are not.
        good, bad = tmp_path / "trial_0.csv", tmp_path / "trial_1.csv"
        trial_to_csv(_make_trial(fn=np.sin, n=2), good)
        lines = good.read_text().splitlines()
        lines[6] = edit(lines[6])
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(SignalError) as lone:
            trial_from_csv(bad)
        shared: dict = {}
        trial_from_csv(good, shared)
        with pytest.raises(SignalError) as info:
            trial_from_csv(bad, shared)
        assert str(info.value) == str(lone.value)
        assert str(lone.value).startswith(f"{bad}: row 7 ")


class TestRawTrialValidation:
    def test_nonuniform_grid_rejected(self):
        t = np.arange(20) / 10.0
        t[7] += 1e-3
        with pytest.raises(SignalError, match="uniform"):
            RawTrial(t, np.zeros((20, 1)), np.zeros((20, 1)))

    def test_too_short_rejected(self):
        t = np.arange(10) / 10.0
        with pytest.raises(SignalError, match="16"):
            RawTrial(t, np.zeros((10, 1)), np.zeros((10, 1)))
