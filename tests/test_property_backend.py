"""The columnar digital back-end against its per-row oracles.

A multi-row compass-loop call counts, runs the CORDIC and extracts the
health features as array operations (``repro.digital.columnar``).  The
per-row datapath stays as the reference: ``UpDownCounter.count_window``,
``CordicArctan.arctan_first_quadrant`` and the supervisor's
``_duty_in_window``/``_edges_in_window``.  Every comparison here is
exact (``==``), never approximate.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analog import fastpath
from repro.analog.frontend import FrontEndConfig
from repro.analog.pulse_detector import DetectorOutput, EdgeMatrix, LogicEdge
from repro.batch import BatchCompass
from repro.core.compass import COLUMNAR_MIN_ROWS, CompassConfig, IntegratedCompass
from repro.core.health import (
    ChannelEvidence,
    HealthConfig,
    _duty_in_window,
    _edges_in_window,
)
from repro.digital import columnar
from repro.digital.backend import DigitalBackEnd
from repro.digital.cordic import CordicArctan
from repro.digital.counter import CounterConfig, UpDownCounter
from repro.errors import ProtocolError, ReproError
from repro.faults import REGISTRY
from repro.physics.noise import NOISELESS, NoiseBudget

TICK = CounterConfig().tick
T0 = 1000 * TICK + 0.3 * TICK
WINDOW = (T0, T0 + 150.5 * TICK)
DETECTOR_WINDOW = (T0 - 20 * TICK, WINDOW[1] + 20 * TICK)
FAST = CompassConfig(front_end=FrontEndConfig(fastpath=True))

#: Edge times that stress the floor arithmetic: exact tick boundaries of
#: the counter's clock (aligned to the window start) and points a hair
#: either side of one, inside and outside the counter's 1e-12 tick
#: tolerance, the window ends themselves, and arbitrary points around and
#: outside the window.
edge_times = st.one_of(
    st.integers(min_value=-5, max_value=160).map(lambda k: T0 + k * TICK),
    st.tuples(
        st.integers(min_value=-5, max_value=160),
        st.sampled_from([-5e-10, -5e-12, -1e-13, 1e-13, 5e-12, 5e-10]),
    ).map(lambda k_eps: T0 + (k_eps[0] + k_eps[1]) * TICK),
    st.sampled_from([WINDOW[0], WINDOW[1], DETECTOR_WINDOW[0]]),
    st.floats(min_value=DETECTOR_WINDOW[0], max_value=DETECTOR_WINDOW[1]),
)


@st.composite
def detector_rows(draw, max_rows=6, max_edges=14):
    """Ragged rows of sorted edges (empty rows included)."""
    outputs = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rows))):
        times = sorted(draw(st.lists(edge_times, max_size=max_edges)))
        n = len(times)
        values = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        outputs.append(
            DetectorOutput(
                edges=tuple(map(LogicEdge, times, values)),
                initial_value=draw(st.integers(0, 1)),
                window=DETECTOR_WINDOW,
            )
        )
    return outputs


def outcome(call, *args):
    """A call's result, or its error's type and message."""
    try:
        return call(*args)
    except ReproError as error:
        return type(error), str(error)


class TestEdgeMatrix:
    @settings(max_examples=40, deadline=None)
    @given(outputs=detector_rows())
    def test_rows_round_trip(self, outputs):
        matrix = EdgeMatrix.from_outputs(outputs)
        assert list(matrix) == outputs
        assert matrix.sorted_rows().all()

    def test_fast_path_matrix_rows_are_the_detector_outputs(self):
        compass = IntegratedCompass(FAST)
        grid = compass._channel_grid()
        fields = np.array([-40.0, -3.0, 0.0, 17.5, 51.0])
        matrix = fastpath.solve_channel_batch(
            compass.front_end, compass.sensors.sensor_x, "x", fields, grid
        )
        rebuilt = EdgeMatrix.from_outputs(list(matrix))
        for name in ("times", "values", "initial", "windows", "lengths"):
            assert np.array_equal(getattr(rebuilt, name), getattr(matrix, name))
        assert matrix[-1] == matrix[len(matrix) - 1]


class TestCounter:
    @settings(max_examples=80, deadline=None)
    @given(outputs=detector_rows())
    def test_high_ticks_match_count_window(self, outputs):
        counter = UpDownCounter(CounterConfig(strict_overflow=False))
        high = columnar.high_ticks(EdgeMatrix.from_outputs(outputs), WINDOW, TICK)
        assert high.tolist() == [
            counter.count_window(out, WINDOW).high_ticks for out in outputs
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(detector_rows(1), detector_rows(1)), min_size=1, max_size=5
        ),
        width=st.sampled_from([6, 8, 16]),
        strict=st.booleans(),
    )
    def test_process_columns_matches_process_measurement(self, rows, width, strict):
        # Narrow counters overflow on these windows: strictly (the row is
        # left to the oracle, which raises) or wrapping.  Most small
        # counts also trip the trust threshold.
        config = CounterConfig(width_bits=width, strict_overflow=strict)
        outputs_x = [x[0] for x, _ in rows]
        outputs_y = [y[0] for _, y in rows]
        columns = DigitalBackEnd(counter_config=config).process_columns(
            EdgeMatrix.from_outputs(outputs_x),
            EdgeMatrix.from_outputs(outputs_y),
            WINDOW,
        )
        oracle = DigitalBackEnd(counter_config=config)
        for row, (dx, dy) in enumerate(zip(outputs_x, outputs_y)):
            expected = outcome(oracle.process_measurement, dx, dy, WINDOW, WINDOW)
            # Sorted rows are left to the oracle only where it raises.
            assert columns.served[row] is not isinstance(expected, tuple)
            if columns.served[row]:
                assert columns.result(row) == expected


class TestCordic:
    def test_exhaustive_on_the_0_255_square(self):
        cordic = CordicArctan()
        y, x = (a.ravel() for a in np.meshgrid(np.arange(256), np.arange(256)))
        angles, refused = columnar.cordic_angles(cordic, y, x)
        for yi, xi, angle, bad in zip(
            y.tolist(), x.tolist(), angles.tolist(), refused.tolist()
        ):
            expected = outcome(cordic.arctan_first_quadrant, yi, xi)
            if bad:
                assert isinstance(expected, tuple)
            else:
                assert angle == expected.angle_fixed

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
            min_size=1,
            max_size=8,
        ),
        register_width=st.sampled_from([20, 24]),
        flipped_bit=st.one_of(st.none(), st.integers(0, 12)),
    )
    def test_matches_oracle_on_16_bit_inputs(self, pairs, register_width, flipped_bit):
        # Up to 2^16 << 7 the 24-bit registers overflow on the larger
        # inputs, the 20-bit ones on most.  A flipped ROM word is read
        # live by both datapaths.
        cordic = CordicArctan(register_width=register_width)
        if flipped_bit is not None:
            rom = list(cordic.rom)
            rom[0] ^= 1 << flipped_bit
            cordic.rom = tuple(rom)
        y = np.array([p[0] for p in pairs], dtype=np.int64)
        x = np.array([p[1] for p in pairs], dtype=np.int64)
        angles, refused = columnar.cordic_angles(cordic, y, x)
        for (yi, xi), angle, bad in zip(pairs, angles.tolist(), refused.tolist()):
            expected = outcome(cordic.arctan_first_quadrant, yi, xi)
            if bad:
                assert isinstance(expected, tuple)
            else:
                assert angle == expected.angle_fixed


class TestHealthFeatures:
    @settings(max_examples=80, deadline=None)
    @given(outputs=detector_rows())
    def test_duty_and_edges_match_the_oracles(self, outputs):
        matrix = EdgeMatrix.from_outputs(outputs)
        duty = columnar.duty_cycles(matrix, *WINDOW)
        own = columnar.duty_cycles(matrix, matrix.windows[:, 0], matrix.windows[:, 1])
        sets, resets = columnar.edges_in_window(matrix, WINDOW)
        assert duty.tolist() == [_duty_in_window(out, WINDOW) for out in outputs]
        assert own.tolist() == [out.duty_cycle() for out in outputs]
        assert list(zip(sets.tolist(), resets.tolist())) == [
            _edges_in_window(out, WINDOW) for out in outputs
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        drops=st.lists(st.integers(0, 17), max_size=12),
        field_scale=st.sampled_from([0.2, 1.0, 2.5, 6.0]),
    )
    def test_judge_on_columns_matches_review(self, drops, field_scale):
        # Solved rows with edges knocked out: pulse activity and the
        # count/duty identity fail on some, the field band flags others.
        compass = IntegratedCompass(FAST)
        grid = compass._channel_grid()
        settle = compass.config.schedule.settle_periods * grid.period
        window = (grid.t_start + settle, grid.window()[1])
        solved = fastpath.solve_channel_batch(
            compass.front_end,
            compass.sensors.sensor_x,
            "x",
            np.array([30.0, -25.0]),
            grid,
        )
        outputs = list(solved)
        kept = [edge for j, edge in enumerate(outputs[0].edges) if j not in drops]
        outputs[0] = dataclasses.replace(outputs[0], edges=tuple(kept))
        matrix_x = EdgeMatrix.from_outputs(outputs)
        matrix_y = EdgeMatrix.from_outputs(outputs[::-1])
        back = compass.back_end
        columns = back.process_columns(matrix_x, matrix_y, window)
        supervisor = compass.supervisor
        for row in range(2):
            if not columns.served[row]:
                continue
            result = columns.result(row)
            field = field_scale * 40.0
            evidence = []
            for matrix in (matrix_x, matrix_y):
                sets, resets = columnar.edges_in_window(matrix, window)
                evidence.append(
                    ChannelEvidence(
                        (result.x_count, result.y_count)[len(evidence)],
                        result.x_result.total_ticks,
                        columnar.duty_cycles(matrix, *window).tolist()[row],
                        sets.tolist()[row],
                        resets.tolist()[row],
                    )
                )
            assert outcome(supervisor.judge, *evidence, window, field) == outcome(
                supervisor.review, result, matrix_x[row], matrix_y[row], window, field
            )


# -- the compass loop ---------------------------------------------------------

#: Saturates one sensor: that channel sees no pulses and fails.
SATURATING = 195.0


def design(fastpath=True, noisy=False, degrade=False, **health):
    return CompassConfig(
        samples_per_period=1024,
        front_end=FrontEndConfig(
            fastpath=fastpath,
            noise=NoiseBudget(white_density=20e-9) if noisy else NOISELESS,
            noise_seed=5,
        ),
        health=HealthConfig(degrade=degrade, **health),
    )


def scalar_loop(compass, h_x, h_y):
    """Per-row calls until one raises: ``(measurements, error)``."""
    measurements = []
    for x, y in zip(h_x, h_y):
        try:
            measurements.append(compass.measure_components(x, y))
        except ReproError as error:
            return measurements, (type(error), str(error))
    return measurements, None


def batch_call(compass, h_x, h_y):
    """``(measurements, error)`` of one batch call; a call that raises
    returns no measurements."""
    try:
        batch = BatchCompass(compass, chunk_size=3)
        return batch.measure_components_batch(h_x, h_y), None
    except ReproError as error:
        return None, (type(error), str(error))


def assert_same_outcome(got, expected):
    measurements, error = expected
    assert got[1] == error
    assert got[0] == (measurements if error is None else None)


def state(compass):
    """Everything a measurement leaves behind on the device."""
    supervisor = compass.supervisor
    return (
        supervisor.last_good,
        supervisor._stale_measurements,
        list(compass.back_end.controller.history),
        compass.back_end.last_result,
        compass.back_end.counter.enabled,
    )


def fields(compass, rows):
    pairs = [compass.sensors.axis_fields_from_tesla(m, h) for h, m in rows]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


class CountCalls:
    """Counts class-level calls of the per-row counter oracle."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = UpDownCounter.count_window

        def count_window(counter, *args, **kwargs):
            self.calls += 1
            return original(counter, *args, **kwargs)

        monkeypatch.setattr(UpDownCounter, "count_window", count_window)


rows_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=359.9),
        st.floats(min_value=25e-6, max_value=55e-6),
    ),
    min_size=COLUMNAR_MIN_ROWS,
    max_size=COLUMNAR_MIN_ROWS + 3,
)


class TestCompassLoop:
    @settings(max_examples=10, deadline=None)
    @given(rows=rows_strategy)
    def test_fast_path_rows_take_the_columns(self, rows):
        scalar = IntegratedCompass(design())
        batch = IntegratedCompass(design())
        h_x, h_y = fields(scalar, rows)
        expected = scalar_loop(scalar, h_x, h_y)
        with pytest.MonkeyPatch.context() as monkeypatch:
            oracle = CountCalls(monkeypatch)
            got = batch_call(batch, h_x, h_y)
        assert_same_outcome(got, expected)
        assert oracle.calls == 0
        assert state(batch) == state(scalar)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_stepped_rows(self, noisy):
        rows = [(10.0 + 67.0 * i, 30e-6 + 4e-6 * i) for i in range(5)]
        scalar = IntegratedCompass(design(fastpath=False, noisy=noisy))
        batch = IntegratedCompass(design(fastpath=False, noisy=noisy))
        h_x, h_y = fields(scalar, rows)
        assert_same_outcome(batch_call(batch, h_x, h_y), scalar_loop(scalar, h_x, h_y))
        assert state(batch) == state(scalar)

    @pytest.mark.parametrize("bit", [0, 6, 14])
    def test_counter_stuck_bit_runs_the_oracle(self, bit):
        # The injector patches count_window on the instance, so the batch
        # runs the per-row datapath through the fault.
        rows = [(15.0 + 80.0 * i, 45e-6) for i in range(5)]
        scalar = IntegratedCompass(design(degrade=True))
        batch = IntegratedCompass(design(degrade=True))
        h_x, h_y = fields(scalar, rows)
        assert_same_outcome(
            batch_call(batch, h_x[:1], h_y[:1]), scalar_loop(scalar, h_x[:1], h_y[:1])
        )
        with REGISTRY.inject("digital.counter_stuck_bit", scalar, bit):
            expected = scalar_loop(scalar, h_x, h_y)
        with REGISTRY.inject("digital.counter_stuck_bit", batch, bit):
            assert not batch.back_end.columnar_ready()
            assert_same_outcome(batch_call(batch, h_x, h_y), expected)
        assert state(batch) == state(scalar)

    def test_rom_bitflip_reads_the_live_rom(self):
        rows = [(15.0 + 80.0 * i, 45e-6) for i in range(5)]
        scalar = IntegratedCompass(design(degrade=True))
        batch = IntegratedCompass(design(degrade=True))
        h_x, h_y = fields(scalar, rows)
        assert_same_outcome(
            batch_call(batch, h_x[:1], h_y[:1]), scalar_loop(scalar, h_x[:1], h_y[:1])
        )
        with REGISTRY.inject("digital.cordic_rom_bitflip", scalar, 3.0):
            expected = scalar_loop(scalar, h_x, h_y)
        with REGISTRY.inject("digital.cordic_rom_bitflip", batch, 3.0):
            got = batch_call(batch, h_x, h_y)
        assert_same_outcome(got, expected)
        assert all(m.health.fallback == "last-known-good" for m in got[0])
        assert state(batch) == state(scalar)

    def test_single_axis_rows_run_per_row(self):
        h_x = np.array([30.0, SATURATING, -12.0, 25.0, -31.0])
        h_y = np.array([-20.0, -20.0, SATURATING, 31.0, 8.0])
        scalar = IntegratedCompass(design(fastpath=False, noisy=True, degrade=True))
        batch = IntegratedCompass(design(fastpath=False, noisy=True, degrade=True))
        got = batch_call(batch, h_x, h_y)
        assert_same_outcome(got, scalar_loop(scalar, h_x, h_y))
        assert [m.health.fallback for m in got[0]] == [
            None, "single-axis-y", "single-axis-x", None, None
        ]
        assert state(batch) == state(scalar)

    @pytest.mark.parametrize("weak_row", [0, 2, 4])
    def test_protocol_error_mid_batch(self, weak_row):
        # A row far below the count trust threshold raises ProtocolError
        # where it stands, after the earlier rows were assembled.
        h_x = np.array([30.0, -12.0, 25.0, -31.0, 14.0])
        h_y = np.array([-20.0, 31.0, 8.0, 22.0, -40.0])
        h_x[weak_row], h_y[weak_row] = 0.05, -0.02
        scalar = IntegratedCompass(design())
        batch = IntegratedCompass(design())
        expected = scalar_loop(scalar, h_x, h_y)
        got = batch_call(batch, h_x, h_y)
        assert expected[1][0] is ProtocolError
        assert len(expected[0]) == weak_row
        assert_same_outcome(got, expected)
        assert state(batch) == state(scalar)

    def test_one_row_calls_stay_per_row(self, monkeypatch):
        compass = IntegratedCompass(design())
        oracle = CountCalls(monkeypatch)
        compass.measure_heading(30.0)
        assert oracle.calls == 2


@pytest.mark.parametrize(
    "iterations,register_width,counter_width,ready",
    [(8, 24, 16, True), (8, 60, 16, True), (8, 61, 16, False), (16, 59, 16, True),
     (16, 60, 16, False), (8, 24, 48, True)],
)
def test_columnar_ready_keeps_int64_headroom(
    iterations, register_width, counter_width, ready
):
    back = DigitalBackEnd(
        counter_config=CounterConfig(width_bits=counter_width),
        cordic_iterations=iterations,
    )
    back.cordic = CordicArctan(iterations=iterations, register_width=register_width)
    assert back.columnar_ready() is ready

