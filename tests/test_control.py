"""Tests for the measurement control FSM and power gating (§4)."""

import pytest

from repro.analog.mux import MeasurementSchedule
from repro.digital.control import (
    CompassController,
    ControllerState,
)
from repro.errors import ProtocolError


class TestSequencing:
    def test_default_sequence(self):
        controller = CompassController()
        assert controller.measurement_sequence == (
            ControllerState.SETTLE_X,
            ControllerState.COUNT_X,
            ControllerState.SETTLE_Y,
            ControllerState.COUNT_Y,
            ControllerState.COMPUTE,
        )

    def test_no_settle_skips_settle_states(self):
        controller = CompassController(MeasurementSchedule(settle_periods=0))
        assert ControllerState.SETTLE_X not in controller.measurement_sequence
        assert ControllerState.SETTLE_Y not in controller.measurement_sequence

    def test_run_measurement_returns_to_idle(self):
        controller = CompassController()
        dwells = controller.run_measurement()
        assert controller.state is ControllerState.IDLE
        assert [d.state for d in dwells] == list(controller.measurement_sequence)

    def test_double_start_rejected(self):
        controller = CompassController()
        controller.state = ControllerState.COUNT_X
        with pytest.raises(ProtocolError, match="started while"):
            controller.run_measurement()

    def test_history_accumulates(self):
        controller = CompassController()
        controller.run_measurement()
        controller.run_measurement()
        assert len(controller.history) == 2 * len(controller.measurement_sequence)

    def test_history_is_bounded_to_the_latest_dwells(self):
        controller = CompassController()
        per_measurement = len(controller.measurement_sequence)
        for _ in range(controller.HISTORY_LIMIT // per_measurement + 3):
            last = controller.run_measurement()
        assert len(controller.history) == controller.HISTORY_LIMIT
        assert list(controller.history)[-per_measurement:] == last


class TestTiming:
    def test_count_state_duration(self):
        controller = CompassController(MeasurementSchedule(count_periods=8))
        assert controller.state_duration(ControllerState.COUNT_X) == pytest.approx(
            8 / 8000.0
        )

    def test_compute_duration_is_8_cordic_cycles(self):
        controller = CompassController()
        expected = 8 / 4.194304e6
        assert controller.state_duration(ControllerState.COMPUTE) == pytest.approx(
            expected
        )

    def test_measurement_duration_dominated_by_counting(self):
        controller = CompassController()
        total = controller.measurement_duration()
        compute = controller.state_duration(ControllerState.COMPUTE)
        # The CORDIC's 8 cycles are negligible next to 18 excitation
        # periods — why the paper happily runs it in 8 clocks.
        assert compute < 1e-3 * total

    def test_idle_has_no_duration(self):
        with pytest.raises(ProtocolError):
            CompassController().state_duration(ControllerState.IDLE)


class TestEnables:
    def test_idle_gates_everything_off(self):
        controller = CompassController()
        enables = controller.enables()
        assert not enables.analog_front_end
        assert not enables.counter
        assert not enables.cordic

    def test_counter_enabled_only_while_counting(self):
        controller = CompassController()
        controller.state = ControllerState.SETTLE_X
        assert not controller.enables().counter
        controller.state = ControllerState.COUNT_X
        assert controller.enables().counter
        assert controller.enables().analog_front_end

    def test_cordic_enabled_only_in_compute(self):
        controller = CompassController()
        controller.state = ControllerState.COMPUTE
        enables = controller.enables()
        assert enables.cordic
        assert not enables.analog_front_end

    def test_active_channel_tracks_state(self):
        controller = CompassController()
        controller.state = ControllerState.COUNT_Y
        assert controller.enables().active_channel == "y"


class TestDutyCycles:
    def test_once_per_second_duty(self):
        controller = CompassController()
        duties = controller.block_duty_cycles(repetition_period=1.0)
        # 18 excitation periods = 2.25 ms of analogue on-time per second.
        assert duties["analog_front_end"] == pytest.approx(2.25e-3, rel=1e-3)
        assert duties["counter"] == pytest.approx(2.0e-3, rel=1e-3)
        assert duties["cordic"] < 1e-5

    def test_faster_repetition_raises_duty(self):
        controller = CompassController()
        slow = controller.block_duty_cycles(1.0)["analog_front_end"]
        fast = controller.block_duty_cycles(0.01)["analog_front_end"]
        assert fast == pytest.approx(100.0 * slow, rel=1e-6)

    def test_too_fast_repetition_rejected(self):
        controller = CompassController()
        with pytest.raises(ProtocolError, match="shorter than"):
            controller.block_duty_cycles(1e-4)


def _dict_state_duration(controller, state):
    """The dwell of ``state`` as the controller once rebuilt it per call."""
    s = controller.schedule
    durations = {
        ControllerState.SETTLE_X: s.settle_periods / controller.excitation_frequency_hz,
        ControllerState.COUNT_X: s.count_periods / controller.excitation_frequency_hz,
        ControllerState.SETTLE_Y: s.settle_periods / controller.excitation_frequency_hz,
        ControllerState.COUNT_Y: s.count_periods / controller.excitation_frequency_hz,
        ControllerState.COMPUTE: controller.cordic_iterations / controller.clock_hz,
    }
    return durations[state]


class TestDurationsComputedOnce:
    @pytest.mark.parametrize("settle,count", [(0, 8), (1, 8), (2, 16), (3, 5)])
    @pytest.mark.parametrize("frequency_hz", [8000.0, 7919.37, 8192.0 * 1.013])
    @pytest.mark.parametrize(
        "iterations,clock_hz", [(8, 4194304.0), (12, 4194304.0), (5, 3.1e6)]
    )
    def test_match_the_per_call_expression(
        self, settle, count, frequency_hz, iterations, clock_hz
    ):
        controller = CompassController(
            MeasurementSchedule(settle_periods=settle, count_periods=count),
            excitation_frequency_hz=frequency_hz,
            cordic_iterations=iterations,
            clock_hz=clock_hz,
        )
        settles = (ControllerState.SETTLE_X, ControllerState.SETTLE_Y)
        sequence = [
            state
            for state in (
                ControllerState.SETTLE_X,
                ControllerState.COUNT_X,
                ControllerState.SETTLE_Y,
                ControllerState.COUNT_Y,
                ControllerState.COMPUTE,
            )
            if settle > 0 or state not in settles
        ]
        assert list(controller.measurement_sequence) == sequence
        for state in ControllerState:
            if state is ControllerState.IDLE:
                continue
            expected = _dict_state_duration(controller, state)
            assert controller.state_duration(state) == expected
        # Same summation order, so bit-identical, not merely close.
        assert controller.measurement_duration() == sum(
            _dict_state_duration(controller, state) for state in sequence
        )
        dwells = controller.run_measurement()
        assert [(d.state, d.duration) for d in dwells] == [
            (state, _dict_state_duration(controller, state)) for state in sequence
        ]
