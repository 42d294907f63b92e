"""The digital control logic (§4).

"The digital control logic has two main functions.  It enables the
analogue section and the digital high speed up-down counter only when they
are needed, in order to diminish the power consumption further, and it
controls the multiplexing of the two sensors."

The controller is a small synchronous FSM clocked (conceptually) at the
excitation rate.  One heading measurement walks through:

    IDLE → SETTLE_X → COUNT_X → SETTLE_Y → COUNT_Y → COMPUTE → IDLE

Enable signals for the analogue front-end, the counter and the CORDIC are
asserted only in the states that need them; the recorded enable intervals
feed the power model (:mod:`repro.core.power`) and the GATE1 bench.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from ..analog.mux import MeasurementSchedule
from ..errors import ProtocolError
from ..units import CORDIC_ITERATIONS, COUNTER_CLOCK_HZ, EXCITATION_FREQUENCY_HZ


class ControllerState(enum.Enum):
    """States of the measurement FSM."""

    IDLE = "idle"
    SETTLE_X = "settle_x"
    COUNT_X = "count_x"
    SETTLE_Y = "settle_y"
    COUNT_Y = "count_y"
    COMPUTE = "compute"


@dataclass(frozen=True)
class EnableSignals:
    """The controller's output enables in a given state."""

    analog_front_end: bool
    counter: bool
    cordic: bool
    active_channel: str  # "x", "y" or "-" when neither is excited


#: Enable map: which blocks are powered in which state (§4's gating).
_STATE_ENABLES: Dict[ControllerState, EnableSignals] = {
    ControllerState.IDLE: EnableSignals(False, False, False, "-"),
    ControllerState.SETTLE_X: EnableSignals(True, False, False, "x"),
    ControllerState.COUNT_X: EnableSignals(True, True, False, "x"),
    ControllerState.SETTLE_Y: EnableSignals(True, False, False, "y"),
    ControllerState.COUNT_Y: EnableSignals(True, True, False, "y"),
    ControllerState.COMPUTE: EnableSignals(False, False, True, "-"),
}


@dataclass
class StateDwell:
    """One visited state and how long the FSM stayed there [s]."""

    state: ControllerState
    duration: float


class CompassController:
    """Cycle-level measurement sequencer with power-gating outputs.

    Parameters
    ----------
    schedule:
        Settle/count period allocation per channel.
    excitation_frequency_hz:
        Excitation rate that paces the settle/count states.
    cordic_iterations:
        Cycles the COMPUTE state occupies at the counter clock.
    """

    #: Dwells kept on :attr:`history`: a measurement records one dwell
    #: per state, so this keeps the last 200 five-state measurements of
    #: a compass that measures forever.
    HISTORY_LIMIT = 1000

    def __init__(
        self,
        schedule: MeasurementSchedule = MeasurementSchedule(),
        excitation_frequency_hz: float = EXCITATION_FREQUENCY_HZ,
        cordic_iterations: int = CORDIC_ITERATIONS,
        clock_hz: float = COUNTER_CLOCK_HZ,
    ):
        self.schedule = schedule
        self.excitation_frequency_hz = excitation_frequency_hz
        self.cordic_iterations = cordic_iterations
        self.clock_hz = clock_hz
        self.state = ControllerState.IDLE
        self.history: Deque[StateDwell] = deque(maxlen=self.HISTORY_LIMIT)
        # The timing is fixed at construction: the state walk, the dwell of
        # each state and one measurement's duration, summed in walk order.
        settle = int(schedule.settle_periods > 0)
        self._sequence: Tuple[ControllerState, ...] = (
            (ControllerState.SETTLE_X,) * settle
            + (ControllerState.COUNT_X,)
            + (ControllerState.SETTLE_Y,) * settle
            + (ControllerState.COUNT_Y, ControllerState.COMPUTE)
        )
        self._durations: Dict[ControllerState, float] = {
            ControllerState.SETTLE_X: self._periods_seconds(schedule.settle_periods),
            ControllerState.COUNT_X: self._periods_seconds(schedule.count_periods),
            ControllerState.SETTLE_Y: self._periods_seconds(schedule.settle_periods),
            ControllerState.COUNT_Y: self._periods_seconds(schedule.count_periods),
            ControllerState.COMPUTE: cordic_iterations / clock_hz,
        }
        self._measurement_duration = sum(
            self._durations[state] for state in self._sequence
        )
        self._walk = tuple((state, self._durations[state]) for state in self._sequence)

    # -- timing ---------------------------------------------------------------

    def _periods_seconds(self, n_periods: int) -> float:
        return n_periods / self.excitation_frequency_hz

    def state_duration(self, state: ControllerState) -> float:
        """Dwell time of each state in one measurement [s]."""
        if state not in self._durations:
            raise ProtocolError(f"state {state} has no fixed duration")
        return self._durations[state]

    @property
    def measurement_sequence(self) -> Tuple[ControllerState, ...]:
        """The state walk of one heading measurement (IDLE excluded)."""
        return self._sequence

    # -- execution ----------------------------------------------------------------

    def enables(self) -> EnableSignals:
        """Current enable outputs."""
        return _STATE_ENABLES[self.state]

    def run_measurement(self) -> List[StateDwell]:
        """Walk one full measurement and record the dwell history.

        Returns the dwells of this measurement; the most recent dwells are
        kept on :attr:`history` for duty-cycle analysis across a session.
        """
        if self.state is not ControllerState.IDLE:
            raise ProtocolError(
                f"measurement started while controller in {self.state}"
            )
        dwells = [StateDwell(state, duration) for state, duration in self._walk]
        self.state = ControllerState.IDLE
        self.history.extend(dwells)
        return dwells

    def measurement_duration(self) -> float:
        """Active time of one measurement [s]."""
        return self._measurement_duration

    def block_duty_cycles(self, repetition_period: float) -> Dict[str, float]:
        """Fraction of time each gated block is enabled.

        Parameters
        ----------
        repetition_period:
            Time between the starts of consecutive measurements [s]
            (e.g. 1.0 for a once-per-second compass watch).  Must not be
            shorter than the measurement itself.
        """
        total = self.measurement_duration()
        if repetition_period < total:
            raise ProtocolError(
                f"repetition period {repetition_period} s shorter than one "
                f"measurement ({total:.6f} s)"
            )
        on_time = {"analog_front_end": 0.0, "counter": 0.0, "cordic": 0.0}
        for state in self.measurement_sequence:
            enables = _STATE_ENABLES[state]
            duration = self.state_duration(state)
            if enables.analog_front_end:
                on_time["analog_front_end"] += duration
            if enables.counter:
                on_time["counter"] += duration
            if enables.cordic:
                on_time["cordic"] += duration
        return {name: t / repetition_period for name, t in on_time.items()}
