"""The complete digital back-end of Figure 1 (§4).

Counter + CORDIC + control logic + display + watch, composed exactly as
the block diagram shows: the back-end consumes the two detector outputs
(one per multiplexed channel slot), produces the integer pair (x, y), runs
the arctangent, and hands the result to the display driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..analog.mux import MeasurementSchedule
from ..analog.pulse_detector import DetectorOutput, EdgeMatrix
from ..errors import ProtocolError
from ..observe import DISABLED, Observer
from ..observe.trace import (
    STAGE_BACKEND,
    STAGE_CORDIC,
    STAGE_CORDIC_ITER,
    STAGE_COUNTER,
)
from ..units import CORDIC_ITERATIONS, EXCITATION_FREQUENCY_HZ
from . import columnar
from .control import CompassController
from .cordic import CordicArctan, CordicStep
from .counter import CounterConfig, CountResult, UpDownCounter
from .fixed_point import from_fixed, signed_max, signed_min
from .display import DisplayDriver, DisplayFrame
from .watch import WatchTimekeeper


@dataclass(frozen=True)
class BackEndResult:
    """One complete digital measurement."""

    x_count: int
    y_count: int
    heading_deg: float
    cordic_cycles: int
    x_result: CountResult
    y_result: CountResult
    #: Per-iteration CORDIC state; populated only when a tracer or
    #: replay recorder asked the datapath to record its steps.
    cordic_steps: Tuple[CordicStep, ...] = ()


@dataclass(frozen=True)
class BackEndColumns:
    """:meth:`DigitalBackEnd.process_columns` on the rows of one call.

    Python scalars per row.  ``served[i]`` is false where
    :meth:`DigitalBackEnd.process_measurement` would raise (counter or
    CORDIC register overflow, a count pair below the trust threshold)
    or where the kernels do not apply (unsorted edges); those rows go
    through the per-row datapath instead.
    """

    x_count: List[int]
    y_count: List[int]
    x_high: List[int]
    y_high: List[int]
    x_overflowed: List[bool]
    y_overflowed: List[bool]
    total_ticks: int
    heading_deg: List[float]
    cordic_cycles: int
    served: List[bool]

    def result(self, row: int) -> BackEndResult:
        """Row ``row`` as the record :meth:`process_measurement` returns."""
        total = self.total_ticks
        return BackEndResult(
            x_count=self.x_count[row],
            y_count=self.y_count[row],
            heading_deg=self.heading_deg[row],
            cordic_cycles=self.cordic_cycles,
            x_result=CountResult(
                self.x_count[row], total, self.x_high[row], self.x_overflowed[row]
            ),
            y_result=CountResult(
                self.y_count[row], total, self.y_high[row], self.y_overflowed[row]
            ),
        )


class DigitalBackEnd:
    """Pulse count + arctan + control + watch/display (Figure 1 right)."""

    #: Minimum counter magnitude (on the larger axis) for a heading to be
    #: trusted: below this the counts are dominated by the ±1 window
    #: quantisation and the arctangent would be noise.  16 counts is
    #: ~0.4 % of the default 8-period full scale (≈ 0.3 µT) — far below
    #: any terrestrial operating point.
    MINIMUM_COUNT = 16

    def __init__(
        self,
        counter_config: CounterConfig = CounterConfig(),
        cordic_iterations: int = CORDIC_ITERATIONS,
        schedule: MeasurementSchedule = MeasurementSchedule(),
        excitation_frequency_hz: Optional[float] = None,
    ):
        self.counter = UpDownCounter(counter_config)
        self.cordic = CordicArctan(iterations=cordic_iterations)
        # The sequencer is clocked off the excitation oscillator (a
        # comparator on the triangle wave), so its state durations track
        # the *actual* RC-drifted frequency, not the design constant.
        # That drift is what makes the measurement period usable as an
        # on-chip thermometer (repro.scenario's oscillator cross-check).
        self.controller = CompassController(
            schedule=schedule,
            excitation_frequency_hz=(
                EXCITATION_FREQUENCY_HZ
                if excitation_frequency_hz is None
                else excitation_frequency_hz
            ),
            cordic_iterations=cordic_iterations,
            clock_hz=counter_config.clock_hz,
        )
        self.display = DisplayDriver()
        self.watch = WatchTimekeeper(crystal_hz=counter_config.clock_hz)
        self.schedule = schedule
        # A BackEndResult, or (columns, row) for a row of process_columns,
        # built on first read.
        self._last_result: Union[None, BackEndResult, Tuple[BackEndColumns, int]] = None
        #: Set by the owning compass; DISABLED keeps this path span-free.
        self.observer: Observer = DISABLED

    def process_measurement(
        self,
        detector_x: DetectorOutput,
        detector_y: DetectorOutput,
        window_x: Optional[Tuple[float, float]] = None,
        window_y: Optional[Tuple[float, float]] = None,
    ) -> BackEndResult:
        """Count both channels and compute the heading.

        The controller sequences the power enables; the counter integrates
        each channel over its (settled) window; the CORDIC turns the
        integer pair into a heading.
        """
        observer = self.observer
        tracing = observer.tracer is not None
        record_steps = tracing or observer.recorder is not None
        with observer.span(STAGE_BACKEND):
            self.controller.run_measurement()
            self.counter.enable()
            with observer.span(f"{STAGE_COUNTER}.x", channel="x") as span_x:
                x_result = self.counter.count_window(detector_x, window_x)
                span_x.set(count=x_result.count, ticks=x_result.total_ticks)
            with observer.span(f"{STAGE_COUNTER}.y", channel="y") as span_y:
                y_result = self.counter.count_window(detector_y, window_y)
                span_y.set(count=y_result.count, ticks=y_result.total_ticks)
            self.counter.disable()

            if max(abs(x_result.count), abs(y_result.count)) < self.MINIMUM_COUNT:
                raise ProtocolError(
                    f"field too weak: counter pair ({x_result.count}, "
                    f"{y_result.count}) below the {self.MINIMUM_COUNT}-count "
                    "trust threshold — no heading computed"
                )
            with observer.span(STAGE_CORDIC) as cordic_span:
                cordic_result = self.cordic.arctan_first_quadrant(
                    abs(-y_result.count), abs(x_result.count),
                    record_steps=record_steps,
                )
                heading = self.cordic.fold_heading(
                    cordic_result.angle_deg, x_result.count, y_result.count
                )
                cordic_span.set(
                    iterations=cordic_result.cycles,
                    angle_deg=cordic_result.angle_deg,
                    heading_deg=heading,
                )
                for step in cordic_result.steps:
                    # Retrospective per-iteration spans: the datapath is
                    # combinational, so structure (not wall time) is the
                    # information — residuals sensitise ROM/datapath bugs.
                    with observer.span(
                        f"{STAGE_CORDIC_ITER}.{step.iteration}"
                    ) as it:
                        it.set(
                            shift=step.shift,
                            rotated=step.rotated,
                            residual_y=step.y_reg,
                            x_reg=step.x_reg,
                            angle_fixed=step.angle_fixed,
                        )

        result = BackEndResult(
            x_count=x_result.count,
            y_count=y_result.count,
            heading_deg=heading,
            cordic_cycles=cordic_result.cycles,
            x_result=x_result,
            y_result=y_result,
            cordic_steps=cordic_result.steps,
        )
        self._last_result = result
        return result

    def columnar_ready(self) -> bool:
        """Whether :meth:`process_columns` computes what
        :meth:`process_measurement` would, row for row.

        It does for the stock counter and CORDIC with no instance-patched
        datapath method (digital fault injectors arm that way, e.g.
        ``digital.counter_stuck_bit``), while the registers fit int64.  A
        corrupted ROM word is read live, so it needs no fallback.
        """
        counter, cordic = self.counter, self.cordic
        return (
            type(counter) is UpDownCounter
            and type(cordic) is CordicArctan
            and "process_measurement" not in vars(self)
            and "count_window" not in vars(counter)
            and "arctan_first_quadrant" not in vars(cordic)
            # int64 headroom: a count shifted into the registers, and
            # x_reg after every rotation adds at most the starting y_reg.
            and counter.config.width_bits + cordic.input_scale_bits <= 62
            and (cordic.iterations + 1) << (cordic.register_width - 1) < 1 << 63
        )

    def process_columns(
        self,
        edges_x: EdgeMatrix,
        edges_y: EdgeMatrix,
        window: Tuple[float, float],
    ) -> BackEndColumns:
        """:meth:`process_measurement` on every row of a call at once.

        Both channels are counted over the same ``window``, the count
        pairs go through the CORDIC as int64 arrays
        (:mod:`repro.digital.columnar`), and the quadrant fold runs per
        row.  The per-row side effects — the controller's walk and
        history, the last result — are :meth:`complete_row`'s, in row
        order.  Requires :meth:`columnar_ready` and a non-empty window.
        """
        config = self.counter.config
        t_start, t_end = window
        total = self.counter._ticks_in(t_start, t_end, t_start)
        low, high = signed_min(config.width_bits), signed_max(config.width_bits)
        served = edges_x.sorted_rows() & edges_y.sorted_rows()
        counts, highs, overflows = [], [], []
        for edges in (edges_x, edges_y):
            high_ticks = columnar.high_ticks(edges, window, config.tick)
            count = 2 * high_ticks - total
            overflowed = (count < low) | (count > high)
            if config.strict_overflow:
                served &= ~overflowed
            else:
                span = 1 << config.width_bits
                wrapped = count & (span - 1)
                count = np.where(wrapped > high, wrapped - span, wrapped)
            counts.append(count)
            highs.append(high_ticks.tolist())
            overflows.append(overflowed.tolist())
        x_count, y_count = counts
        served &= np.maximum(np.abs(x_count), np.abs(y_count)) >= self.MINIMUM_COUNT
        angle_fixed, refused = columnar.cordic_angles(
            self.cordic, np.abs(y_count), np.abs(x_count)
        )
        served &= ~refused
        frac_bits = self.cordic.angle_frac_bits
        x_list, y_list = x_count.tolist(), y_count.tolist()
        fold = CordicArctan.fold_heading
        return BackEndColumns(
            x_count=x_list,
            y_count=y_list,
            x_high=highs[0],
            y_high=highs[1],
            x_overflowed=overflows[0],
            y_overflowed=overflows[1],
            total_ticks=total,
            heading_deg=[
                fold(from_fixed(angle, frac_bits), x, y)
                for angle, x, y in zip(angle_fixed.tolist(), x_list, y_list)
            ],
            cordic_cycles=self.cordic.iterations,
            served=served.tolist(),
        )

    def complete_row(self, columns: BackEndColumns, row: int) -> None:
        """The per-row side effects of :meth:`process_measurement` for
        row ``row`` of :meth:`process_columns`: one controller walk, the
        counter powered down, and the row as the last result."""
        self.controller.run_measurement()
        self.counter.disable()
        self._last_result = (columns, row)

    @property
    def last_result(self) -> Optional[BackEndResult]:
        if isinstance(self._last_result, tuple):
            columns, row = self._last_result
            self._last_result = columns.result(row)
        return self._last_result

    def render_display(self) -> DisplayFrame:
        """Render the LCD with the latest heading (or the time)."""
        last = self.last_result
        heading = last.heading_deg if last else 0.0
        return self.display.render(
            heading_deg=heading,
            hours=self.watch.time.hours,
            minutes=self.watch.time.minutes,
            blink_phase=self.watch.blink_phase,
        )
