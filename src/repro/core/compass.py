"""The integrated compass system — the paper's headline artefact (Figure 1).

:class:`IntegratedCompass` wires together every subsystem exactly as the
block diagram shows: the orthogonal fluxgate pair, the multiplexed
analogue front-end, and the digital back-end (counter → CORDIC → display,
plus the watch).  One call to :meth:`measure_heading` performs the full
closed loop the silicon performs: excite x, count, excite y, count,
compute the arctangent, update the display.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..analog.excitation import EXCITATION_MEMO, ExcitationMemo
from ..analog.frontend import AnalogFrontEnd, ChannelMeasurement, FrontEndConfig
from ..analog.mux import MeasurementSchedule
from ..analog.pulse_detector import DetectorOutput, EdgeMatrix
from ..digital import columnar
from ..digital.backend import DigitalBackEnd
from ..digital.counter import CounterConfig
from ..digital.display import DisplayFrame, DisplayMode
from ..errors import ConfigurationError, DegradedOperationError, FaultError, ReproError
from ..observe import (
    FIELD_BUCKETS_UT,
    HEADING_BUCKETS,
    M_COUNTER_TICKS,
    M_FIELD,
    M_HEADING,
    M_MEASUREMENTS,
    MetricsRegistry,
    Observability,
    build_observer,
)
from ..observe.trace import STAGE_MEASURE
from ..physics.earth_field import FieldVector
from ..sensors.pair import IDEAL_PAIR, OrthogonalSensorPair, PairImperfections
from ..sensors.parameters import FluxgateParameters, IDEAL_TARGET
from ..simulation.engine import TimeGrid
from ..units import CORDIC_ITERATIONS
from .heading import HeadingMeasurement
from .health import ChannelEvidence, HealthConfig, HealthSupervisor

#: Rows from which one compass-loop call runs its digital back-end as
#: array operations (:mod:`repro.digital.columnar`).  Below it the
#: per-row datapath is faster: NumPy's per-call overhead outweighs the
#: Python loop it replaces (docs/signal_chain.md §8).
COLUMNAR_MIN_ROWS = 4


def _record_measurement(
    metrics: MetricsRegistry, measurement: HeadingMeasurement, path: str
) -> None:
    """Account one served measurement in the shared metrics registry."""
    health = measurement.health
    status = "degraded" if (health is not None and health.degraded) else "ok"
    metrics.counter(
        M_MEASUREMENTS,
        "heading measurements served, by path and health status",
        ("path", "status"),
    ).inc(path=path, status=status)
    metrics.histogram(
        M_HEADING,
        "measured headings [deg]",
        ("path",),
        buckets=HEADING_BUCKETS,
    ).observe(measurement.heading_deg, path=path)
    metrics.histogram(
        M_FIELD,
        "field-magnitude estimates [uT]",
        ("path",),
        buckets=FIELD_BUCKETS_UT,
    ).observe(measurement.field_estimate_tesla * 1e6, path=path)


def _edge_matrix(measurements: List[ChannelMeasurement]) -> EdgeMatrix:
    """One channel's rows as an edge matrix: the closed form's own matrix
    (the router solves every row of a call, or none), else the stepped
    rows' detector outputs stacked."""
    matrix = measurements[0].edges
    if matrix is not None and len(matrix) == len(measurements):
        return matrix
    return EdgeMatrix.from_outputs([m.detector_output for m in measurements])


class _ColumnarRows:
    """The array stages of one columnar call: the back-end results, the
    detectors' own duty cycles and, under supervision, each channel's
    health evidence."""

    def __init__(
        self,
        compass: "IntegratedCompass",
        edges_x: EdgeMatrix,
        edges_y: EdgeMatrix,
        count_window: Tuple[float, float],
    ):
        self.back = compass.back_end.process_columns(edges_x, edges_y, count_window)
        served = np.array(self.back.served)
        self.detector_duty = []
        self._features = []
        for edges in (edges_x, edges_y):
            t_start, t_end = edges.windows[:, 0], edges.windows[:, 1]
            # DetectorOutput.duty_cycle refuses an empty window.
            served &= t_end > t_start
            duty = columnar.duty_cycles(edges, t_start, t_end)
            self.detector_duty.append(duty.tolist())
            if compass.supervisor.enabled:
                sets, resets = columnar.edges_in_window(edges, count_window)
                duty = columnar.duty_cycles(edges, *count_window)
                self._features.append((duty.tolist(), sets.tolist(), resets.tolist()))
        #: Rows assembled from these columns; the rest run per row.
        self.served = served.tolist()

    def evidence(self, row: int) -> List[ChannelEvidence]:
        """The row's health evidence, x then y."""
        back = self.back
        return [
            ChannelEvidence(
                count[row], back.total_ticks, duty[row], sets[row], resets[row]
            )
            for count, (duty, sets, resets) in zip(
                (back.x_count, back.y_count), self._features
            )
        ]


@dataclass(frozen=True)
class CompassConfig:
    """Everything configurable about the compass in one record.

    The defaults reproduce the paper's design point: ideal-target sensors,
    tanh (ELDO-style) cores, 12 mA pp / 8 kHz excitation, an 8-period
    counting window per channel, a 16-bit counter at 4.194304 MHz and an
    8-iteration CORDIC.
    """

    sensor: FluxgateParameters = IDEAL_TARGET
    core_model: str = "tanh"
    imperfections: PairImperfections = IDEAL_PAIR
    front_end: FrontEndConfig = field(default_factory=FrontEndConfig)
    schedule: MeasurementSchedule = field(default_factory=MeasurementSchedule)
    counter: CounterConfig = field(default_factory=CounterConfig)
    cordic_iterations: int = CORDIC_ITERATIONS
    samples_per_period: int = TimeGrid.DEFAULT_SAMPLES_PER_PERIOD
    health: HealthConfig = field(default_factory=HealthConfig)
    observe: Observability = field(default_factory=Observability)


class IntegratedCompass:
    """The complete electronic compass of the paper.

    Parameters
    ----------
    config:
        See :class:`CompassConfig`; the default is the paper's design
        point.

    Examples
    --------
    >>> compass = IntegratedCompass()
    >>> m = compass.measure_heading(true_heading_deg=45.0)
    >>> round(m.heading_deg) in (44, 45, 46)
    True
    """

    def __init__(self, config: Optional[CompassConfig] = None):
        config = CompassConfig() if config is None else config
        self.config = config
        self.sensors = OrthogonalSensorPair(
            config.sensor,
            core_model=config.core_model,
            imperfections=config.imperfections,
        )
        self.front_end = AnalogFrontEnd(config.front_end)
        self.back_end = DigitalBackEnd(
            counter_config=config.counter,
            cordic_iterations=config.cordic_iterations,
            schedule=config.schedule,
            excitation_frequency_hz=(
                self.front_end.excitation.oscillator.params.frequency_hz
            ),
        )
        # Observability resolves once here; the front- and back-end share
        # the compass's observer so one measurement is one span tree.
        self.observer = build_observer(config.observe)
        self.front_end.observer = self.observer
        self.back_end.observer = self.observer
        if self.observer.recorder is not None:
            self.observer.recorder.bind(config)
        # The supervisor snapshots its golden references (CORDIC ROM) at
        # build time, so it must be created after the back-end and before
        # any fault can be injected.
        self.supervisor = HealthSupervisor(self, config.health)
        # Fail fast on a sensor the excitation cannot saturate (§2.1.1's
        # measured Kaw95 device) instead of erroring mid-measurement.
        amplitude = config.front_end.excitation.current_amplitude
        if not config.sensor.saturates_with(amplitude):
            raise ConfigurationError(
                f"sensor {config.sensor.name!r} (HK = "
                f"{config.sensor.core.anisotropy_field:.0f} A/m) is not "
                f"saturated by ±{amplitude * 1e3:.1f} mA excitation; "
                "the compass cannot operate (cf. §2.1.1 of the paper)"
            )

    # -- measurement ----------------------------------------------------------

    def _channel_grid(self) -> TimeGrid:
        """Measurement grid, synchronised to the *actual* oscillator rate.

        The control logic derives the counting window from the excitation
        itself (a comparator on the triangle), so a tolerance-shifted
        oscillator still gets an integer number of its own periods — the
        duty-cycle arithmetic stays exact.  Only the counter's crystal
        clock is asynchronous, as in the silicon.
        """
        schedule = self.config.schedule
        return TimeGrid(
            n_periods=schedule.settle_periods + schedule.count_periods,
            samples_per_period=self.config.samples_per_period,
            frequency_hz=self.front_end.excitation.oscillator.params.frequency_hz,
        )

    def measure_components(
        self, h_x: float, h_y: float
    ) -> HeadingMeasurement:
        """Measure from explicit axis field components [A/m].

        The lowest-level entry point: :meth:`measure_rows` on one row,
        with the process-wide excitation memo.
        """
        (measurement,) = self.measure_rows(
            np.array([h_x], dtype=float), np.array([h_y], dtype=float)
        )
        return measurement

    def measure_rows(
        self,
        h_x: np.ndarray,
        h_y: np.ndarray,
        memo: ExcitationMemo = EXCITATION_MEMO,
        chunk_size: int = 1,
        path: str = "scalar",
    ) -> List[HeadingMeasurement]:
        """The compass loop: excite x, count, excite y, count, CORDIC.

        Row ``i`` measures the axis fields ``h_x[i]``/``h_y[i]`` [A/m].
        Each channel's rows go through the front end's router
        (:meth:`AnalogFrontEnd.measure_channel_rows`) on ``memo``'s
        excitation traces, ``chunk_size`` rows per kernel pass; then the
        rows are assembled in order.  Every row reserves one noise draw
        per channel up front (``x0, y0, x1, y1, …``), so the results do
        not depend on how the rows are chunked or split across calls.

        In degrade mode a row whose channel failed is served by the
        supervisor's single-axis fallback; a row where both failed raises
        :class:`DegradedOperationError` once the earlier rows are
        assembled.  ``path`` labels spans, metrics and recorded records:
        a ``"scalar"`` call roots at one ``measure`` span, any other at
        ``batch.sweep`` with one ``measure`` span per row.
        """
        schedule = self.config.schedule
        grid = self._channel_grid()
        settle_time = schedule.settle_periods * grid.period
        t0, t1 = grid.window()
        count_window = (t0 + settle_time, t1)
        self.supervisor.watchdog_guard(grid.n_periods)

        rows = len(h_x)
        front_end = self.front_end
        amplifier = front_end.amplifier
        draws = {"x": None, "y": None}
        if not amplifier.budget.is_noiseless:
            base = amplifier.consume_noise_draws(2 * rows)
            draws = {
                "x": range(base, base + 2 * rows, 2),
                "y": range(base + 1, base + 2 * rows, 2),
            }
        degrade = self.config.health.enabled and self.config.health.degrade
        observer = self.observer
        scalar = path == "scalar"
        if scalar:
            root_span = observer.span(STAGE_MEASURE, path=path)
        else:
            root_span = observer.span(
                "batch.sweep", rows=rows, chunk_size=chunk_size
            )
        with root_span as root:
            front_end.enable()
            try:
                channels = {
                    channel: front_end.measure_channel_rows(
                        sensor, channel, h, grid, memo,
                        chunk_size, draws[channel], degrade,
                    )
                    for channel, sensor, h in (
                        ("x", self.sensors.sensor_x, h_x),
                        ("y", self.sensors.sensor_y, h_y),
                    )
                }
            finally:
                front_end.disable()

            columns = self._columnar_rows(channels, count_window)
            measurements = []
            for row in range(rows):
                if scalar:
                    row_span = contextlib.nullcontext(root)
                else:
                    row_span = observer.span(STAGE_MEASURE, path=path, row=row)
                with row_span as span:
                    if observer.recorder is not None:
                        observer.recorder.on_inputs(float(h_x[row]), float(h_y[row]))
                    if columns is not None and columns.served[row]:
                        measurement = self._assemble_column_row(
                            columns, row, count_window, path
                        )
                    else:
                        measurement = self._assemble_row(
                            {channel: out[row] for channel, out in channels.items()},
                            count_window, path, span,
                        )
                    span.set(heading_deg=measurement.heading_deg)
                measurements.append(measurement)
        return measurements

    def _columnar_rows(
        self,
        channels: Dict[str, List[Union[ChannelMeasurement, ReproError]]],
        count_window: Tuple[float, float],
    ) -> Optional["_ColumnarRows"]:
        """The digital back-end of a multi-row call as array operations,
        or ``None`` to run every row through the per-row datapath.

        Columnar needs at least :data:`COLUMNAR_MIN_ROWS` rows, every
        channel measured (a failed channel takes the per-row single-axis
        fallback), no tracer or replay recorder (their spans and records
        come from the per-row datapath), a back-end that is
        :meth:`DigitalBackEnd.columnar_ready` and no instance-patched
        assembly or review.  Rows the per-row datapath would refuse run
        through it, so it raises its own errors in row order.
        """
        observer = self.observer
        if (
            len(channels["x"]) < COLUMNAR_MIN_ROWS
            or observer.tracer is not None
            or observer.recorder is not None
            or "assemble_measurement" in vars(self)
            or "review" in vars(self.supervisor)
            or not self.back_end.columnar_ready()
            or any(
                isinstance(out, ReproError)
                for outs in channels.values()
                for out in outs
            )
        ):
            return None
        return _ColumnarRows(
            self, _edge_matrix(channels["x"]), _edge_matrix(channels["y"]), count_window
        )

    def _assemble_column_row(
        self,
        columns: "_ColumnarRows",
        row: int,
        count_window: Tuple[float, float],
        path: str,
    ) -> HeadingMeasurement:
        """One row of a columnar call: what :meth:`assemble_measurement`
        does, on the row's precomputed back-end results and health
        evidence.  The health verdict, last-known-good bookkeeping, the
        controller walk and metrics stay per row."""
        back = columns.back
        self.back_end.complete_row(back, row)
        x_count, y_count = back.x_count[row], back.y_count[row]
        ticks = back.total_ticks
        field_estimate = self._field_estimate(x_count, ticks, y_count, ticks)
        health = None
        supervisor = self.supervisor
        if supervisor.enabled:
            try:
                health = supervisor.judge(
                    *columns.evidence(row), count_window, field_estimate
                )
            except FaultError as fault:
                return self._stale_fallback(fault, path, None, count_window)
        measurement = HeadingMeasurement(
            heading_deg=back.heading_deg[row],
            x_count=x_count,
            y_count=y_count,
            duty_x=columns.detector_duty[0][row],
            duty_y=columns.detector_duty[1][row],
            measurement_time_s=self.back_end.controller.measurement_duration(),
            cordic_cycles=back.cordic_cycles,
            field_estimate_a_per_m=field_estimate,
            health=health,
        )
        if supervisor.enabled:
            supervisor.observe(measurement)
        self._record_served(measurement, path, ticks, ticks)
        return measurement

    def _assemble_row(
        self,
        measured: Dict[str, Union[ChannelMeasurement, ReproError]],
        count_window: Tuple[float, float],
        path: str,
        span,
    ) -> HeadingMeasurement:
        """One row's heading from its per-channel results: both channels
        assembled, or the single-axis fallback when one of them failed."""
        failures = {
            channel: result
            for channel, result in measured.items()
            if isinstance(result, ReproError)
        }
        if not failures:
            return self.assemble_measurement(
                measured["x"].detector_output,
                measured["y"].detector_output,
                count_window,
                path=path,
            )
        if len(failures) == 2:
            raise DegradedOperationError(
                "both sensor channels failed — no heading can be "
                f"produced (x: {failures['x']}; y: {failures['y']})"
            ) from failures["x"]
        (dead,) = failures
        alive = "y" if dead == "x" else "x"
        output = measured[alive]
        fallback = self.supervisor.single_axis_fallback(
            alive, output.detector_output, count_window, failures[dead]
        )
        self.supervisor.observe(fallback)
        if self.observer.recorder is not None:
            self.observer.recorder.on_fallback(
                path, {alive: output.detector_output}, count_window, fallback
            )
        span.set(heading_deg=fallback.heading_deg, fallback=True)
        if self.observer.metrics is not None:
            _record_measurement(self.observer.metrics, fallback, path)
        return fallback

    def assemble_measurement(
        self,
        detector_x: DetectorOutput,
        detector_y: DetectorOutput,
        count_window: Tuple[float, float],
        path: str = "scalar",
    ) -> HeadingMeasurement:
        """Digital back-end pass: detector outputs → heading record.

        Shared by the scalar path and :class:`repro.batch.BatchCompass`,
        so both assemble measurements through identical arithmetic;
        ``path`` only labels the spans/metrics this call emits.
        """
        result = self.back_end.process_measurement(
            detector_x,
            detector_y,
            window_x=count_window,
            window_y=count_window,
        )
        x_ticks = result.x_result.total_ticks
        y_ticks = result.y_result.total_ticks
        if x_ticks == 0 or y_ticks == 0:
            raise ConfigurationError(
                "degenerate counting window: zero counter ticks on channel "
                f"{'x' if x_ticks == 0 else 'y'}; widen the window or slow "
                "the measurement schedule"
            )
        field_estimate = self._field_estimate(
            result.x_count, x_ticks, result.y_count, y_ticks
        )
        health = None
        if self.supervisor.enabled:
            try:
                health = self.supervisor.review(
                    result, detector_x, detector_y, count_window, field_estimate
                )
            except FaultError as fault:
                return self._stale_fallback(
                    fault, path, {"x": detector_x, "y": detector_y}, count_window
                )
        measurement = HeadingMeasurement(
            heading_deg=result.heading_deg,
            x_count=result.x_count,
            y_count=result.y_count,
            duty_x=detector_x.duty_cycle(),
            duty_y=detector_y.duty_cycle(),
            measurement_time_s=self.back_end.controller.measurement_duration(),
            cordic_cycles=result.cordic_cycles,
            field_estimate_a_per_m=field_estimate,
            health=health,
        )
        if self.supervisor.enabled:
            self.supervisor.observe(measurement)
        if self.observer.recorder is not None:
            self.observer.recorder.on_measurement(
                path, detector_x, detector_y, count_window, result, measurement
            )
        self._record_served(measurement, path, x_ticks, y_ticks)
        return measurement

    def _field_estimate(
        self, x_count: int, x_ticks: int, y_count: int, y_ticks: int
    ) -> float:
        """|H| [A/m] from the counter pair.

        The counter pair also encodes the field *magnitude*:
        |count| = ticks · |H| / Ha.  The arctangent discards it, but it
        is free diagnostic information (see repro.core.anomaly).  Each
        count is normalised by its *own* channel's tick total — the
        windows may legitimately differ.
        """
        amplitude = self.config.front_end.excitation.current_amplitude
        h_amp = self.config.sensor.excitation_coil_constant * amplitude
        return math.hypot(x_count * h_amp / x_ticks, y_count * h_amp / y_ticks)

    def _stale_fallback(
        self,
        fault: FaultError,
        path: str,
        detectors: Optional[Dict[str, DetectorOutput]],
        count_window: Tuple[float, float],
    ) -> HeadingMeasurement:
        """After a failed health check: strict mode re-raises inside;
        degrade mode substitutes the last-known-good heading with
        staleness metadata."""
        stale = self.supervisor.stale_fallback(fault)
        self.supervisor.observe(stale)
        if self.observer.recorder is not None:
            self.observer.recorder.on_fallback(path, detectors, count_window, stale)
        if self.observer.metrics is not None:
            _record_measurement(self.observer.metrics, stale, path)
        return stale

    def _record_served(
        self, measurement: HeadingMeasurement, path: str, x_ticks: int, y_ticks: int
    ) -> None:
        metrics = self.observer.metrics
        if metrics is not None:
            _record_measurement(metrics, measurement, path)
            ticks = metrics.counter(
                M_COUNTER_TICKS,
                "clock ticks integrated by the up-down counter",
                ("path", "channel"),
            )
            ticks.inc(x_ticks, path=path, channel="x")
            ticks.inc(y_ticks, path=path, channel="y")

    def measure_heading(
        self,
        true_heading_deg: float,
        field_magnitude_t: float = 50.0e-6,
    ) -> HeadingMeasurement:
        """Closed-loop measurement at a known true heading.

        Parameters
        ----------
        true_heading_deg:
            Actual orientation of the compass body, degrees clockwise from
            magnetic north.
        field_magnitude_t:
            Horizontal geomagnetic flux density [T]; the paper's worldwide
            range is 25…65 µT.
        """
        h_x, h_y = self.sensors.axis_fields_from_tesla(
            field_magnitude_t, true_heading_deg
        )
        return self.measure_components(h_x, h_y)

    def measure_in_field(
        self, field: FieldVector, true_heading_deg: float
    ) -> HeadingMeasurement:
        """Measure in a geomagnetic field vector (uses its horizontal part).

        The returned heading is relative to *magnetic* north; add the
        field's declination for geographic north.
        """
        return self.measure_heading(true_heading_deg, field.horizontal)

    # -- watch / display passthroughs ---------------------------------------------

    def set_time(self, hours: int, minutes: int, seconds: int = 0) -> None:
        self.back_end.watch.set_time(hours, minutes, seconds)

    def select_display(self, mode: DisplayMode) -> None:
        self.back_end.display.select_mode(mode)

    def read_display(self) -> DisplayFrame:
        return self.back_end.render_display()

    # -- design introspection -------------------------------------------------------

    def update_rate_hz(self) -> float:
        """Maximum heading update rate [Hz]."""
        return 1.0 / self.back_end.controller.measurement_duration()

    def count_full_scale(self) -> int:
        """Counter value corresponding to the full measurable field."""
        schedule = self.config.schedule
        window = schedule.count_periods / self.front_end.excitation.oscillator.params.frequency_hz
        return self.back_end.counter.count_resolution_ticks(window)
