"""The complete analogue front-end of Figure 1.

"The system comprises of a analogue front-end which excites the sensors
with a triangular waveform and converts the resulting sensor output to
measurable digital signals."

One :class:`AnalogFrontEnd` owns the excitation source, the pickup
amplifier and the pulse-position detector, and runs a single-channel
measurement: grid in, detector edges (and, on request, the intermediate
waveforms) out.  The digital back-end never touches anything in this module except
the :class:`~repro.analog.pulse_detector.DetectorOutput` — exactly the
"very simple communication between the analogue and digital part" the
pulse-position method was chosen for (§2.1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, FaultError, ReproError
from ..observe import DISABLED, Observer
from ..observe.trace import (
    STAGE_CHANNEL,
    STAGE_COMPARATOR,
    STAGE_EXCITATION,
    STAGE_FASTPATH,
    STAGE_PICKUP,
)
from ..physics.noise import NoiseBudget, NOISELESS
from ..sensors.fluxgate import FluxgateSensor, SensorWaveforms
from ..simulation.engine import TimeGrid
from ..simulation.signals import Trace
from . import fastpath
from .excitation import (
    EXCITATION_MEMO,
    ExcitationEntry,
    ExcitationMemo,
    ExcitationSettings,
    ExcitationSource,
)
from .fastpath import FastPathStats
from .mux import SensorMultiplexer
from .comparator import PickupAmplifier
from .pulse_detector import (
    DetectorOutput,
    DetectorParameters,
    EdgeMatrix,
    PulsePositionDetector,
)


class ChannelMeasurement:
    """Everything produced by one single-channel front-end run.

    ``detector_output`` is what the digital back-end consumes.  A
    fast-path solve hands over its :class:`EdgeMatrix` (``edges``) and the
    row instead; the row's :class:`DetectorOutput` is built on first read,
    and the columnar back-end counts the matrix without building it.  The
    intermediate traces (``waveforms``, ``amplified_pickup``) come from
    the sample path: a sample-path run carries them, a channel-kernel run
    rebuilds them on first read by re-running the sample path on the same
    excitation trace with the same noise draw, and a fast-path solve never
    has any (both ``None``).
    """

    def __init__(
        self,
        channel: str,
        detector_output: Optional[DetectorOutput] = None,
        waveforms: Optional[SensorWaveforms] = None,
        amplified_pickup: Optional[Trace] = None,
        rebuild: Optional[Callable[[], Tuple[SensorWaveforms, Trace]]] = None,
        edges: Optional[EdgeMatrix] = None,
        row: int = 0,
    ):
        self.channel = channel
        self._detector_output = detector_output
        self._waveforms = waveforms
        self._amplified_pickup = amplified_pickup
        self._rebuild = rebuild
        self.edges = edges
        self.row = row

    @property
    def detector_output(self) -> DetectorOutput:
        if self._detector_output is None:
            self._detector_output = self.edges[self.row]
        return self._detector_output

    def _materialise(self) -> None:
        if self._rebuild is not None:
            self._waveforms, self._amplified_pickup = self._rebuild()
            self._rebuild = None

    @property
    def waveforms(self) -> Optional[SensorWaveforms]:
        self._materialise()
        return self._waveforms

    @property
    def amplified_pickup(self) -> Optional[Trace]:
        self._materialise()
        return self._amplified_pickup

    @property
    def duty_cycle(self) -> float:
        return self.detector_output.duty_cycle()


def _owner(cls: type, name: str) -> Optional[type]:
    """The class in ``cls``'s MRO that defines ``name`` (or ``None``)."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


def _twins_diverge(obj: object, scalar: str, batch: str) -> bool:
    """True when one of a scalar/batch method pair is replaced without
    the other, so the batch method no longer computes what the scalar
    one does.

    Fault injectors arm by planting wrappers of *both* twins in the
    instance ``__dict__``; a subclass that overrides both keeps them in
    step.  Overriding (or lacking) only one — a duck-typed sensor, a
    subclass that only overrides ``simulate`` — diverges.
    """
    patched = vars(obj) if hasattr(obj, "__dict__") else {}
    if (scalar in patched) != (batch in patched):
        return True
    if scalar in patched:
        return False
    owner = _owner(type(obj), scalar)
    return owner is None or owner is not _owner(type(obj), batch)


@dataclass(frozen=True)
class FrontEndConfig:
    """Front-end configuration knobs gathered in one place.

    ``fastpath`` opts in to the closed-form pulse-timing solver
    (:mod:`repro.analog.fastpath`): noiseless measurements on the tanh
    core skip the sampled simulation entirely and compute the comparator
    edge times algebraically, falling back to the stepped engine
    whenever the closed form would not apply.  Default off — the stepped
    path stays bit-identical to previous releases.
    """

    excitation: ExcitationSettings = field(default_factory=ExcitationSettings)
    detector: DetectorParameters = field(default_factory=DetectorParameters)
    amplifier_gain: float = 100.0
    noise: NoiseBudget = NOISELESS
    noise_seed: int = 0
    fastpath: bool = False


class AnalogFrontEnd:
    """Excitation source + pickup amplifier + pulse-position detector."""

    def __init__(self, config: Optional[FrontEndConfig] = None):
        config = FrontEndConfig() if config is None else config
        self.config = config
        self.excitation = ExcitationSource(config.excitation)
        self.amplifier = PickupAmplifier(
            gain=config.amplifier_gain,
            budget=config.noise,
            seed=config.noise_seed,
        )
        self.detector = PulsePositionDetector(config.detector)
        self.multiplexer = SensorMultiplexer()
        self._enabled = True
        #: Routing decisions of the opt-in fast path (attempts, uses,
        #: fallback reasons) — a test and debugging aid.
        self.fastpath_stats = FastPathStats()
        #: Set by the owning compass; DISABLED means every span/metric
        #: call below is a no-op costing one attribute check.
        self.observer: Observer = DISABLED

    # -- power gating ---------------------------------------------------------

    def enable(self) -> None:
        self._enabled = True
        self.excitation.enable()

    def disable(self) -> None:
        self._enabled = False
        self.excitation.disable()

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- measurement ------------------------------------------------------------

    def measure_channel(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h_external: float,
        grid: TimeGrid,
    ) -> ChannelMeasurement:
        """Excite one sensor and detect its pulse positions.

        The channel router (:meth:`measure_channel_rows`) on one row with
        the process-wide excitation memo: the closed form when opted in
        and valid, else the channel kernel (:meth:`detect_rows`) as a
        batch of one — the kernel the batch engine feeds in chunks,
        bit-identical to the sample path.  Sensors the kernel cannot run
        (see :meth:`runs_kernel`) take the sample path.

        Parameters
        ----------
        sensor:
            The fluxgate on this channel.
        channel:
            ``"x"`` or ``"y"`` — selects which V-I converter is enabled.
        h_external:
            External field along the sensor axis [A/m].
        grid:
            Excitation time grid (integer number of periods).
        """
        (measurement,) = self.measure_channel_rows(
            sensor, channel, np.array([h_external], dtype=float), grid
        )
        return measurement

    def measure_channel_sampled(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h_external: float,
        grid: TimeGrid,
    ) -> ChannelMeasurement:
        """The sample path: one waveform object per stage, kept.

        The reference the channel kernel and the closed form are proven
        against.
        """
        (measurement,) = self.measure_channel_rows(
            sensor, channel, np.array([h_external], dtype=float), grid,
            sampled=True,
        )
        return measurement

    def measure_channel_rows(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h_values: np.ndarray,
        grid: TimeGrid,
        memo: ExcitationMemo = EXCITATION_MEMO,
        chunk_size: int = 1,
        draw_indices: Optional[Sequence[int]] = None,
        degrade: bool = False,
        sampled: bool = False,
    ) -> List[Union[ChannelMeasurement, ReproError]]:
        """The channel router: one channel's rows through the front end.

        Row ``i`` measures external field ``h_values[i]``.  With
        ``FrontEndConfig.fastpath`` the closed form solves every row, or
        none: if the device is ineligible or any row leaves the validity
        envelope, the whole call takes the stepped engine.  That runs the
        channel kernel (:meth:`detect_rows`) ``chunk_size`` rows at a time
        on ``memo``'s excitation trace.  Sensors the kernel cannot run
        (see :meth:`runs_kernel`), and every row when ``sampled`` is set,
        take the sample path one row at a time.

        A noisy budget takes ``draw_indices`` (one per row) or, when
        omitted, reserves the next draws of the stream up front.  The
        indices are explicit, so a re-run row is bit-identical: with
        ``degrade`` a chunk that raises a non-fault
        :class:`~repro.errors.ReproError` is re-run row by row, and a row
        that still fails holds its error in place of a measurement.
        """
        if not self._enabled:
            raise ConfigurationError("front-end is powered down")
        rows = int(h_values.size)
        amplifier = self.amplifier
        if draw_indices is None and not amplifier.budget.is_noiseless:
            base = amplifier.consume_noise_draws(rows)
            draw_indices = range(base, base + rows)
        observer = self.observer
        where = {"h_external": float(h_values[0])} if rows == 1 else {"rows": rows}
        with observer.span(
            f"{STAGE_CHANNEL}.{channel}", channel=channel, **where
        ) as span:
            self.excitation.select_channel(channel)
            self.multiplexer.select(channel)
            measured = None
            if self.config.fastpath and not sampled:
                measured = self._solve_rows(sensor, channel, h_values, grid)
                if measured is not None:
                    span.set(fastpath=True)
            if measured is None:
                measured = self._step_rows(
                    sensor, channel, h_values, grid, memo,
                    chunk_size, draw_indices, degrade, sampled,
                )
            if observer.tracer is not None and rows == 1:
                first = measured[0]
                if isinstance(first, ChannelMeasurement):
                    span.set(duty=first.duty_cycle)
        return measured

    def runs_kernel(self, sensor: FluxgateSensor) -> bool:
        """Whether ``sensor`` measures through :meth:`detect_rows`.

        Yes for anhysteretic sensors whose every batch seam (sensor,
        core, amplifier, detector, comparators) still computes what its
        scalar twin does.  Hysteretic cores integrate sample by sample
        and duck-typed or half-overridden blocks define only the scalar
        behaviour, so those run :meth:`measure_channel_sampled`.
        """
        core = getattr(sensor, "core", None)
        detector = self.detector
        return not (
            core is None
            or core.is_hysteretic
            or _twins_diverge(sensor, "simulate", "simulate_batch")
            or _twins_diverge(core, "flux_density", "flux_density_into")
            or _twins_diverge(self.amplifier, "amplify", "amplify_batch")
            or _twins_diverge(detector, "detect", "detect_batch")
            or _twins_diverge(
                detector.comparator_positive, "falling_edges", "falling_edges_batch"
            )
            or _twins_diverge(
                detector.comparator_negative, "falling_edges", "falling_edges_batch"
            )
        )

    def detect_rows(
        self,
        sensor: FluxgateSensor,
        channel: str,
        entry: ExcitationEntry,
        h_values: np.ndarray,
        draw_indices: Sequence[Optional[int]],
    ) -> List[DetectorOutput]:
        """The channel kernel: sensor → amplifier → detector over rows.

        Row ``i`` measures external field ``h_values[i]`` on the shared
        excitation ``entry``; outputs are bit-identical to the sample path
        row by row.  Each stage goes through its batch seam
        (``simulate_batch``, ``amplify_batch``, ``detect_batch``), which
        is also where an armed fault injector sits.  A noisy budget takes
        ``draw_indices``, one per row.
        """
        observer = self.observer
        current = entry.current
        with observer.span(STAGE_PICKUP, channel=channel):
            pickup = sensor.simulate_batch(current, h_values, entry.gradient)
            amplified = self.amplifier.amplify_batch(
                pickup, current.sample_rate, draw_indices
            )
        with observer.span(STAGE_COMPARATOR, channel=channel) as cmp_span:
            detected = self.detector.detect_batch(amplified, current.t)
            if observer.tracer is not None and len(detected) == 1:
                cmp_span.set(
                    edges=len(detected[0].edges), duty=detected[0].duty_cycle()
                )
        return detected

    def _solve_rows(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h_values: np.ndarray,
        grid: TimeGrid,
    ) -> Optional[List[ChannelMeasurement]]:
        """The closed-form solve of every row; ``None`` routes the whole
        call to the stepped engine."""
        stats = self.fastpath_stats
        rows = int(h_values.size)
        stats.attempted += rows
        reason = fastpath.ineligibility_reason(self, sensor)
        solved: Optional[EdgeMatrix] = None
        if reason is None:
            solved = fastpath.solve_channel_batch(self, sensor, channel, h_values, grid)
        if solved is None:
            stats.record_fallback(reason or "validity-envelope", rows)
            return None
        stats.used += rows
        with self.observer.span(STAGE_FASTPATH, channel=channel) as fp_span:
            fp_span.set(edges=int(solved.lengths[0]))
        return [
            ChannelMeasurement(channel, edges=solved, row=row) for row in range(rows)
        ]

    def _step_rows(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h_values: np.ndarray,
        grid: TimeGrid,
        memo: ExcitationMemo,
        chunk_size: int,
        draw_indices: Optional[Sequence[int]],
        degrade: bool,
        sampled: bool,
    ) -> List[Union[ChannelMeasurement, ReproError]]:
        """The stepped engine: the channel kernel, or the sample path."""
        observer = self.observer
        kernel = not sampled and self.runs_kernel(sensor)
        load = sensor.params.series_resistance
        try:
            with observer.span(STAGE_EXCITATION, channel=channel) as exc_span:
                if kernel:
                    entry = memo.entry(self.excitation, grid, channel, load)
                    current = entry.current
                else:
                    current = self.excitation.current(grid, channel, load)
                exc_span.set(
                    samples=len(current),
                    frequency_hz=self.excitation.oscillator.params.frequency_hz,
                )
        except ReproError as exc:
            if not degrade or isinstance(exc, FaultError):
                raise
            return [exc] * int(h_values.size)

        def detect(rows: range) -> List[ChannelMeasurement]:
            h_chunk = h_values[rows.start : rows.stop]
            draws = (
                [None] * len(rows) if draw_indices is None
                else draw_indices[rows.start : rows.stop]
            )
            if kernel:
                detected = self.detect_rows(sensor, channel, entry, h_chunk, draws)
                return [
                    ChannelMeasurement(
                        channel,
                        out,
                        rebuild=functools.partial(
                            self._sample_chain, sensor, current, float(h), draw
                        ),
                    )
                    for out, h, draw in zip(detected, h_chunk, draws)
                ]
            with observer.span(STAGE_PICKUP, channel=channel):
                waveforms, amplified = self._sample_chain(
                    sensor, current, float(h_chunk[0]), draws[0]
                )
            with observer.span(STAGE_COMPARATOR, channel=channel) as cmp_span:
                out = self.detector.detect(amplified)
                cmp_span.set(edges=len(out.edges), duty=out.duty_cycle())
            return [ChannelMeasurement(channel, out, waveforms, amplified)]

        return _detect_chunks(
            detect, range(int(h_values.size)), chunk_size if kernel else 1, degrade
        )

    def _sample_chain(
        self,
        sensor: FluxgateSensor,
        current: Trace,
        h_external: float,
        draw_index: Optional[int] = None,
    ) -> Tuple[SensorWaveforms, Trace]:
        waveforms = sensor.simulate(current, h_external)
        if draw_index is None:
            return waveforms, self.amplifier.amplify(waveforms.pickup_voltage)
        return waveforms, self.amplifier.amplify(
            waveforms.pickup_voltage, draw_index=draw_index
        )


def _detect_chunks(
    detect: Callable[[range], List[ChannelMeasurement]],
    rows: range,
    chunk_size: int,
    degrade: bool,
) -> List[Union[ChannelMeasurement, ReproError]]:
    """``detect`` over ``rows`` in chunks of ``chunk_size``.

    With ``degrade``, a chunk that raises a non-fault ``ReproError`` is
    re-run row by row, and a row that still fails holds its error.
    """
    results: List[Union[ChannelMeasurement, ReproError]] = []
    for start in range(rows.start, rows.stop, chunk_size):
        chunk = range(start, min(start + chunk_size, rows.stop))
        try:
            results += detect(chunk)
        except ReproError as exc:
            if not degrade or isinstance(exc, FaultError):
                raise
            results += [exc] if len(chunk) == 1 else _detect_chunks(
                detect, chunk, 1, degrade
            )
    return results
