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

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
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
    ExcitationSettings,
    ExcitationSource,
)
from .fastpath import FastPathStats
from .mux import SensorMultiplexer
from .comparator import PickupAmplifier
from .pulse_detector import DetectorOutput, DetectorParameters, PulsePositionDetector


class ChannelMeasurement:
    """Everything produced by one single-channel front-end run.

    ``detector_output`` is what the digital back-end consumes.  The
    intermediate traces (``waveforms``, ``amplified_pickup``) come from
    the sample path: a sample-path run carries them, a channel-kernel run
    rebuilds them on first read by re-running the sample path on the same
    excitation trace with the same noise draw, and a fast-path solve never
    has any (both ``None``).
    """

    def __init__(
        self,
        channel: str,
        detector_output: DetectorOutput,
        waveforms: Optional[SensorWaveforms] = None,
        amplified_pickup: Optional[Trace] = None,
        rebuild: Optional[Callable[[], Tuple[SensorWaveforms, Trace]]] = None,
    ):
        self.channel = channel
        self.detector_output = detector_output
        self._waveforms = waveforms
        self._amplified_pickup = amplified_pickup
        self._rebuild = rebuild

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

        The measurement runs the channel kernel (:meth:`detect_rows`) as
        a batch of one on the memoised excitation trace — the same
        kernel the batch engine feeds in chunks, bit-identical to the
        sample path.  Sensors the kernel cannot run (see
        :meth:`runs_kernel`) take :meth:`measure_channel_sampled`.

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
        if not self._enabled:
            raise ConfigurationError("front-end is powered down")
        if self.config.fastpath:
            fast = self._measure_channel_fastpath(sensor, channel, h_external, grid)
            if fast is not None:
                return fast
        return self._measure(
            sensor, channel, h_external, grid, self.runs_kernel(sensor)
        )

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
        draw_indices: Optional[Sequence[int]] = None,
    ) -> List[DetectorOutput]:
        """The channel kernel: sensor → amplifier → detector over rows.

        Row ``i`` measures external field ``h_values[i]`` on the shared
        excitation ``entry``; outputs are bit-identical to the sample path
        row by row.  Each stage goes through its batch seam
        (``simulate_batch``, ``amplify_batch``, ``detect_batch``), which
        is also where an armed fault injector sits.  A noisy budget takes
        ``draw_indices`` (one per row) or, when omitted, the next draws
        of the stream in row order — what the sample path would take.
        """
        observer = self.observer
        current = entry.current
        amplifier = self.amplifier
        with observer.span(STAGE_PICKUP, channel=channel):
            pickup = sensor.simulate_batch(current, h_values, entry.gradient)
            if draw_indices is None and not amplifier.budget.is_noiseless:
                base = amplifier.consume_noise_draws(len(h_values))
                draw_indices = range(base, base + len(h_values))
            amplified = amplifier.amplify_batch(
                pickup, current.sample_rate, draw_indices
            )
        with observer.span(STAGE_COMPARATOR, channel=channel) as cmp_span:
            detected = self.detector.detect_batch(amplified, current.t)
            if observer.tracer is not None and len(detected) == 1:
                cmp_span.set(
                    edges=len(detected[0].edges), duty=detected[0].duty_cycle()
                )
        return detected

    def measure_channel_sampled(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h_external: float,
        grid: TimeGrid,
    ) -> ChannelMeasurement:
        """The sample path: one waveform object per stage, kept.

        The reference the channel kernel is proven against, and the route
        for sensors the kernel cannot run (see :meth:`runs_kernel`).
        """
        if not self._enabled:
            raise ConfigurationError("front-end is powered down")
        return self._measure(sensor, channel, h_external, grid, kernel=False)

    def _measure(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h_external: float,
        grid: TimeGrid,
        kernel: bool,
    ) -> ChannelMeasurement:
        """One stepped channel measurement, on the kernel or the sample
        path; both emit the same span tree."""
        observer = self.observer
        with observer.span(
            f"{STAGE_CHANNEL}.{channel}", channel=channel, h_external=h_external
        ) as span:
            self.excitation.select_channel(channel)
            self.multiplexer.select(channel)
            load = sensor.params.series_resistance
            with observer.span(STAGE_EXCITATION, channel=channel) as exc_span:
                if kernel:
                    entry = EXCITATION_MEMO.entry(self.excitation, grid, channel, load)
                    current = entry.current
                else:
                    current = self.excitation.current(grid, channel, load)
                exc_span.set(
                    samples=len(current),
                    frequency_hz=self.excitation.oscillator.params.frequency_hz,
                )
            if kernel:
                amplifier = self.amplifier
                draw = None if amplifier.budget.is_noiseless else amplifier.noise_draws
                (detected,) = self.detect_rows(
                    sensor, channel, entry, np.array([h_external])
                )
                measurement = ChannelMeasurement(
                    channel,
                    detected,
                    rebuild=lambda: self._sample_chain(
                        sensor, current, h_external, draw
                    ),
                )
            else:
                with observer.span(STAGE_PICKUP, channel=channel):
                    waveforms, amplified = self._sample_chain(
                        sensor, current, h_external
                    )
                with observer.span(STAGE_COMPARATOR, channel=channel) as cmp_span:
                    detected = self.detector.detect(amplified)
                    cmp_span.set(
                        edges=len(detected.edges), duty=detected.duty_cycle()
                    )
                measurement = ChannelMeasurement(
                    channel, detected, waveforms, amplified
                )
            if observer.tracer is not None:
                span.set(duty=detected.duty_cycle())
        return measurement

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

    def _measure_channel_fastpath(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h_external: float,
        grid: TimeGrid,
    ) -> Optional[ChannelMeasurement]:
        """Attempt the closed-form solve; ``None`` routes to the stepped path."""
        stats = self.fastpath_stats
        stats.attempted += 1
        reason = fastpath.ineligibility_reason(self, sensor)
        detected: Optional[DetectorOutput] = None
        if reason is None:
            # Keep the multiplexing/power-gating state identical to a
            # stepped measurement — observable via measured_offset etc.
            self.excitation.select_channel(channel)
            self.multiplexer.select(channel)
            detected = fastpath.solve_channel(self, sensor, channel, h_external, grid)
        if detected is None:
            stats.record_fallback(reason or "validity-envelope")
            return None
        stats.used += 1
        observer = self.observer
        with observer.span(
            f"{STAGE_CHANNEL}.{channel}",
            channel=channel,
            h_external=h_external,
            fastpath=True,
        ) as span:
            with observer.span(STAGE_FASTPATH, channel=channel) as fp_span:
                fp_span.set(edges=len(detected.edges))
            span.set(duty=detected.duty_cycle())
        return ChannelMeasurement(channel, detected)
