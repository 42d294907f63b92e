"""The complete excitation current source (§3.1).

Composes the triangle oscillator and the two V-I converters into the block
of Figure 1 that feeds the sensors: one oscillator shared by both channels
("only one oscillator is needed" thanks to multiplexing, §2), a converter
per sensor, and the DC-offset correction loop that measures the average of
the excitation current.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Hashable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..simulation.engine import TimeGrid
from ..simulation.signals import TimeGradient, Trace
from ..units import EXCITATION_CURRENT_PP
from .vi_converter import VIConverter, VIConverterParameters
from .waveform import OscillatorParameters, TriangularWaveformGenerator


@dataclass(frozen=True)
class ExcitationSettings:
    """Top-level excitation targets from the paper.

    Attributes
    ----------
    current_pp:
        Target excitation current, peak-to-peak [A] (12 mA, §3.1).
    oscillator:
        Oscillator parameter set.
    converter:
        V-I converter parameter set; its transconductance is derived so
        the oscillator amplitude maps to the target current.
    soft_start_periods:
        Enable transient of the power-gated V-I converter: the output
        envelope ramps from zero over this many excitation periods after
        the channel is enabled.  0 models an ideal instant-on source;
        ~0.5 is realistic for a gated bias network and is the physical
        reason the measurement schedule discards settle periods.
    """

    current_pp: float = EXCITATION_CURRENT_PP
    oscillator: OscillatorParameters = field(default_factory=OscillatorParameters)
    converter: VIConverterParameters = field(default_factory=VIConverterParameters)
    soft_start_periods: float = 0.0

    def __post_init__(self) -> None:
        if self.current_pp <= 0.0:
            raise ConfigurationError("excitation current must be positive")
        if self.soft_start_periods < 0.0:
            raise ConfigurationError("soft start must be non-negative")

    @property
    def current_amplitude(self) -> float:
        """Peak current (half the peak-to-peak) [A]."""
        return self.current_pp / 2.0


class ExcitationSource:
    """Oscillator + two V-I converters + offset correction (Figure 1 left).

    Parameters
    ----------
    settings:
        Electrical targets; the converter transconductance is recomputed
        from the oscillator amplitude so that the triangle's ±amplitude
        maps exactly onto ±current_amplitude.
    """

    CHANNELS = ("x", "y")

    def __init__(self, settings: Optional[ExcitationSettings] = None):
        settings = ExcitationSettings() if settings is None else settings
        gm = settings.current_amplitude / settings.oscillator.amplitude
        converter_params = replace(settings.converter, transconductance=gm)
        self.settings = settings
        self.oscillator = TriangularWaveformGenerator(settings.oscillator)
        self.converters = {name: VIConverter(converter_params) for name in self.CHANNELS}
        self._enabled = True

    # -- power gating --------------------------------------------------------

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False
        for conv in self.converters.values():
            conv.disable()

    @property
    def enabled(self) -> bool:
        return self._enabled

    def select_channel(self, channel: str) -> None:
        """Enable exactly one converter — the multiplexing of §2.

        "The system uses a multiplexing technique by exciting one sensor at
        a time.  This reduces both momental power consumption and chip
        area since only one oscillator is needed."
        """
        if channel not in self.converters:
            raise ConfigurationError(f"unknown channel {channel!r}")
        for name, conv in self.converters.items():
            if name == channel:
                conv.enable()
            else:
                conv.disable()

    # -- signal generation -----------------------------------------------------

    def current(
        self, grid: TimeGrid, channel: str, load_resistance: float
    ) -> Trace:
        """Excitation current delivered to one sensor [A].

        Raises :class:`repro.errors.ComplianceError` if the sensor's series
        resistance exceeds what the 5 V supply can drive (800 Ω at 6 mA).
        """
        if channel not in self.converters:
            raise ConfigurationError(f"unknown channel {channel!r}")
        if not self._enabled:
            triangle = self.oscillator.generate(grid)
            return Trace(triangle.t, triangle.v * 0.0)
        triangle = self.oscillator.generate(grid)
        current = self.converters[channel].drive(triangle, load_resistance)
        soft = self.settings.soft_start_periods
        if soft > 0.0:
            ramp_time = soft / self.oscillator.params.frequency_hz
            envelope = (current.t - current.t[0]) / ramp_time
            envelope = np.clip(envelope, 0.0, 1.0)
            current = Trace(current.t, current.v * envelope)
        return current

    def both_currents(
        self, grid: TimeGrid, load_resistance: float
    ) -> Tuple[Trace, Trace]:
        """Currents of both channels with the current enable state.

        Used by the power bench to contrast multiplexed operation (one
        channel live) with a hypothetical simultaneous-drive design.
        """
        return (
            self.current(grid, "x", load_resistance),
            self.current(grid, "y", load_resistance),
        )

    def measured_offset(self, grid: TimeGrid, channel: str, load_resistance: float) -> float:
        """Average of the excitation current — the §3.1 correction signal [A]."""
        return self.current(grid, channel, load_resistance).mean()


# -- the shared excitation memo -------------------------------------------------


@dataclass(frozen=True)
class ExcitationEntry:
    """One memoised excitation trace plus the ``d/dt`` operator of its axis.

    Both are shared by every front end that keys to them, so their arrays
    are read-only.
    """

    current: Trace
    gradient: TimeGradient


def _grid_key(grid: TimeGrid) -> Tuple:
    return (grid.n_periods, grid.samples_per_period, grid.frequency_hz, grid.t_start)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@functools.lru_cache(maxsize=4)
def _time_gradient(grid_key: Tuple) -> TimeGradient:
    return TimeGradient(_read_only(TimeGrid(*grid_key).times()))


def time_gradient(grid: TimeGrid) -> TimeGradient:
    """The ``d/dt`` operator of ``grid``'s time axis, shared process-wide.

    It depends on the grid alone, so every memo and front end shares one
    per grid (LRU-bounded: a temperature sweep retunes the grid per step).
    """
    return _time_gradient(_grid_key(grid))


class ExcitationMemo:
    """LRU memo of excitation traces, keyed by value.

    The paper multiplexes one oscillator over both sensors (§2), so the
    excitation a sensor sees depends only on the source's parameters, the
    grid, the channel and the sensor's series resistance — never on the
    measurand.  Keying on those *values* (not on a source instance) lets
    every identically configured front end that shares a memo share one
    trace; the bound keeps a temperature sweep, which builds a new
    oscillator per step, from growing memory.

    A source the memo cannot vouch for — a subclassed block, an
    instance-patched ``current``/``generate``/``drive`` (how the fault
    injectors arm), or a powered-down source or converter — bypasses the
    memo and gets a freshly computed, unshared entry.
    """

    #: Entries kept (LRU): both channels of a few configurations.
    capacity = 8

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, ExcitationEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def memoizable(source: ExcitationSource, channel: str) -> bool:
        """Whether ``source``'s output on ``channel`` is a pure function
        of the memo key."""
        converter = source.converters.get(channel)
        return (
            type(source) is ExcitationSource
            and type(source.oscillator) is TriangularWaveformGenerator
            and type(converter) is VIConverter
            and "current" not in vars(source)
            and "generate" not in vars(source.oscillator)
            and "drive" not in vars(converter)
            and source.enabled
            and converter.enabled
        )

    def entry(
        self,
        source: ExcitationSource,
        grid: TimeGrid,
        channel: str,
        load_resistance: float,
    ) -> ExcitationEntry:
        """The excitation trace and gradient for one channel measurement.

        Raises what :meth:`ExcitationSource.current` raises (a compliance
        failure is never memoised).
        """
        if not self.memoizable(source, channel):
            current = source.current(grid, channel, load_resistance)
            return ExcitationEntry(current, TimeGradient(current.t))
        key = (
            source.oscillator.params,
            source.converters[channel].params,
            source.settings.soft_start_periods,
            _grid_key(grid),
            channel,
            load_resistance,
        )
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        current = source.current(grid, channel, load_resistance)
        gradient = time_gradient(grid)
        if np.array_equal(current.t, gradient.t):
            # Share the time axis with the gradient: one copy per grid.
            current = Trace(gradient.t, current.v)
        else:
            gradient = TimeGradient(current.t)
        _read_only(current.v)
        entry = ExcitationEntry(current, gradient)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        return len(self._entries)


#: The memo scalar measurements share across every front end in the
#: process (a batch engine keeps its own, see ``repro.batch``).
EXCITATION_MEMO = ExcitationMemo()
