"""The stepped channel is a batch of one.

``AnalogFrontEnd.measure_channel`` runs anhysteretic sensors through the
channel kernel (``detect_rows``: memoised excitation → ``simulate_batch``
→ ``amplify_batch`` → ``detect_batch``), the same kernel the batch engine
feeds in chunks.  The sample path (``measure_channel_sampled``) is the
reference it must reproduce bit for bit, and the route for everything the
kernel cannot vouch for.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analog.excitation import (
    EXCITATION_MEMO,
    ExcitationMemo,
    _time_gradient,
    time_gradient,
)
from repro.analog.frontend import AnalogFrontEnd, FrontEndConfig
from repro.batch import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.errors import ComplianceError, ConfigurationError
from repro.physics.noise import NoiseBudget
from repro.physics.thermal import compass_config_at_temperature
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import IDEAL_TARGET
from repro.simulation.engine import TimeGrid
from repro.simulation.signals import Trace
from repro.units import EXCITATION_CURRENT_PP

GRID = TimeGrid(4)
NOISY = FrontEndConfig(noise=NoiseBudget(white_density=50e-9), noise_seed=5)
MEASURABLE = FluxgateSensor(IDEAL_TARGET).measurable_field_range(
    EXCITATION_CURRENT_PP / 2.0
)


def edges(measurement):
    out = measurement.detector_output
    return (
        [(e.time, e.value) for e in out.edges],
        out.initial_value,
        out.window,
    )


def sampled(front_end):
    """Force ``front_end`` onto the sample path (the reference)."""
    front_end.runs_kernel = lambda sensor: False
    return front_end


class TestBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        core=st.sampled_from(["tanh", "piecewise"]),
        fraction=st.floats(min_value=-0.95, max_value=0.95),
        noisy=st.booleans(),
        channel=st.sampled_from(["x", "y"]),
    )
    def test_kernel_matches_sample_path(self, core, fraction, noisy, channel):
        config = NOISY if noisy else FrontEndConfig()
        sensor = FluxgateSensor(IDEAL_TARGET, core_model=core)
        h = fraction * MEASURABLE
        kernel_fe = AnalogFrontEnd(config)
        assert kernel_fe.runs_kernel(sensor)
        reference_fe = AnalogFrontEnd(config)
        for _ in range(2):  # the second call takes the second noise draw
            kernel = kernel_fe.measure_channel(sensor, channel, h, GRID)
            reference = reference_fe.measure_channel_sampled(sensor, channel, h, GRID)
            assert edges(kernel) == edges(reference)
        assert kernel_fe.amplifier.noise_draws == reference_fe.amplifier.noise_draws

    @pytest.mark.parametrize("config", [FrontEndConfig(), NOISY], ids=["quiet", "noisy"])
    def test_waveforms_rebuilt_on_read(self, config):
        sensor = FluxgateSensor(IDEAL_TARGET)
        kernel_fe = AnalogFrontEnd(config)
        reference_fe = AnalogFrontEnd(config)
        kernel_fe.measure_channel(sensor, "x", 15.0, GRID)
        reference_fe.measure_channel_sampled(sensor, "x", 15.0, GRID)
        kernel = kernel_fe.measure_channel(sensor, "x", -20.0, GRID)
        reference = reference_fe.measure_channel_sampled(sensor, "x", -20.0, GRID)
        draws = kernel_fe.amplifier.noise_draws
        np.testing.assert_array_equal(
            kernel.amplified_pickup.v, reference.amplified_pickup.v
        )
        np.testing.assert_array_equal(
            kernel.waveforms.pickup_voltage.v, reference.waveforms.pickup_voltage.v
        )
        assert kernel_fe.amplifier.noise_draws == draws  # reading draws nothing

    def test_hysteretic_core_runs_sample_path(self):
        sensor = FluxgateSensor(IDEAL_TARGET, core_model="jiles-atherton")
        front_end = AnalogFrontEnd()
        assert not front_end.runs_kernel(sensor)
        measurement = front_end.measure_channel(sensor, "x", 0.0, GRID)
        assert measurement._rebuild is None and measurement.waveforms is not None


class TestNoiseStream:
    def test_interleaved_scalar_and_batch_keep_draw_order(self):
        config = CompassConfig(front_end=NOISY)
        kernel = IntegratedCompass(config)
        reference = IntegratedCompass(config)
        sampled(reference.front_end)
        results = []
        for compass in (kernel, reference):
            batch = BatchCompass(compass)
            run = [compass.measure_heading(12.0)]
            run += batch.sweep_headings([40.0, 130.0, 250.0])
            run.append(compass.measure_heading(300.0))
            run += batch.sweep_headings([75.0])
            run.append(compass.measure_heading(5.0))
            results.append(
                [(m.heading_deg, m.x_count, m.y_count) for m in run]
            )
        assert results[0] == results[1]
        assert (
            kernel.front_end.amplifier.noise_draws
            == reference.front_end.amplifier.noise_draws
            == 2 * 7
        )


class TestRouting:
    def test_subclass_overriding_only_simulate_runs_sample_path(self):
        class MutedSensor(FluxgateSensor):
            def simulate(self, current, h_external=0.0):
                waves = super().simulate(current, h_external)
                return dataclasses.replace(
                    waves, pickup_voltage=waves.pickup_voltage.scaled(0.0)
                )

        front_end = AnalogFrontEnd()
        sensor = MutedSensor(IDEAL_TARGET)
        assert not front_end.runs_kernel(sensor)
        with pytest.raises(ConfigurationError, match="no pulses"):
            front_end.measure_channel(sensor, "x", 0.0, GRID)

    def test_subclass_overriding_both_twins_runs_kernel(self):
        class ScaledSensor(FluxgateSensor):
            def simulate(self, current, h_external=0.0):
                return super().simulate(current, h_external)

            def simulate_batch(self, current, h_external, gradient=None):
                return super().simulate_batch(current, h_external, gradient)

        assert AnalogFrontEnd().runs_kernel(ScaledSensor(IDEAL_TARGET))

    def test_instance_patch_of_one_twin_runs_sample_path(self):
        front_end = AnalogFrontEnd()
        sensor = FluxgateSensor(IDEAL_TARGET)
        original = front_end.amplifier.amplify
        front_end.amplifier.amplify = lambda signal: original(signal)
        assert not front_end.runs_kernel(sensor)
        front_end.amplifier.amplify_batch = front_end.amplifier.amplify_batch
        assert front_end.runs_kernel(sensor)


def _halved(method):
    """Wrap a trace-returning method so its output is halved."""

    def wrapper(*args):
        trace = method(*args)
        return Trace(trace.t, trace.v * 0.5)

    return wrapper


class TestExcitationMemo:
    @pytest.mark.parametrize("target", ["current", "generate", "drive"])
    def test_instance_patches_bypass_the_memo(self, target):
        front_end = AnalogFrontEnd()
        sensor = FluxgateSensor(IDEAL_TARGET)
        clean = edges(front_end.measure_channel(sensor, "x", 30.0, GRID))
        source = front_end.excitation
        owner = {
            "current": source,
            "generate": source.oscillator,
            "drive": source.converters["x"],
        }[target]
        setattr(owner, target, _halved(getattr(owner, target)))
        try:
            assert not EXCITATION_MEMO.memoizable(source, "x")
            before = (len(EXCITATION_MEMO), EXCITATION_MEMO.hits, EXCITATION_MEMO.misses)
            weak = edges(front_end.measure_channel(sensor, "x", 30.0, GRID))
            after = (len(EXCITATION_MEMO), EXCITATION_MEMO.hits, EXCITATION_MEMO.misses)
        finally:
            delattr(owner, target)
        assert before == after
        # Half the drive halves Ha: the same field moves the duty further.
        assert weak != clean
        assert edges(front_end.measure_channel(sensor, "x", 30.0, GRID)) == clean

    def test_identical_front_ends_share_one_entry(self):
        a, b = AnalogFrontEnd(), AnalogFrontEnd()
        entry = EXCITATION_MEMO.entry(a.excitation, GRID, "x", 100.0)
        assert EXCITATION_MEMO.entry(b.excitation, GRID, "x", 100.0) is entry
        assert not entry.current.v.flags.writeable
        assert time_gradient(GRID) is entry.gradient
        assert entry.current.t is entry.gradient.t  # one time axis per grid

    def test_memo_is_lru_bounded(self):
        memo = ExcitationMemo()
        memo.capacity = 2
        source = AnalogFrontEnd().excitation
        first = memo.entry(source, GRID, "x", 100.0)
        memo.entry(source, GRID, "y", 100.0)
        memo.entry(source, GRID, "x", 100.0)  # refresh: y is now oldest
        memo.entry(source, TimeGrid(5), "x", 100.0)
        assert len(memo) == 2
        assert memo.entry(source, GRID, "x", 100.0) is first
        misses = memo.misses
        memo.entry(source, GRID, "y", 100.0)  # the evicted one
        assert memo.misses == misses + 1

    def test_memo_stays_bounded_across_a_thermal_sweep(self):
        base = CompassConfig()
        # Off-grid temperatures: no other test can have warmed these keys.
        temperatures = np.linspace(-19.7, 69.3, 50)
        misses = EXCITATION_MEMO.misses
        for temperature in temperatures:
            compass = IntegratedCompass(
                compass_config_at_temperature(base, float(temperature))
            )
            compass.measure_heading(33.0)
            assert len(EXCITATION_MEMO) <= EXCITATION_MEMO.capacity
        # Every temperature retunes the oscillator: two new keys each.
        assert EXCITATION_MEMO.misses - misses == 2 * len(temperatures)
        gradients = _time_gradient.cache_info()
        assert gradients.currsize <= gradients.maxsize

    def test_compliance_failure_is_not_memoised(self):
        front_end = AnalogFrontEnd()
        broken = FluxgateSensor(
            dataclasses.replace(IDEAL_TARGET, series_resistance=1e6)
        )
        size = len(EXCITATION_MEMO)
        with pytest.raises(ComplianceError):
            front_end.measure_channel(broken, "x", 0.0, GRID)
        assert len(EXCITATION_MEMO) == size


class TestNoRetainedScratch:
    def test_scalar_measurements_keep_no_scratch(self):
        compass = IntegratedCompass()
        detector = compass.front_end.detector
        pools = (
            compass.sensors.sensor_x._batch_scratch,
            detector.comparator_positive._batch_scratch,
            EXCITATION_MEMO.entry(
                compass.front_end.excitation, compass._channel_grid(), "x",
                compass.sensors.sensor_x.params.series_resistance,
            ).gradient._tmp,
        )
        before = [list(pool) for pool in pools]
        compass.measure_heading(10.0)
        assert [list(pool) for pool in pools] == before

    def test_retired_devices_pin_no_batch_scratch(self):
        batch = BatchCompass()
        batch.sweep_headings([1.0, 2.0, 3.0])
        # The pools live on the kernel classes, not on the device.
        sensor = batch.compass.sensors.sensor_x
        assert "_batch_scratch" not in vars(sensor)
        assert "_batch_scratch" not in vars(batch.compass.front_end.detector.comparator_positive)
