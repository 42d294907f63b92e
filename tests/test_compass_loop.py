"""One compass loop: a batch is the scalar loop on many rows.

``IntegratedCompass.measure_components`` and
``BatchCompass.measure_components_batch`` both run
``IntegratedCompass.measure_rows``, the first on one row with the
process-wide excitation memo, the second on every row with the engine's
own cache and chunk size.  These tests pin that N rows through the batch
equal N scalar calls bit for bit (measurements, health records, fast-path
routing, noise-stream position), and the per-row degradation rules of
the loop: single-axis fallback row by row, a row with both channels dead
raising where it stands, and one reserved noise draw per channel per row.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analog.frontend import FrontEndConfig
from repro.batch import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.health import HealthConfig
from repro.errors import DegradedOperationError
from repro.faults import REGISTRY
from repro.physics.noise import NOISELESS, NoiseBudget
from repro.replay import (
    LogRecorder,
    attach_recorder,
    reader_from_records,
    require_conformance,
    run_conformance,
)
from repro.replay.format import KIND_FALLBACK

NOISE = NoiseBudget(white_density=20e-9)

#: Saturates one sensor (the measurable range is ±65 A/m at the design
#: point): that channel sees no pulses and fails with a ConfigurationError.
SATURATING = 195.0


def config(core="tanh", fastpath=False, noisy=False, degrade=False):
    # A coarse grid keeps the hysteretic core's sample-by-sample
    # integration fast; the parity contract does not depend on the grid.
    return CompassConfig(
        core_model=core,
        samples_per_period=1024,
        front_end=FrontEndConfig(
            fastpath=fastpath, noise=NOISE if noisy else NOISELESS, noise_seed=3
        ),
        health=HealthConfig(degrade=degrade),
    )


def routing(compass):
    stats = compass.front_end.fastpath_stats
    return (
        stats.attempted,
        stats.used,
        stats.fallbacks,
        compass.front_end.amplifier.noise_draws,
    )


class TestBatchIsTheScalarLoop:
    @settings(max_examples=16, deadline=None)
    @given(
        core=st.sampled_from(["tanh", "jiles-atherton"]),
        fastpath=st.booleans(),
        noisy=st.booleans(),
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=359.9),
                # Up to 55 µT every row stays inside the closed form's
                # validity envelope, so both paths route every row alike.
                st.floats(min_value=25e-6, max_value=55e-6),
            ),
            min_size=1,
            max_size=3,
        ),
        chunk_size=st.integers(min_value=1, max_value=3),
    )
    def test_rows_equal_scalar_calls(self, core, fastpath, noisy, rows, chunk_size):
        design = config(core, fastpath, noisy)
        scalar = IntegratedCompass(design)
        batch = BatchCompass(IntegratedCompass(design), chunk_size=chunk_size)
        fields = [
            scalar.sensors.axis_fields_from_tesla(magnitude, heading)
            for heading, magnitude in rows
        ]
        expected = [scalar.measure_components(h_x, h_y) for h_x, h_y in fields]
        got = batch.measure_components_batch(
            np.array([f[0] for f in fields]), np.array([f[1] for f in fields])
        )
        assert got == expected
        assert routing(batch.compass) == routing(scalar)

    @pytest.mark.parametrize("chunk_size", [1, 2, 12])
    def test_single_axis_rows_degrade_one_by_one(self, chunk_size):
        # A saturated sensor fails its whole kernel chunk; the loop re-runs
        # the chunk row by row so only the saturated rows degrade.
        h_x = np.array([30.0, SATURATING, -12.0, 25.0])
        h_y = np.array([-20.0, -20.0, SATURATING, 31.0])
        design = config(noisy=True, degrade=True)
        scalar = IntegratedCompass(design)
        expected = [scalar.measure_components(x, y) for x, y in zip(h_x, h_y)]
        batch = BatchCompass(IntegratedCompass(design), chunk_size=chunk_size)
        got = batch.measure_components_batch(h_x, h_y)
        assert got == expected
        assert [m.health.fallback for m in got] == [
            None, "single-axis-y", "single-axis-x", None
        ]
        assert routing(batch.compass) == routing(scalar)

    def test_row_with_both_channels_dead_raises_after_earlier_rows(self):
        h_x = np.array([30.0, SATURATING, -12.0])
        h_y = np.array([-20.0, SATURATING, 31.0])
        design = config(degrade=True)

        scalar = IntegratedCompass(design)
        scalar_log = attach_recorder(scalar, LogRecorder())
        scalar.measure_components(h_x[0], h_y[0])
        with pytest.raises(DegradedOperationError, match="both"):
            scalar.measure_components(h_x[1], h_y[1])

        compass = IntegratedCompass(design)
        batch_log = attach_recorder(compass, LogRecorder())
        with pytest.raises(DegradedOperationError, match="both"):
            BatchCompass(compass).measure_components_batch(h_x, h_y)
        # Row 0 was assembled (and recorded) before row 1 raised.
        assert len(batch_log.records) == len(scalar_log.records) == 1
        assert batch_log.records[0].heading_deg == scalar_log.records[0].heading_deg


class TestNoiseDrawRule:
    def test_failed_channel_keeps_its_reserved_draw(self):
        # The open coil fails the x excitation before the amplifier; the
        # row still reserved x's draw, so y takes the same draw a clean
        # twin's y takes and the stream stays aligned afterwards.
        design = config(noisy=True, degrade=True)
        broken, twin = IntegratedCompass(design), IntegratedCompass(design)
        broken.measure_heading(10.0)
        twin.measure_heading(10.0)
        with REGISTRY.inject("sensor.open_excitation_coil", broken, 1.0):
            degraded = broken.measure_heading(45.0)
        clean = twin.measure_heading(45.0)
        assert degraded.health.fallback == "single-axis-y"
        assert (degraded.y_count, degraded.duty_y) == (clean.y_count, clean.duty_y)
        assert broken.front_end.amplifier.noise_draws == 4
        assert twin.front_end.amplifier.noise_draws == 4
        after, after_twin = broken.measure_heading(200.0), twin.measure_heading(200.0)
        assert (after.heading_deg, after.x_count, after.y_count) == (
            after_twin.heading_deg, after_twin.x_count, after_twin.y_count
        )


class TestReplayDiff:
    def test_paths_agree_on_single_axis_records(self):
        compass = IntegratedCompass(CompassConfig(health=HealthConfig(degrade=True)))
        recorder = attach_recorder(compass, LogRecorder())
        for h_x, h_y in ((30.0, -20.0), (SATURATING, -20.0), (-15.0, SATURATING),
                         (10.0, 35.0), (SATURATING, 12.0)):
            compass.measure_components(h_x, h_y)
        reader = reader_from_records(recorder.header, recorder.records)
        kinds = [record.kind for record in reader.records()]
        assert kinds.count(KIND_FALLBACK) == 3
        results = run_conformance(reader, paths=("recorded", "scalar", "batch"))
        for result in results:
            assert result.clean, result.divergences[0].describe()
        assert require_conformance(results) == 3 * len(kinds)
