"""Property-based equivalence: fastpath-enabled compass ≡ stepped compass.

Hypothesis draws headings, field magnitudes and comparator imperfections
(threshold, hysteresis, propagation delay, static offset) and asserts
that enabling the fast path never changes the measurement: either the
closed form is used and agrees within the sub-tick timing tolerance of
:mod:`repro.replay.diff`, or the front end silently falls back to the
stepped engine and the results are bit-identical by construction.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analog import fastpath
from repro.analog.frontend import AnalogFrontEnd, FrontEndConfig
from repro.analog.pulse_detector import DetectorParameters
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.replay import LogRecorder, attach_recorder
from repro.replay.diff import TimingTolerance, diff_records
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import IDEAL_TARGET
from repro.simulation.engine import TimeGrid

headings = st.floats(min_value=0.0, max_value=360.0,
                     allow_nan=False, allow_infinity=False)
# The paper's worldwide horizontal-field range, §1.
fields_ut = st.sampled_from([25.0, 50.0, 65.0])
thresholds = st.floats(min_value=0.08, max_value=0.14)
hysteresis_values = st.floats(min_value=0.02, max_value=0.05)
delays = st.floats(min_value=0.0, max_value=120e-9)
offsets = st.floats(min_value=-0.006, max_value=0.006)


def detector_strategy():
    return st.builds(
        DetectorParameters,
        threshold=thresholds,
        hysteresis=hysteresis_values,
        comparator_delay=delays,
        offset=offsets,
    )


class TestCompassEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(heading=headings, field_ut=fields_ut, detector=detector_strategy())
    def test_fastpath_record_diffs_clean(self, heading, field_ut, detector):
        stepped = IntegratedCompass(CompassConfig(
            front_end=FrontEndConfig(detector=detector)
        ))
        fast = IntegratedCompass(CompassConfig(
            front_end=FrontEndConfig(detector=detector, fastpath=True)
        ))
        rec_stepped = attach_recorder(stepped, LogRecorder())
        rec_fast = attach_recorder(fast, LogRecorder())
        stepped.measure_heading(heading, field_ut * 1e-6)
        fast.measure_heading(heading, field_ut * 1e-6)
        timing = TimingTolerance.sub_tick(rec_stepped.header)
        result = diff_records(
            "scalar", rec_stepped.records,
            "fastpath", rec_fast.records,
            timing=timing,
        )
        assert result.clean, result.divergences[0].describe()


class TestSolverEdgeProperty:
    GRID = TimeGrid(n_periods=9)

    @settings(max_examples=25, deadline=None)
    @given(
        h_external=st.floats(min_value=-52.0, max_value=52.0),
        detector=detector_strategy(),
    )
    def test_edges_within_one_tick_whenever_solver_accepts(
        self, h_external, detector
    ):
        fe = AnalogFrontEnd(FrontEndConfig(detector=detector))
        sensor = FluxgateSensor(IDEAL_TARGET)
        solved = fastpath.solve_channel_batch(
            fe, sensor, "x", np.array([h_external]), self.GRID
        )
        if solved is None:
            return  # outside the drawn envelope: the fallback seam applies
        (fast,) = solved
        stepped = fe.measure_channel(
            sensor, "x", h_external, self.GRID
        ).detector_output
        assert [e.value for e in fast.edges] == [e.value for e in stepped.edges]
        worst = max(
            abs(a.time - b.time) for a, b in zip(fast.edges, stepped.edges)
        )
        assert worst < self.GRID.dt


def _mutations():
    """One edit per value the solve's constants are memoised on."""

    def osc(fe, sensor, grid):
        p = fe.excitation.oscillator.params
        fe.excitation.oscillator.params = dataclasses.replace(
            p, amplitude=0.93 * p.amplitude
        )

    def converter(fe, sensor, grid):
        c = fe.excitation.converters["x"]
        gm = c.params.transconductance
        c.params = dataclasses.replace(c.params, transconductance=0.95 * gm)

    def sensor_params(fe, sensor, grid):
        sensor.params = dataclasses.replace(
            sensor.params, pickup_turns=int(sensor.params.pickup_turns * 1.2)
        )

    def core_params(fe, sensor, grid):
        p = sensor.core.params
        sensor.core.params = dataclasses.replace(
            p, anisotropy_field=1.05 * p.anisotropy_field
        )

    def gain(fe, sensor, grid):
        fe.amplifier.gain *= 1.1

    def bandwidth(fe, sensor, grid):
        fe.amplifier.bandwidth_hz = 0.8 * fe.amplifier.bandwidth_hz

    def comparator(which):
        def edit(fe, sensor, grid):
            c = getattr(fe.detector, which)
            c.params = dataclasses.replace(c.params, delay=c.params.delay + 7e-9)

        return edit

    def grid_edit(fe, sensor, grid):
        return TimeGrid(
            n_periods=grid.n_periods, samples_per_period=2048,
            frequency_hz=grid.frequency_hz,
        )

    def channel(fe, sensor, grid):
        # The y converter differs from x, so solving y must not reuse x.
        c = fe.excitation.converters["y"]
        gm = c.params.transconductance
        c.params = dataclasses.replace(c.params, transconductance=0.9 * gm)
        return grid, "y"

    return {
        "oscillator": osc,
        "converter": converter,
        "sensor": sensor_params,
        "core": core_params,
        "amplifier-gain": gain,
        "amplifier-bandwidth": bandwidth,
        "comparator-positive": comparator("comparator_positive"),
        "comparator-negative": comparator("comparator_negative"),
        "grid": grid_edit,
        "channel": channel,
    }


class TestPlanMemo:
    FIELDS = np.array([-20.0, 5.0, 31.0])

    @staticmethod
    def times(solved):
        return None if solved is None else solved.times.tolist()

    @pytest.mark.parametrize("name", sorted(_mutations()))
    def test_every_keyed_value_changes_the_solve(self, name):
        fe = AnalogFrontEnd(FrontEndConfig())
        sensor = FluxgateSensor(IDEAL_TARGET)
        osc = fe.excitation.oscillator.params
        grid = TimeGrid(n_periods=9, frequency_hz=osc.frequency_hz)
        solve = fastpath.solve_channel_batch
        before = self.times(solve(fe, sensor, "x", self.FIELDS, grid))
        edited = _mutations()[name](fe, sensor, grid)
        channel = "x"
        if isinstance(edited, tuple):
            grid, channel = edited
        elif edited is not None:
            grid = edited
        after = self.times(solve(fe, sensor, channel, self.FIELDS, grid))
        fastpath._plan.cache_clear()
        fresh = self.times(solve(fe, sensor, channel, self.FIELDS, grid))
        assert after == fresh
        assert after != before
