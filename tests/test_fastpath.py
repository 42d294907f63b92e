"""Tests for the closed-form analog fast path (`repro.analog.fastpath`).

The contract under test: with ``FrontEndConfig(fastpath=True)`` the
compass either (a) uses the closed form and agrees with the stepped
engine to well below one grid tick — in practice bit-identical counts
and headings — or (b) silently falls back to the stepped engine, with
*identical* results, whenever noise, an armed analog fault, a non-tanh
core, or the field-dependent validity envelope makes the algebra
inexact.  Enabling the fast path must never change what is measured.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.analog import fastpath
from repro.analog.frontend import AnalogFrontEnd, FrontEndConfig
from repro.batch.engine import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.faults.model import REGISTRY
from repro.physics.noise import NoiseBudget
from repro.replay import (
    LogRecorder,
    attach_recorder,
    reader_from_records,
    require_conformance,
    run_conformance,
)
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import IDEAL_TARGET
from repro.simulation.engine import TimeGrid

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "compass_vectors.json"
GOLDEN_META = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["meta"]

FAST_CONFIG = CompassConfig(front_end=FrontEndConfig(fastpath=True))


def fast_compass():
    return IntegratedCompass(
        CompassConfig(front_end=FrontEndConfig(fastpath=True))
    )


@pytest.fixture
def front_end():
    return AnalogFrontEnd()


@pytest.fixture
def sensor():
    return FluxgateSensor(IDEAL_TARGET)


@pytest.fixture
def grid(front_end):
    osc = front_end.excitation.oscillator.params
    return TimeGrid(frequency_hz=osc.frequency_hz, n_periods=9)


def solve_one(front_end, sensor, h_external, grid):
    """The closed form on one row (``None`` outside the envelope)."""
    rows = fastpath.solve_channel_batch(
        front_end, sensor, "x", np.array([h_external]), grid
    )
    return None if rows is None else rows[0]


def measurement_key(m):
    return (m.x_count, m.y_count, m.heading_deg, m.field_estimate_a_per_m)


class TestEligibility:
    def test_default_configuration_is_eligible(self, front_end, sensor):
        assert fastpath.ineligibility_reason(front_end, sensor) is None

    def test_noise_budget_refused(self, sensor):
        fe = AnalogFrontEnd(
            FrontEndConfig(noise=NoiseBudget(white_density=20e-9))
        )
        assert fastpath.ineligibility_reason(fe, sensor) == "noise-budget"

    @pytest.mark.parametrize("core_model", ["piecewise", "jiles-atherton"])
    def test_non_tanh_core_refused(self, front_end, core_model):
        sensor = FluxgateSensor(IDEAL_TARGET, core_model=core_model)
        assert fastpath.ineligibility_reason(front_end, sensor) == "core-model"

    def test_armed_analog_fault_refused(self, sensor):
        compass = fast_compass()
        fe = compass.front_end
        assert fastpath.ineligibility_reason(fe, sensor) is None
        with REGISTRY.inject("analog.amplifier_offset", compass, 0.0002):
            assert fastpath.ineligibility_reason(fe, sensor) == "armed-fault"
        assert fastpath.ineligibility_reason(fe, sensor) is None

    def test_stuck_comparator_fault_refused(self, sensor):
        compass = fast_compass()
        fe = compass.front_end
        with REGISTRY.inject("analog.stuck_comparator", compass, 1.0):
            assert fastpath.ineligibility_reason(fe, sensor) == "armed-fault"


class TestClosedFormEdges:
    """The solver's edge stream vs the stepped engine's, edge by edge."""

    @pytest.mark.parametrize("h_external", [0.0, 10.0, 25.0, 40.0, 51.7, -51.7])
    def test_edges_agree_sub_tick(self, front_end, sensor, grid, h_external):
        fast = solve_one(front_end, sensor, h_external, grid)
        assert fast is not None
        stepped = front_end.measure_channel(
            sensor, "x", h_external, grid
        ).detector_output
        assert fast.initial_value == stepped.initial_value == 0
        assert fast.window == stepped.window
        assert [e.value for e in fast.edges] == [e.value for e in stepped.edges]
        worst = max(
            abs(a.time - b.time) for a, b in zip(fast.edges, stepped.edges)
        )
        # One grid tick is the certification bound; the curvature-
        # corrected algebra actually lands ~30 ps (≈0.001 ticks).
        assert worst < 0.05 * grid.dt

    def test_out_of_envelope_field_refused(self, front_end, sensor, grid):
        # 60 A/m pushes the release crossing into the apex guard band.
        assert solve_one(front_end, sensor, 60.0, grid) is None

    def test_batch_rows_match_scalar_solver(self, front_end, sensor, grid):
        fields = np.array([-40.0, -10.0, 0.0, 25.0, 51.0])
        batch = fastpath.solve_channel_batch(front_end, sensor, "x", fields, grid)
        assert batch is not None and len(batch) == fields.size
        for h, row in zip(fields, batch):
            single = solve_one(front_end, sensor, h, grid)
            assert [(e.time, e.value) for e in row.edges] == [
                (e.time, e.value) for e in single.edges
            ]

    def test_batch_refuses_whole_batch_on_one_bad_row(
        self, front_end, sensor, grid
    ):
        fields = np.array([0.0, 25.0, 60.0])  # last row out of envelope
        assert (
            fastpath.solve_channel_batch(front_end, sensor, "x", fields, grid)
            is None
        )


class TestFrontEndRouting:
    def test_fastpath_measurement_skips_waveforms(self, sensor, grid):
        fe = AnalogFrontEnd(FrontEndConfig(fastpath=True))
        m = fe.measure_channel(sensor, "x", 30.0, grid)
        assert m.waveforms is None and m.amplified_pickup is None
        assert fe.fastpath_stats.used == 1
        ref = AnalogFrontEnd().measure_channel(sensor, "x", 30.0, grid)
        worst = max(
            abs(a.time - b.time)
            for a, b in zip(m.detector_output.edges, ref.detector_output.edges)
        )
        assert worst < 0.05 * grid.dt

    def test_envelope_fallback_is_silent_and_identical(self, sensor, grid):
        fe = AnalogFrontEnd(FrontEndConfig(fastpath=True))
        m = fe.measure_channel(sensor, "x", 60.0, grid)
        ref = AnalogFrontEnd().measure_channel(sensor, "x", 60.0, grid)
        assert m.waveforms is not None  # stepped engine ran
        assert [(e.time, e.value) for e in m.detector_output.edges] == [
            (e.time, e.value) for e in ref.detector_output.edges
        ]
        assert fe.fastpath_stats.fallbacks == {"validity-envelope": 1}

    def test_default_config_never_attempts_fastpath(self, sensor, grid):
        fe = AnalogFrontEnd()
        fe.measure_channel(sensor, "x", 30.0, grid)
        assert fe.fastpath_stats.attempted == 0


class TestCompassEquivalence:
    FIELDS_UT = (25.0, 50.0, 65.0)

    def test_headings_bit_identical_across_fields(self):
        stepped = IntegratedCompass()
        fast = fast_compass()
        for field_ut in self.FIELDS_UT:
            for heading in (0.5, 77.0, 138.0, 221.5, 305.0):
                a = stepped.measure_heading(heading, field_ut * 1e-6)
                b = fast.measure_heading(heading, field_ut * 1e-6)
                assert measurement_key(a) == measurement_key(b)
        stats = fast.front_end.fastpath_stats
        assert stats.used == stats.attempted == 30
        assert stats.fallbacks == {}

    def test_batch_sweep_bit_identical(self):
        headings = np.linspace(0.0, 360.0, 24, endpoint=False)
        fast = BatchCompass(
            CompassConfig(front_end=FrontEndConfig(fastpath=True))
        )
        stepped = BatchCompass()
        out_fast = fast.sweep_headings(headings, 50e-6)
        out_stepped = stepped.sweep_headings(headings, 50e-6)
        for a, b in zip(out_stepped, out_fast):
            assert measurement_key(a) == measurement_key(b)
        stats = fast.compass.front_end.fastpath_stats
        assert stats.used == stats.attempted == 2 * headings.size

    def test_armed_fault_falls_back_to_faulty_stepped_result(self):
        fast = fast_compass()
        stepped = IntegratedCompass()
        with REGISTRY.inject("analog.amplifier_offset", fast, 0.0002):
            a = fast.measure_heading(120.0, 50e-6)
        with REGISTRY.inject("analog.amplifier_offset", stepped, 0.0002):
            b = stepped.measure_heading(120.0, 50e-6)
        assert measurement_key(a) == measurement_key(b)
        assert fast.front_end.fastpath_stats.fallbacks == {"armed-fault": 2}
        # Fault gone -> the fast path resumes.
        fast.measure_heading(10.0, 50e-6)
        assert fast.front_end.fastpath_stats.used == 2

    def test_noisy_budget_falls_back_to_seeded_stepped_result(self):
        noise = NoiseBudget(white_density=20e-9)
        fast = IntegratedCompass(CompassConfig(
            front_end=FrontEndConfig(fastpath=True, noise=noise, noise_seed=7)
        ))
        stepped = IntegratedCompass(CompassConfig(
            front_end=FrontEndConfig(noise=noise, noise_seed=7)
        ))
        a = fast.measure_heading(42.0, 50e-6)
        b = stepped.measure_heading(42.0, 50e-6)
        assert measurement_key(a) == measurement_key(b)
        assert fast.front_end.fastpath_stats.fallbacks == {"noise-budget": 2}

    @pytest.mark.parametrize("core_model", ["piecewise", "jiles-atherton"])
    def test_non_tanh_core_falls_back(self, core_model):
        fast = IntegratedCompass(CompassConfig(
            front_end=FrontEndConfig(fastpath=True), core_model=core_model
        ))
        stepped = IntegratedCompass(CompassConfig(core_model=core_model))
        a = fast.measure_heading(42.0, 50e-6)
        b = stepped.measure_heading(42.0, 50e-6)
        assert measurement_key(a) == measurement_key(b)
        assert fast.front_end.fastpath_stats.fallbacks == {"core-model": 2}


class TestGoldenConformance:
    @pytest.fixture(scope="class")
    def golden_reader(self):
        compass = IntegratedCompass()
        recorder = attach_recorder(compass, LogRecorder())
        for field_ut in GOLDEN_META["field_magnitudes_ut"]:
            for truth in GOLDEN_META["headings_deg"]:
                compass.measure_heading(truth, field_ut * 1e-6)
        return reader_from_records(recorder.header, recorder.records)

    def test_all_48_vectors_conform_on_fastpath(self, golden_reader):
        assert len(golden_reader) == 48
        results = run_conformance(
            golden_reader, paths=("recorded", "scalar", "batch", "fastpath")
        )
        for result in results:
            assert result.clean, result.divergences[0].describe()
        assert require_conformance(results) == 6 * 48
