"""Scalar/batch parity on *failure* paths.

The batch engine's contract is bit-identity with the scalar loop on the
clean path; this module pins the other half of the contract: a broken
configuration raises the **same typed error class** whichever engine
drives the front-end, so callers can switch paths without re-learning
failure modes.
"""

import dataclasses

import numpy as np
import pytest

from repro.analog.pulse_detector import DetectorParameters
from repro.batch import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.health import HealthConfig
from repro.errors import ComplianceError, ConfigurationError, ProtocolError
from repro.faults import REGISTRY
from repro.sensors.parameters import IDEAL_TARGET

HEADINGS = (45.0, 222.25)


def _raises_class(callable_):
    try:
        callable_()
    except Exception as exc:  # noqa: BLE001 — we compare exact classes
        return type(exc)
    return None


class TestTypedErrorParity:
    def test_open_coil_raises_compliance_error_on_both_paths(self):
        broken = dataclasses.replace(IDEAL_TARGET, series_resistance=1e6)

        scalar = IntegratedCompass(CompassConfig(sensor=broken))
        scalar_error = _raises_class(lambda: scalar.measure_heading(45.0))

        batch = BatchCompass(IntegratedCompass(CompassConfig(sensor=broken)))
        batch_error = _raises_class(lambda: batch.sweep_headings(HEADINGS))

        assert scalar_error is batch_error is ComplianceError

    def test_blind_detector_raises_configuration_error_on_both_paths(self):
        config = CompassConfig(
            front_end=dataclasses.replace(
                CompassConfig().front_end,
                detector=DetectorParameters(threshold=5.0),
            )
        )

        scalar_error = _raises_class(
            lambda: IntegratedCompass(config).measure_heading(45.0)
        )
        batch_error = _raises_class(
            lambda: BatchCompass(IntegratedCompass(config)).sweep_headings(HEADINGS)
        )

        assert scalar_error is batch_error is ConfigurationError

    def test_zero_field_raises_same_class_on_both_paths(self):
        scalar_error = _raises_class(
            lambda: IntegratedCompass().measure_components(0.0, 0.0)
        )
        batch_error = _raises_class(
            lambda: BatchCompass().measure_components_batch(
                np.zeros(2), np.zeros(2)
            )
        )
        assert scalar_error is batch_error
        assert issubclass(scalar_error, (ProtocolError, ConfigurationError))

    @pytest.mark.parametrize(
        "fault,severity",
        [
            ("digital.cordic_rom_bitflip", 3.0),
            ("digital.counter_stuck_bit", 12.0),
        ],
    )
    def test_injected_fault_raises_same_class_on_both_paths(self, fault, severity):
        # Strict supervision (degrade off): hard health failures raise.
        scalar = IntegratedCompass()
        with REGISTRY.inject(fault, scalar, severity):
            scalar_error = _raises_class(lambda: scalar.measure_heading(45.0))

        shared = IntegratedCompass()
        batch = BatchCompass(shared)
        with REGISTRY.inject(fault, shared, severity):
            batch_error = _raises_class(lambda: batch.sweep_headings(HEADINGS))

        assert scalar_error is batch_error
        assert scalar_error is not None


class TestDegradedParity:
    def test_stale_fallback_flags_identically_on_both_paths(self):
        def build():
            return IntegratedCompass(
                CompassConfig(health=HealthConfig(degrade=True))
            )

        scalar = build()
        scalar.measure_heading(HEADINGS[0])
        with REGISTRY.inject("digital.cordic_rom_bitflip", scalar, 3.0):
            scalar_m = scalar.measure_heading(HEADINGS[1])

        shared = build()
        batch = BatchCompass(shared)
        batch.sweep_headings([HEADINGS[0]])
        with REGISTRY.inject("digital.cordic_rom_bitflip", shared, 3.0):
            (batch_m,) = batch.sweep_headings([HEADINGS[1]])

        assert scalar_m.degraded and batch_m.degraded
        assert scalar_m.health.fallback == batch_m.health.fallback
        assert scalar_m.heading_deg == batch_m.heading_deg
        assert scalar_m.x_count == batch_m.x_count

    @pytest.mark.parametrize(
        "fault,severity",
        [
            ("sensor.shorted_pickup_coil", 0.9),
            ("sensor.shorted_pickup_coil", 1.0),
            ("sensor.axis_gain_mismatch", 0.9),
            ("sensor.open_excitation_coil", 1.0),
        ],
    )
    def test_single_axis_fallback_matches_scalar_loop(self, fault, severity):
        headings = (HEADINGS[1], 300.0, 10.5)

        def build():
            return IntegratedCompass(
                CompassConfig(health=HealthConfig(degrade=True))
            )

        scalar = build()
        scalar.measure_heading(HEADINGS[0])
        with REGISTRY.inject(fault, scalar, severity):
            scalar_ms = [scalar.measure_heading(h) for h in headings]

        shared = build()
        batch = BatchCompass(shared, chunk_size=2)
        batch.sweep_headings([HEADINGS[0]])
        with REGISTRY.inject(fault, shared, severity):
            batch_ms = batch.sweep_headings(headings)

        assert batch_ms == scalar_ms
        assert [m.health.fallback for m in batch_ms] == ["single-axis-y"] * 3
        assert [m.health.stale_measurements for m in batch_ms] == [1, 2, 3]
