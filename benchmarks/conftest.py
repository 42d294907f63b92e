"""Shared helpers for the experiment benches.

Each bench regenerates one figure/claim of the paper (see DESIGN.md §4
for the experiment index) and prints the rows/series the paper reports.
Run with output visible:

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

from repro.core.compass import IntegratedCompass


def emit(experiment_id: str, lines) -> None:
    """Print one experiment's table with a recognisable banner."""
    banner = f"===== {experiment_id} " + "=" * max(1, 60 - len(experiment_id))
    print()
    print(banner)
    if isinstance(lines, str):
        lines = lines.splitlines()
    for line in lines:
        print(line)
    print("=" * len(banner))


def sample_path_sweep(headings, field_magnitude_t, config=None):
    """The sample-path reference loop: the stepped baseline of the speed
    gates.

    Per heading it runs ``AnalogFrontEnd.measure_channel_sampled`` for x
    and y (one waveform object per stage, nothing memoised) and then
    ``IntegratedCompass.assemble_measurement`` — the same bits as the
    compass loop, computed the slow way.
    """
    compass = IntegratedCompass(config)
    front_end, sensors = compass.front_end, compass.sensors
    grid = compass._channel_grid()
    t0, t1 = grid.window()
    window = (t0 + compass.config.schedule.settle_periods * grid.period, t1)
    measurements = []
    for heading in headings:
        h_x, h_y = sensors.axis_fields_from_tesla(field_magnitude_t, heading)
        x = front_end.measure_channel_sampled(sensors.sensor_x, "x", h_x, grid)
        y = front_end.measure_channel_sampled(sensors.sensor_y, "y", h_y, grid)
        measurements.append(
            compass.assemble_measurement(
                x.detector_output, y.detector_output, window
            )
        )
    return measurements


def max_count_divergence(runs, reference):
    """Largest |count difference| of any run against ``reference``."""
    return max(
        max(abs(m.x_count - r.x_count), abs(m.y_count - r.y_count))
        for run in runs
        for m, r in zip(run, reference)
    )


def headings_identical(runs, reference):
    return all(
        m.heading_deg == r.heading_deg
        for run in runs
        for m, r in zip(run, reference)
    )
