"""FASTPATH1 — closed-form analog fast path vs the stepped engine.

The fast path (``repro.analog.fastpath``) computes comparator edge times
algebraically instead of simulating ~37k samples per measurement.  This
bench is the record of the contract: it times a full 72-heading
turntable sweep through the sample-path reference loop
(``measure_channel_sampled`` for x and y, then ``assemble_measurement``),
the scalar stepped loop, the scalar fast-path loop, and the batch fast
path, verifies counts and headings are exactly identical, and writes the
result to ``BENCH_fastpath.json`` at the repo root.  The acceptance
floor is a 20x speedup of the scalar fast path over the sample path,
the stepped engine the floor was set against; the scalar stepped loop
runs the channel kernel as a batch of one and is timed for the record.
"""

import json
import time
from pathlib import Path

from conftest import emit, headings_identical, max_count_divergence, sample_path_sweep
from repro.analog.frontend import FrontEndConfig
from repro.batch import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.heading import headings_evenly_spaced

N_HEADINGS = 72
FIELD_T = 50.0e-6
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"


def fast_config():
    return CompassConfig(front_end=FrontEndConfig(fastpath=True))


def run_comparison():
    headings = headings_evenly_spaced(N_HEADINGS, 0.5)
    # Pay the one-off costs (the scipy.signal import) outside every timer.
    sample_path_sweep(headings[:1], FIELD_T)

    t0 = time.perf_counter()
    sampled = sample_path_sweep(headings, FIELD_T)
    sample_path_s = time.perf_counter() - t0

    stepped_compass = IntegratedCompass()
    t0 = time.perf_counter()
    stepped = [
        stepped_compass.measure_heading(h, field_magnitude_t=FIELD_T)
        for h in headings
    ]
    scalar_s = time.perf_counter() - t0

    fast_compass = IntegratedCompass(fast_config())
    t0 = time.perf_counter()
    fast = [
        fast_compass.measure_heading(h, field_magnitude_t=FIELD_T)
        for h in headings
    ]
    fastpath_scalar_s = time.perf_counter() - t0

    fast_batch_compass = BatchCompass(fast_config())
    t0 = time.perf_counter()
    fast_batch = fast_batch_compass.sweep_headings(
        headings, field_magnitude_t=FIELD_T
    )
    fastpath_batch_s = time.perf_counter() - t0

    stats = fast_compass.front_end.fastpath_stats
    return {
        "n_headings": N_HEADINGS,
        "field_magnitude_t": FIELD_T,
        "baseline": "sample path: measure_channel_sampled x, y + assemble_measurement",
        "sample_path_s": round(sample_path_s, 4),
        "scalar_s": round(scalar_s, 4),
        "fastpath_scalar_s": round(fastpath_scalar_s, 4),
        "fastpath_batch_s": round(fastpath_batch_s, 4),
        "speedup_scalar": round(sample_path_s / fastpath_scalar_s, 2),
        "speedup_batch": round(sample_path_s / fastpath_batch_s, 2),
        "stepped_scalar_over_fastpath_scalar": round(scalar_s / fastpath_scalar_s, 2),
        "fastpath_used": stats.used,
        "fastpath_attempted": stats.attempted,
        "fastpath_fallbacks": dict(stats.fallbacks),
        "max_count_divergence": int(
            max_count_divergence([stepped, fast, fast_batch], sampled)
        ),
        "headings_bit_identical": headings_identical(
            [stepped, fast, fast_batch], sampled
        ),
    }


def test_fastpath1_closed_form_speedup(benchmark):
    record = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    rows = [
        f"sample path loop    : {record['sample_path_s']:.3f} s (baseline)",
        f"stepped scalar loop : {record['scalar_s']:.3f} s",
        f"fastpath scalar loop: {record['fastpath_scalar_s']:.3f} s "
        f"({record['speedup_scalar']:.1f}x)",
        f"fastpath batch sweep: {record['fastpath_batch_s']:.3f} s "
        f"({record['speedup_batch']:.1f}x)",
        f"fastpath used       : {record['fastpath_used']}"
        f"/{record['fastpath_attempted']} channel measurements",
        f"count divergence    : {record['max_count_divergence']} "
        "(must be 0 — same bits, just faster)",
        f"record              : {RESULT_PATH.name}",
    ]
    emit("FASTPATH1 closed-form solver vs sample-path engine (72 headings)", rows)

    assert record["max_count_divergence"] == 0
    assert record["headings_bit_identical"]
    assert record["fastpath_used"] == record["fastpath_attempted"] == 2 * N_HEADINGS
    assert record["fastpath_fallbacks"] == {}
    assert record["speedup_scalar"] >= 20.0
