"""SWEEP1 — batch-engine speedup and bit-identity record.

The batch engine (``repro.batch``) exists to make sweep-shaped workloads
— turntable sweeps, magnitude sweeps, Monte-Carlo yield runs — cheap
without changing a single output bit.  This bench is the record of both
halves of that contract for a full 72-heading turntable sweep:

* **speed** — ``BatchCompass.sweep_headings`` is timed against the
  sample-path reference loop (``measure_channel_sampled`` for x and y,
  then ``assemble_measurement``), the stepped baseline the ≥5x floor was
  set against.  The scalar ``measure_heading`` loop is timed too, for the
  record only: it is the same compass loop as the batch, run on one row
  at a time, so it is no baseline for the batch;
* **bits** — the batch's counts and headings must equal both the sample
  path's and the scalar loop's exactly.

The result is written to ``BENCH_sweep.json`` at the repo root.  The
default configuration is noiseless, so every run is deterministic; the
batch side is timed cold (empty excitation cache) and warm (best-of-3
with the cache populated) — a sweep-heavy program pays the cold cost
once.
"""

import json
import time
from pathlib import Path

from conftest import emit, headings_identical, max_count_divergence, sample_path_sweep
from repro.batch import BatchCompass
from repro.core.compass import IntegratedCompass
from repro.core.heading import headings_evenly_spaced

N_HEADINGS = 72
FIELD_T = 50.0e-6
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def run_comparison():
    headings = headings_evenly_spaced(N_HEADINGS, 0.5)
    # Pay the one-off costs (the scipy.signal import) outside every timer.
    sample_path_sweep(headings[:1], FIELD_T)

    t0 = time.perf_counter()
    sampled = sample_path_sweep(headings, FIELD_T)
    sample_path_s = time.perf_counter() - t0

    scalar_compass = IntegratedCompass()
    t0 = time.perf_counter()
    scalar = [
        scalar_compass.measure_heading(h, field_magnitude_t=FIELD_T)
        for h in headings
    ]
    scalar_s = time.perf_counter() - t0

    batch_compass = BatchCompass()
    t0 = time.perf_counter()
    batch = batch_compass.sweep_headings(headings, field_magnitude_t=FIELD_T)
    cold_s = time.perf_counter() - t0

    warm_s = cold_s
    for _ in range(3):
        t0 = time.perf_counter()
        batch = batch_compass.sweep_headings(headings, field_magnitude_t=FIELD_T)
        warm_s = min(warm_s, time.perf_counter() - t0)

    return {
        "n_headings": N_HEADINGS,
        "field_magnitude_t": FIELD_T,
        "chunk_size": batch_compass.chunk_size,
        "baseline": "sample path: measure_channel_sampled x, y + assemble_measurement",
        "sample_path_s": round(sample_path_s, 4),
        "scalar_s": round(scalar_s, 4),
        "batch_cold_s": round(cold_s, 4),
        "batch_warm_s": round(warm_s, 4),
        "speedup_cold": round(sample_path_s / cold_s, 2),
        "speedup_warm": round(sample_path_s / warm_s, 2),
        "scalar_loop_over_batch_warm": round(scalar_s / warm_s, 2),
        "max_count_divergence": int(max_count_divergence([batch, scalar], sampled)),
        "headings_bit_identical": headings_identical([batch, scalar], sampled),
    }


def test_sweep1_batch_speedup(benchmark):
    record = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    rows = [
        f"sample path loop : {record['sample_path_s']:.3f} s (baseline)",
        f"scalar loop      : {record['scalar_s']:.3f} s "
        "(the compass loop, one row per call)",
        f"batch (cold)     : {record['batch_cold_s']:.3f} s "
        f"({record['speedup_cold']:.1f}x)",
        f"batch (warm)     : {record['batch_warm_s']:.3f} s "
        f"({record['speedup_warm']:.1f}x)",
        f"count divergence : {record['max_count_divergence']} "
        "(must be 0 — same bits, just faster)",
        f"record           : {RESULT_PATH.name}",
    ]
    emit("SWEEP1 batch engine vs sample-path loop (72 headings)", rows)

    assert record["max_count_divergence"] == 0
    assert record["headings_bit_identical"]
    assert record["speedup_warm"] >= 5.0
