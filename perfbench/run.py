"""Benchmark of the compass's public entry points.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sweep --seed 11 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

A run sets the workload up several times (``setup_s`` is the median),
calls its entry point for ``--seconds`` of host time, runs the
correctness gate outside the timed calls, prints a table of every
end-to-end figure with its unit and clock, writes a workload record
under ``.perfbench-records/`` and ends with one JSON line.  With
``--trace 0`` that line holds the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced slices (timing
shims installed from :mod:`layers`) and the line holds the per-layer
metrics and ``trace.overhead_frac``.  ``--workload all`` runs every
workload on the default and the held-out seed, each in its own process.

Exit codes: 0 on success, 1 when a correctness check fails (the failed
checks are named on stderr), 2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
RECORDS = ROOT / ".perfbench-records"

#: The seed a plain run uses, and the seed kept back for checking claims.
DEFAULT_SEED = 11
HELD_OUT_SEED = 1997
SETUP_REPEATS = 9
#: Reference blocks run right after each set-up to normalise it.
SETUP_REFERENCE_BLOCKS = 5
#: Calls hashed into the input digest (a fixed prefix of the stream).
DIGEST_CALLS = 32
#: Untraced/traced alternations of a ``--trace 1`` run.
TRACE_SLICES = 8
WORKLOAD_NAMES = ("sweep", "serve", "lot", "survey")
#: End-to-end metrics of the final JSON line, with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "items/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class Phase:
    """Busy time, per-call durations and items of one timed phase."""

    def __init__(self) -> None:
        self.durations: List[float] = []
        self.busy_s = 0.0
        self.items = 0

    def add(self, seconds: float, items: int, is_call: bool = True) -> None:
        if is_call:
            self.durations.append(seconds)
        self.busy_s += seconds
        self.items += items

    @property
    def throughput(self) -> float:
        return self.items / self.busy_s


class Run:
    """State shared by the slices of one run."""

    def __init__(self, speed, rss_calls: int) -> None:
        self.speed = speed
        self.rss_calls = rss_calls
        self.calls = 0
        self.rss_mb: Optional[float] = None

    def note_call(self) -> None:
        self.calls += 1
        if self.calls == self.rss_calls:
            self.rss_mb = peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_slice(workload, state, stream, seconds: float, phase: Phase, run: Run) -> None:
    """Call the entry point until ``seconds`` of wall time have passed.

    Reference blocks run after each call, outside the timed call (see
    :mod:`reference`).  Garbage collection is left to the interpreter, so
    the calls pay for the collections their own allocations trigger.
    """
    end = time.perf_counter() + seconds
    while True:
        call_input = next(stream)
        start = time.perf_counter()
        items, outcome = workload.call(state, call_input)
        elapsed = time.perf_counter() - start
        phase.add(elapsed, items)
        workload.score(state, outcome)
        run.speed.sample(elapsed)
        run.note_call()
        if time.perf_counter() >= end:
            break
    start = time.perf_counter()
    items, outcome = workload.drain(state)
    phase.add(time.perf_counter() - start, items, is_call=False)
    if outcome is not None:
        workload.score(state, outcome)


def input_digest(workload) -> str:
    stream = workload.inputs()
    prefix = [workload.canonical(next(stream)) for _ in range(DIGEST_CALLS)]
    payload = json.dumps(
        {"workload": workload.name, "seed": workload.seed, "inputs": prefix},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def measure(workload, seconds: float, trace: bool, probes):
    """Set up, then run the timed phase; returns what the report needs."""
    from reference import HostSpeed
    from shims import Recorder, ShimSet

    speed = HostSpeed(workload.reference)
    # Set-ups are short, so each is normalised by reference blocks run
    # right after it rather than by the run-wide factor.
    raw_setups, setups = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup()
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * speed.local_factor(SETUP_REFERENCE_BLOCKS))
    # Start timing from the same heap state on every run, and keep the
    # objects set-up left alive out of the collections made while timing,
    # so that the number of set-ups does not change their cost.
    gc.collect()
    gc.freeze()

    stream = workload.inputs()
    untraced, traced = Phase(), Phase()
    recorder = Recorder()
    shims = ShimSet(probes, recorder)
    run = Run(speed, workload.RSS_CALLS)
    if trace:
        for index in range(TRACE_SLICES):
            if index % 2:
                with shims:
                    run_slice(workload, state, stream, seconds / TRACE_SLICES, traced, run)
            else:
                run_slice(workload, state, stream, seconds / TRACE_SLICES, untraced, run)
    else:
        run_slice(workload, state, stream, seconds, untraced, run)
    return state, (raw_setups, setups), untraced, traced, recorder, run


def end_to_end_figures(
    workload, state, setup_times, untraced: Phase, run: Run
) -> Dict[str, Tuple[float, str, str, str]]:
    """Every end-to-end figure: ``name -> (value, unit, clock, note)``."""
    from workloads import percentile

    factor = run.speed.factor
    raw_setups, setups = setup_times
    durations = untraced.durations
    p50, p99 = percentile(durations, 50), percentile(durations, 99)
    beyond = len(durations) - math.ceil(0.99 * len(durations))
    attempted = workload.attempted()
    figures = {
        "setup_s": (
            statistics.median(setups),
            "s",
            "host*",
            f"median of {SETUP_REPEATS} set-ups; raw {statistics.median(raw_setups):.6g} s",
        ),
        "throughput_per_s": (
            untraced.throughput / factor,
            "items/s",
            "host*",
            f"{untraced.items} {workload.item}s in {untraced.busy_s:.3f} s busy; "
            f"raw {untraced.throughput:.6g}/s",
        ),
        "call_p50_ms": (
            p50 * factor * 1e3,
            "ms",
            "host*",
            f"n={len(durations)} calls of {workload.call_name}; raw {p50 * 1e3:.6g} ms",
        ),
        "call_p99_ms": (
            p99 * factor * 1e3,
            "ms",
            "host*",
            f"n={len(durations)}, {beyond} beyond; raw {p99 * 1e3:.6g} ms",
        ),
    }
    for key, (value, unit, clock) in workload.report(state).items():
        figures[key] = (value, unit, clock, "modelled, not measured")
    if workload.scores_headings:
        figures["worst_error_deg"] = (
            workload.worst_error_deg,
            "deg",
            "-",
            "unflagged or authoritative results",
        )
    figures["silent_wrong"] = (workload.silent_wrong, "count", "-", "must be 0")
    figures["failed_frac"] = (
        workload.failed / attempted if attempted else 0.0,
        "ratio",
        "-",
        f"{workload.failed} of {attempted} attempted",
    )
    # Read after a fixed number of calls, so that it does not grow with
    # the calls a faster host completes in the run.
    rss_calls = min(run.calls, run.rss_calls)
    figures["peak_rss_mb"] = (
        peak_rss_mb() if run.rss_mb is None else run.rss_mb,
        "MB",
        "host",
        f"peak resident set after set-up and {rss_calls} calls",
    )
    return figures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from layers import PROBES, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    digest = input_digest(workload)
    state, setup_times, untraced, traced, recorder, run = measure(
        workload, seconds, trace, PROBES
    )
    failures = workload.check(state)
    figures = end_to_end_figures(workload, state, setup_times, untraced, run)
    factor = run.speed.factor
    properties = workload.properties(state)
    if trace:
        overhead = 1.0 - traced.throughput / untraced.throughput
        chosen = layer_metrics(
            recorder,
            traced.items,
            traced.busy_s,
            workload.layer_counts(),
            overhead,
            factor,
        )
    else:
        chosen = {key: (figures[key][0], unit) for key, unit in END_TO_END_UNITS.items()}
    metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in chosen.items()}

    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"  inputs  sha256:{digest} (first {DIGEST_CALLS} calls of the seeded stream)")
    print(
        f"  host*   host time normalised by x{factor:.4f} "
        f"({workload.reference} reference block, see reference.py)"
    )
    for key, (value, unit, clock, note) in figures.items():
        print(f"  {key:<22} {value:>14.6g} {unit:<8} {clock:<8} {note}")
    print(f"  properties {json.dumps(properties, sort_keys=True)}")
    if trace:
        for key, (value, unit) in chosen.items():
            print(f"  {key:<36} {value:>14.6g} {unit}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"  checks {'FAILED' if failures else 'passed'}")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "input_sha256": digest,
        "host_speed_factor": factor,
        "reference_block": workload.reference,
        "calls": len(untraced.durations) + len(traced.durations),
        "end_to_end": {
            key: {"value": value, "unit": unit, "clock": clock, "note": note}
            for key, (value, unit, clock, note) in figures.items()
        },
        "per_layer": metrics if trace else None,
        "properties": properties,
        "failed_checks": failures,
    }
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    result = {
        "correct": not failures,
        "attempted": max(workload.attempted(), 1),
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if failures else 0


def run_all(seconds: float, trace: bool) -> int:
    """Every workload on the default and the held-out seed, one process each."""
    status = 0
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for name in WORKLOAD_NAMES:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
            ]
            result = subprocess.run(command, check=False)
            status = max(status, result.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seconds, bool(args.trace))
    sys.path.insert(0, str(SOURCE))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
