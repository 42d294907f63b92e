"""The per-layer split: which program functions are shimmed, and the
metrics derived from what the shims record.

Layer names follow the ``repro`` subpackages.  ``us_per_item`` is
inclusive busy host time per workload item, ``self_us_per_item``
subtracts the shimmed calls nested inside, ``calls`` is calls per item.
A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from shims import Probe, Recorder

FRONT_END = "repro.analog.frontend:AnalogFrontEnd"
COMPASS = "repro.core.compass:IntegratedCompass"
SUPERVISOR = "repro.core.health:HealthSupervisor"


def _fastpath_stats(front_end) -> Dict[str, float]:
    stats = front_end.fastpath_stats
    return {"fastpath.attempted": stats.attempted, "fastpath.used": stats.used}


def _read_front_end(args: tuple) -> Dict[str, float]:
    return _fastpath_stats(args[0])


def _read_batch(args: tuple) -> Dict[str, float]:
    batch = args[0]
    return {
        **_fastpath_stats(batch.compass.front_end),
        "trace_cache.hits": batch.cache.hits,
        "trace_cache.misses": batch.cache.misses,
    }


def _count_rows(recorder: Recorder, args: tuple, result) -> None:
    recorder.count("batch.rows", len(result))


def _count_attempts(recorder: Recorder, args: tuple, response) -> None:
    recorder.count("service.attempts", response.attempt_count)


def _count_fusion(recorder: Recorder, args: tuple, measurement) -> None:
    recorder.count("array.elements_used", measurement.n_used)
    recorder.count("array.flagged", bool(measurement.flags))


def _count_lot(recorder: Recorder, args: tuple, report) -> None:
    recorder.count("factory.signatures", report.distinct_signatures)
    recorder.count("factory.units", report.size)


def _stage_name(args: tuple, kwargs: dict) -> str:
    return f"factory.stage.{args[0]}"


PROBES: List[Probe] = [
    Probe(f"{FRONT_END}.measure_channel", "analog.channel", read=_read_front_end),
    Probe("repro.analog.fastpath:solve_channel_batch", "analog.fastpath_batch"),
    Probe(
        "repro.batch.engine:BatchCompass.measure_components_batch",
        "batch.scene",
        read=_read_batch,
        on_result=_count_rows,
    ),
    Probe("repro.digital.backend:DigitalBackEnd.process_measurement", "digital.backend"),
    Probe("repro.digital.counter:UpDownCounter.count_window", "digital.counter"),
    Probe("repro.digital.cordic:CordicArctan.arctan_first_quadrant", "digital.cordic"),
    Probe(f"{COMPASS}.assemble_measurement", "core.assemble"),
    Probe(f"{COMPASS}.measure_components", "core.measure"),
    Probe(f"{SUPERVISOR}.review", "core.health"),
    Probe(f"{SUPERVISOR}.stale_fallback", "core.health.stale_fallback"),
    Probe(f"{SUPERVISOR}.single_axis_fallback", "core.health.single_axis_fallback"),
    Probe(
        "repro.service.service:HeadingService.measure_heading",
        "service.request",
        on_result=_count_attempts,
    ),
    Probe("repro.service.voting:vote_headings", "service.vote"),
    Probe(
        "repro.array.device:ArrayCompass.measure_world",
        "array.scene",
        on_result=_count_fusion,
    ),
    Probe("repro.scenario.runner:ScenarioRunner.run", "scenario.run"),
    Probe("repro.scenario.compensation:CompensationChain.process", "scenario.chain"),
    Probe("repro.factory.stages:run_stage", _stage_name),
    Probe("repro.factory.line:run_field_oracle", "factory.oracle"),
    Probe("repro.factory.line:FactoryLine.run", "factory.lot", on_result=_count_lot),
]

FACTORY_STAGES = ("btest", "bist", "calibration", "env")
FLEET_SHED_REASONS = ("rate-limit", "queue-full", "deadline")

#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "analog.channel.calls": "calls/item",
    "analog.channel.us_per_item": "us/item",
    "analog.fastpath_batch.calls": "calls/item",
    "analog.fastpath_batch.us_per_item": "us/item",
    "analog.fastpath.used_frac": "ratio",
    "batch.scene.calls": "calls/item",
    "batch.scene.rows_per_call": "rows/call",
    "batch.scene.self_us_per_item": "us/item",
    "batch.trace_cache.hit_frac": "ratio",
    "digital.backend.us_per_item": "us/item",
    "digital.counter.us_per_item": "us/item",
    "digital.cordic.us_per_item": "us/item",
    "core.assemble.self_us_per_item": "us/item",
    "core.health.us_per_item": "us/item",
    "core.measure.us_per_item": "us/item",
    "core.health.fallback_frac": "ratio",
    "service.request.calls": "calls/item",
    "service.request.us_per_item": "us/item",
    "service.attempts_per_request": "attempts/req",
    "service.vote.us_per_item": "us/item",
    "fleet.cache.hit_frac": "ratio",
    "fleet.coalesced_frac": "ratio",
    "fleet.measured_frac": "ratio",
    "fleet.shed_frac": "ratio",
    **{f"fleet.shed_frac.{reason}": "ratio" for reason in FLEET_SHED_REASONS},
    "array.scene.us_per_item": "us/item",
    "array.fuse.self_us_per_item": "us/item",
    "array.elements_used_mean": "elements",
    "array.flagged_frac": "ratio",
    "scenario.run.calls": "calls/item",
    "scenario.run.s_per_call": "s/call",
    "scenario.chain.us_per_item": "us/item",
    **{f"factory.stage.{stage}.s": "s/lot" for stage in FACTORY_STAGES},
    "factory.oracle.s": "s/lot",
    "factory.signatures": "sig/lot",
    "factory.memo_hit_frac": "ratio",
    "trace.us_per_item": "us/item",
    "trace.overhead_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: Recorder,
    items: int,
    busy_s: float,
    fleet: Dict[str, float],
    overhead_frac: float,
    factor: float = 1.0,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``busy_s`` is the traced entry-point time the layers share.  ``fleet``
    holds the serve workload's outcome shares (empty elsewhere); they are
    counted where the fleet answers, by the benchmark's client.  Times are
    multiplied by ``factor`` (see :mod:`reference`).
    """
    calls, counters = recorder.calls, recorder.counters

    def scaled(times: dict) -> defaultdict:
        return defaultdict(float, {key: value * factor for key, value in times.items()})

    inclusive = scaled(recorder.inclusive)
    self_time = scaled(recorder.self_time)
    pair = scaled(recorder.pair)

    def us(seconds: float) -> float:
        return _ratio(seconds * 1e6, items)

    lots = calls["factory.lot"]
    values: Dict[str, float] = {
        "analog.channel.calls": _ratio(calls["analog.channel"], items),
        "analog.channel.us_per_item": us(inclusive["analog.channel"]),
        "analog.fastpath_batch.calls": _ratio(calls["analog.fastpath_batch"], items),
        "analog.fastpath_batch.us_per_item": us(inclusive["analog.fastpath_batch"]),
        "analog.fastpath.used_frac": _ratio(
            counters["fastpath.used"], counters["fastpath.attempted"]
        ),
        "batch.scene.calls": _ratio(calls["batch.scene"], items),
        "batch.scene.rows_per_call": _ratio(counters["batch.rows"], calls["batch.scene"]),
        "batch.scene.self_us_per_item": us(self_time["batch.scene"]),
        "batch.trace_cache.hit_frac": _ratio(
            counters["trace_cache.hits"],
            counters["trace_cache.hits"] + counters["trace_cache.misses"],
        ),
        "digital.backend.us_per_item": us(inclusive["digital.backend"]),
        "digital.counter.us_per_item": us(inclusive["digital.counter"]),
        "digital.cordic.us_per_item": us(inclusive["digital.cordic"]),
        "core.assemble.self_us_per_item": us(
            inclusive["core.assemble"]
            - pair[("core.assemble", "digital.backend")]
            - pair[("core.assemble", "core.health")]
        ),
        "core.health.us_per_item": us(inclusive["core.health"]),
        "core.measure.us_per_item": us(inclusive["core.measure"]),
        "core.health.fallback_frac": _ratio(
            calls["core.health.stale_fallback"]
            + calls["core.health.single_axis_fallback"],
            calls["core.health"],
        ),
        "service.request.calls": _ratio(calls["service.request"], items),
        "service.request.us_per_item": us(inclusive["service.request"]),
        "service.attempts_per_request": _ratio(
            counters["service.attempts"], calls["service.request"]
        ),
        "service.vote.us_per_item": us(inclusive["service.vote"]),
        "array.scene.us_per_item": us(inclusive["array.scene"]),
        "array.fuse.self_us_per_item": us(
            inclusive["array.scene"] - pair[("array.scene", "core.measure")]
        ),
        "array.elements_used_mean": _ratio(
            counters["array.elements_used"], calls["array.scene"]
        ),
        "array.flagged_frac": _ratio(counters["array.flagged"], calls["array.scene"]),
        "scenario.run.calls": _ratio(calls["scenario.run"], items),
        "scenario.run.s_per_call": _ratio(inclusive["scenario.run"], calls["scenario.run"]),
        "scenario.chain.us_per_item": us(inclusive["scenario.chain"]),
        "factory.oracle.s": _ratio(inclusive["factory.oracle"], lots),
        "factory.signatures": _ratio(counters["factory.signatures"], lots),
        "factory.memo_hit_frac": (
            1.0 - _ratio(counters["factory.signatures"], counters["factory.units"])
            if lots
            else 0.0
        ),
        "trace.us_per_item": us(busy_s * factor),
        "trace.overhead_frac": overhead_frac,
    }
    for stage in FACTORY_STAGES:
        values[f"factory.stage.{stage}.s"] = _ratio(
            inclusive[f"factory.stage.{stage}"], lots
        )
    for key in ("fleet.cache.hit_frac", "fleet.coalesced_frac", "fleet.measured_frac"):
        values[key] = fleet.get(key, 0.0)
    values["fleet.shed_frac"] = sum(
        fleet.get(f"fleet.shed_frac.{reason}", 0.0) for reason in FLEET_SHED_REASONS
    )
    for reason in FLEET_SHED_REASONS:
        values[f"fleet.shed_frac.{reason}"] = fleet.get(f"fleet.shed_frac.{reason}", 0.0)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
