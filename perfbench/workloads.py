"""The four workloads: seeded inputs, set-up, the timed entry-point call,
scoring and the correctness gate.

Each workload turns ``--seed`` into a deterministic stream of call inputs
(:meth:`Workload.inputs`); the program only ever sees those inputs.  One
*call* is one call of a public entry point; it completes some number of
*items* (the unit ``throughput_per_s`` counts).  Scoring and checking run
outside the timed calls.
"""

from __future__ import annotations

import dataclasses
import math
import random
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.array import ArrayCompass, ArrayConfig, ArrayGeometry, NearFieldSource
from repro.batch import BatchCompass, BatchScene
from repro.core.compass import IntegratedCompass
from repro.errors import OverloadError, ReproError
from repro.factory import FactoryLine, LotConfig
from repro.factory.defects import mint_units
from repro.faults.campaign import heading_error_deg
from repro.fleet import FLEET_COMPASS, FleetConfig, HeadingFleet, Kernel
from repro.replay.diff import TimingTolerance
from repro.units import TARGET_ACCURACY_DEG

#: Field band of every generated scene [µT]: the paper's worldwide range.
FIELD_BAND_UT = (25.0, 65.0)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Workload:
    """One seeded workload.  Subclasses fill in the hooks."""

    name = ""
    item = ""
    call_name = ""
    #: Whether results are headings scored against the 1° spec.
    scores_headings = True
    #: Calls after which ``peak_rss_mb`` is read (about 4 s of work).
    RSS_CALLS = 1
    #: The host-speed reference block that resembles the workload's work.
    reference = "interpreter"

    def __init__(self, seed: int):
        self.seed = seed
        self.failed = 0
        self.silent_wrong = 0
        self.worst_error_deg = 0.0

    def inputs(self) -> Iterator[Any]:
        """The endless, seed-determined stream of call inputs."""
        raise NotImplementedError

    def canonical(self, call_input: Any) -> Any:
        """A JSON-ready form of one input, hashed into the input digest."""
        raise NotImplementedError

    def setup(self) -> Any:
        """Build the objects a run uses and warm lazy set-up."""
        raise NotImplementedError

    def call(self, state: Any, call_input: Any) -> Tuple[int, Any]:
        """One timed entry-point call; returns ``(items, outcome)``."""
        raise NotImplementedError

    def drain(self, state: Any) -> Tuple[int, Any]:
        """Finish work still in flight after the last call (timed).

        Returns ``(items, outcome)`` like :meth:`call`; ``outcome`` is
        ``None`` when nothing was in flight.
        """
        return 0, None

    def score(self, state: Any, outcome: Any) -> None:
        """Fold one call's outcome into the correctness counters."""
        raise NotImplementedError

    def check(self, state: Any) -> List[str]:
        """Run the correctness gate; returns the names of failed checks."""
        failures = []
        if self.silent_wrong:
            failures.append(f"{self.name}: silent_wrong == 0 ({self.silent_wrong})")
        if self.worst_error_deg > TARGET_ACCURACY_DEG:
            failures.append(
                f"{self.name}: worst_error_deg <= {TARGET_ACCURACY_DEG:g} "
                f"({self.worst_error_deg:.4f})"
            )
        return failures

    def attempted(self) -> int:
        raise NotImplementedError

    def report(self, state: Any) -> Dict[str, Tuple[float, str, str]]:
        """Workload-specific end-to-end figures: ``name -> (value, unit, clock)``."""
        return {}

    def properties(self, state: Any) -> Dict[str, float]:
        """Input and behaviour properties that optimisations depend on."""
        return {}

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer shares counted by the benchmark's own client."""
        return {}


class Sweep(Workload):
    """Turn-table revolutions through ``BatchCompass.measure_scene``."""

    name = "sweep"
    item = "measured row"
    call_name = "BatchCompass.measure_scene (one 72-heading revolution)"
    HEADINGS = 72
    RSS_CALLS = 250
    #: Rows re-measured on the reference engines by the gate.
    GATE_ROWS = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rows = 0
        self.gate_rng = random.Random(seed ^ 0x5EED)
        self.gate_sample: List[Tuple[float, float, Any]] = []

    def inputs(self):
        rng = random.Random(self.seed)
        step = 360.0 / self.HEADINGS
        while True:
            offset = rng.uniform(0.0, step)
            field_ut = rng.uniform(*FIELD_BAND_UT)
            yield tuple(offset + i * step for i in range(self.HEADINGS)), field_ut

    def canonical(self, call_input):
        headings, field_ut = call_input
        return [headings[0], field_ut]

    def setup(self):
        batch = BatchCompass(FLEET_COMPASS)
        batch.sweep_headings(n_points=self.HEADINGS)
        return batch

    def call(self, batch, call_input):
        headings, field_ut = call_input
        scene = BatchScene.from_headings(batch.compass.sensors, headings, field_ut * 1e-6)
        return self.HEADINGS, (headings, scene, batch.measure_scene(scene))

    def score(self, batch, outcome):
        headings, scene, measurements = outcome
        self.rows += len(measurements)
        for truth, m in zip(headings, measurements):
            error = heading_error_deg(m.heading_deg, truth)
            flagged = m.health is not None and (m.health.status != "ok" or m.health.flags)
            if not flagged:
                self.worst_error_deg = max(self.worst_error_deg, error)
                self.silent_wrong += error > TARGET_ACCURACY_DEG
        if len(self.gate_sample) < self.GATE_ROWS:
            row = self.gate_rng.randrange(len(measurements))
            self.gate_sample.append((scene.h_x[row], scene.h_y[row], measurements[row]))

    def check(self, batch):
        """Re-measure sampled rows on the scalar engines.

        The scalar engine of the same configuration must agree bit for
        bit.  The stepped scalar reference (fast path off) must agree
        within the timing tolerance ``repro.replay.diff`` applies to
        fast-path pairs: the closed form places edges a fraction of a
        grid tick from the stepped engine, which can move a count by a
        few counter ticks.
        """
        failures = super().check(batch)
        scalar = IntegratedCompass(FLEET_COMPASS)
        stepped = IntegratedCompass(
            dataclasses.replace(
                FLEET_COMPASS,
                front_end=dataclasses.replace(FLEET_COMPASS.front_end, fastpath=False),
            )
        )
        header = SimpleNamespace(
            excitation_frequency_hz=stepped.front_end.excitation.oscillator.params.frequency_hz,
            samples_per_period=stepped.config.samples_per_period,
        )
        tolerance = TimingTolerance.sub_tick(header)
        for h_x, h_y, m in self.gate_sample:
            ref = scalar.measure_components(h_x, h_y)
            if (ref.x_count, ref.y_count, ref.heading_deg) != (
                m.x_count,
                m.y_count,
                m.heading_deg,
            ):
                failures.append(
                    f"sweep: batch row bit-identical to scalar engine "
                    f"(h_x={h_x!r}, h_y={h_y!r})"
                )
            ref = stepped.measure_components(h_x, h_y)
            if (
                abs(ref.x_count - m.x_count) > tolerance.counter_ticks
                or abs(ref.y_count - m.y_count) > tolerance.counter_ticks
                or heading_error_deg(ref.heading_deg, m.heading_deg)
                > tolerance.heading_deg
            ):
                failures.append(
                    f"sweep: batch row within sub-tick tolerance of the stepped "
                    f"reference (h_x={h_x!r}, h_y={h_y!r})"
                )
        if not self.gate_sample:
            failures.append("sweep: gate sampled no rows")
        return failures

    def attempted(self):
        return self.rows

    def properties(self, batch):
        return {"rows_per_call": self.HEADINGS, "gate_rows": len(self.gate_sample)}


class Serve(Workload):
    """Open-loop Poisson traffic into a default ``HeadingFleet``."""

    name = "serve"
    item = "served request"
    call_name = "Kernel.run over one virtual second of HeadingFleet.submit arrivals"
    RSS_CALLS = 15
    RPS = 300.0
    WINDOW_S = 1.0
    HOT_FRACTION = 0.5
    HOT_SCENES = 8
    DEVICES = 64
    #: The warm-up request's scene; a generated request lands in its cache
    #: cell with negligible probability.
    WARM_SCENE = (0.0, 50.0e-6)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.offered = 0
        self.latencies_s: List[float] = []
        self.sources: Dict[str, int] = {}
        self.shed: Dict[str, int] = {}

    def inputs(self):
        rng = random.Random(self.seed)
        hot = [
            (rng.uniform(0.0, 360.0), rng.uniform(*FIELD_BAND_UT) * 1e-6)
            for _ in range(self.HOT_SCENES)
        ]
        while True:
            arrivals = []
            at = rng.expovariate(self.RPS)
            while at < self.WINDOW_S:
                if rng.random() < self.HOT_FRACTION:
                    heading, field_t = hot[rng.randrange(self.HOT_SCENES)]
                else:
                    heading = rng.uniform(0.0, 360.0)
                    field_t = rng.uniform(*FIELD_BAND_UT) * 1e-6
                key = f"device-{rng.randrange(self.DEVICES)}"
                arrivals.append((at, key, heading, field_t))
                at += rng.expovariate(self.RPS)
            yield arrivals

    def canonical(self, call_input):
        return [list(arrival) for arrival in call_input]

    def setup(self):
        kernel = Kernel()
        fleet = HeadingFleet(FleetConfig(), scheduler=kernel)
        fleet.start()
        state = SimpleNamespace(kernel=kernel, fleet=fleet, tasks=[])

        async def warm():
            await fleet.submit("warm", *self.WARM_SCENE)

        kernel.run(warm())
        return state

    async def _request(self, fleet, key, heading, field_t):
        try:
            response = await fleet.submit(key, heading, field_t)
        except OverloadError as error:
            return heading, ("shed", error.reason)
        except ReproError as error:
            return heading, ("failed", type(error).__name__)
        return heading, response

    def call(self, state, arrivals):
        kernel, fleet = state.kernel, state.fleet

        async def window():
            start = kernel.now()
            for at, key, heading, field_t in arrivals:
                delay = start + at - kernel.now()
                if delay > 0.0:
                    await kernel.sleep(delay)
                state.tasks.append(
                    kernel.spawn(self._request(fleet, key, heading, field_t))
                )
            rest = start + self.WINDOW_S - kernel.now()
            if rest > 0.0:
                await kernel.sleep(rest)

        kernel.run(window())
        return self._collect(state)

    def drain(self, state):
        async def wait_all():
            for task in state.tasks:
                await task.future

        state.kernel.run(wait_all())
        return self._collect(state)

    @staticmethod
    def _collect(state) -> Tuple[int, list]:
        """Take the finished requests: ``(served, [(heading, result)])``."""
        finished, pending = [], []
        for task in state.tasks:
            (finished if task.done else pending).append(task)
        state.tasks = pending
        outcomes = [task.future.result() for task in finished]
        served = sum(not isinstance(result, tuple) for _, result in outcomes)
        return served, outcomes

    def score(self, state, outcomes):
        for heading, result in outcomes:
            self.offered += 1
            if isinstance(result, tuple):
                kind, reason = result
                self.failed += 1
                if kind == "shed":
                    self.shed[reason] = self.shed.get(reason, 0) + 1
                continue
            self.latencies_s.append(result.latency_s)
            self.sources[result.source] = self.sources.get(result.source, 0) + 1
            if result.authoritative:
                error = heading_error_deg(result.heading_deg, heading)
                self.worst_error_deg = max(self.worst_error_deg, error)
                self.silent_wrong += error > TARGET_ACCURACY_DEG

    def check(self, state):
        failures = super().check(state)
        if not self.latencies_s:
            failures.append("serve: at least one request served")
        return failures

    def attempted(self):
        return self.offered

    def report(self, state):
        if not self.latencies_s:
            return {}
        return {
            "virtual_p50_ms": (percentile(self.latencies_s, 50) * 1e3, "ms", "virtual"),
            "virtual_p99_ms": (percentile(self.latencies_s, 99) * 1e3, "ms", "virtual"),
        }

    def layer_counts(self):
        offered = self.offered or 1
        counts = {
            "fleet.cache.hit_frac": self.sources.get("cache", 0) / offered,
            "fleet.coalesced_frac": self.sources.get("coalesced", 0) / offered,
            "fleet.measured_frac": self.sources.get("measured", 0) / offered,
        }
        for reason, count in self.shed.items():
            counts[f"fleet.shed_frac.{reason}"] = count / offered
        return counts

    def properties(self, state):
        stats = state.fleet.stats()
        return {
            "requests": self.offered,
            "virtual_rps": self.RPS,
            "hot_fraction": self.HOT_FRACTION,
            **{key: round(value, 6) for key, value in self.layer_counts().items()},
            "fleet_cache_hit_rate": stats["cache"]["hit_rate"],
            "backend_measurements": sum(s["served"] for s in stats["shards"]),
        }


class Lot(Workload):
    """Seeded production lots through the default four-stage ``FactoryLine``.

    Lots have the program's default size and defect distribution
    (``LotConfig()``), minted unfiltered by ``mint_units``.  The line's
    process-wide memo of environment-screen verdicts is left to the
    program: a run is a fresh process, so it starts empty, and set-up's
    clean lot fills the entry that clean and signal-chain signatures share.
    """

    name = "lot"
    item = "tested unit"
    call_name = "FactoryLine.run on one minted lot"
    scores_headings = False
    reference = "array"
    RSS_CALLS = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.units = 0
        self.lots = 0
        self.signatures = 0
        self.test_time_s = 0.0
        self.undispositioned = 0
        self.dispositions: Dict[str, int] = {}

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            config = LotConfig(seed=rng.getrandbits(32))
            yield config, mint_units(config)

    def canonical(self, call_input):
        config, units = call_input
        defective = [
            [index, [[d.fault, d.severity] for d in unit]]
            for index, unit in enumerate(units)
            if unit
        ]
        return [config.seed, len(units), defective]

    def setup(self):
        config = LotConfig(size=4, seed=0)
        FactoryLine(config).run(units=[()] * config.size)
        return None

    def call(self, state, call_input):
        config, units = call_input
        return len(units), (len(units), FactoryLine(config).run(units=units))

    def score(self, state, outcome):
        minted, report = outcome
        self.lots += 1
        self.units += minted
        self.signatures += report.distinct_signatures
        self.silent_wrong += len(report.escapes)
        self.undispositioned += abs(minted - sum(report.counts().values()))
        self.test_time_s += report.test_time_per_unit_s * report.size
        for disposition, count in report.counts().items():
            self.dispositions[disposition] = self.dispositions.get(disposition, 0) + count

    def check(self, state):
        failures = []
        if self.silent_wrong:
            failures.append(f"lot: zero escapes ({self.silent_wrong})")
        if self.undispositioned:
            failures.append(f"lot: every unit dispositioned ({self.undispositioned} not)")
        return failures

    def attempted(self):
        return self.units

    def report(self, state):
        if not self.units:
            return {}
        return {"sim_test_s_per_unit": (self.test_time_s / self.units, "s", "sim")}

    def properties(self, state):
        return {
            "lot_size": LotConfig().size,
            "lots": self.lots,
            "distinct_signatures_per_lot": self.signatures / max(self.lots, 1),
            "memo_hit_frac": 1.0 - self.signatures / max(self.units, 1),
            "dispositions": dict(sorted(self.dispositions.items())),
        }


class Survey(Workload):
    """Seeded world scenes through a 4-element square ``ArrayCompass``."""

    name = "survey"
    item = "fused heading"
    call_name = "ArrayCompass.measure_world (one scene)"
    reference = "array"
    RSS_CALLS = 50
    #: Near-field sources: magnitude at the array origin [µT] and distance [m].
    SOURCE_UT = (0.4, 4.0)
    SOURCE_DISTANCE_M = 1.0
    SOURCE_SHARE = (0.25, 0.5)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scenes = 0
        self.with_source = 0
        self.flagged = 0
        self.elements_used = 0
        #: ``(scene index, input, error)`` of the first silent-wrong scene.
        self.first_silent_wrong: Optional[Tuple[int, Any, float]] = None

    def inputs(self):
        rng = random.Random(self.seed)
        share = rng.uniform(*self.SOURCE_SHARE)
        while True:
            heading = rng.uniform(0.0, 360.0)
            field_ut = rng.uniform(*FIELD_BAND_UT)
            source: Optional[NearFieldSource] = None
            if rng.random() < share:
                magnitude = rng.uniform(*self.SOURCE_UT)
                direction = rng.uniform(0.0, 2.0 * math.pi)
                source = NearFieldSource(
                    delta_north_ut=magnitude * math.cos(direction),
                    delta_east_ut=magnitude * math.sin(direction),
                    distance_m=self.SOURCE_DISTANCE_M,
                    bearing_deg=rng.uniform(0.0, 360.0),
                )
            yield heading, field_ut, source

    def canonical(self, call_input):
        heading, field_ut, source = call_input
        return [heading, field_ut, None if source is None else dataclasses.astuple(source)]

    def setup(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        array.measure_world(0.0, 50.0)
        return array

    def call(self, array, call_input):
        try:
            return 1, (call_input, array.measure_world(*call_input))
        except ReproError as error:
            return 1, (call_input, error)

    def score(self, array, outcome):
        (heading, _, source), measurement = outcome
        self.scenes += 1
        self.with_source += source is not None
        if isinstance(measurement, ReproError):
            self.failed += 1
            return
        self.elements_used += measurement.n_used
        if measurement.flags:
            self.flagged += 1
            return
        error = measurement.error_against(heading)
        self.worst_error_deg = max(self.worst_error_deg, error)
        if error > TARGET_ACCURACY_DEG:
            self.silent_wrong += 1
            if self.first_silent_wrong is None:
                self.first_silent_wrong = (self.scenes - 1, outcome[0], error)

    def check(self, array):
        failures = super().check(array)
        if self.first_silent_wrong is not None:
            index, call_input, error = self.first_silent_wrong
            failures.append(
                f"survey: first silent-wrong scene is #{index} of the stream, "
                f"{error:.4f} deg unflagged: {self.canonical(call_input)}"
            )
        return failures

    def attempted(self):
        return self.scenes

    def properties(self, array):
        scenes = max(self.scenes, 1)
        return {
            "elements": array.n_elements,
            "near_field_frac": self.with_source / scenes,
            "elements_used_mean": self.elements_used / max(self.scenes - self.failed, 1),
            "flagged_frac": self.flagged / scenes,
        }


WORKLOADS = {cls.name: cls for cls in (Sweep, Serve, Lot, Survey)}
