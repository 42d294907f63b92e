"""Self-time arithmetic and install/remove of the timing shims."""

import sys
import types

import pytest
from shims import Probe, Recorder, ShimSet


class FakeClock:
    """A clock the fake functions advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_nested_self_time():
    clock = FakeClock()
    recorder = Recorder(clock)

    def leaf():
        recorder.enter("leaf")
        clock.spend(1.0)
        recorder.exit()

    def inner():
        recorder.enter("inner")
        clock.spend(2.0)
        leaf()
        recorder.exit()

    def outer():
        recorder.enter("outer")
        clock.spend(3.0)
        inner()
        inner()
        leaf()
        recorder.exit()

    outer()
    assert recorder.calls == {"outer": 1, "inner": 2, "leaf": 3}
    assert recorder.inclusive["outer"] == 10.0
    assert recorder.inclusive["inner"] == 6.0
    assert recorder.inclusive["leaf"] == 3.0
    assert recorder.self_time["outer"] == 3.0
    assert recorder.self_time["inner"] == 4.0
    assert recorder.self_time["leaf"] == 3.0
    assert recorder.pair[("outer", "inner")] == 6.0
    assert recorder.pair[("outer", "leaf")] == 1.0
    assert recorder.pair[("inner", "leaf")] == 2.0
    # Self times partition the outermost call.
    assert sum(recorder.self_time.values()) == recorder.inclusive["outer"]


def test_recursion_is_not_counted_twice():
    clock = FakeClock()
    recorder = Recorder(clock)

    def walk(depth):
        recorder.enter("walk")
        clock.spend(1.0)
        if depth:
            walk(depth - 1)
        recorder.exit()

    walk(2)
    assert recorder.calls["walk"] == 3
    assert recorder.inclusive["walk"] == 3.0
    assert recorder.self_time["walk"] == 3.0


def test_nested_reads_of_one_counter_count_once():
    recorder = Recorder()
    counter = types.SimpleNamespace(hits=5)
    before_outer = {"hits": counter.hits}
    recorder.begin_read(before_outer)
    counter.hits += 2
    before_inner = {"hits": counter.hits}
    recorder.begin_read(before_inner)
    counter.hits += 3
    recorder.end_read(before_inner, {"hits": counter.hits})
    assert recorder.counters["hits"] == 0
    counter.hits += 1
    recorder.end_read(before_outer, {"hits": counter.hits})
    assert recorder.counters["hits"] == 6


@pytest.fixture
def fake_program():
    """A throwaway ``repro.*`` module with a class and a function bound twice."""
    module = types.ModuleType("repro._perfbench_fake")
    consumer = types.ModuleType("repro._perfbench_fake_consumer")

    class Engine:
        def run(self, n):
            return module.helper(n) + 1

    def helper(n):
        if n < 0:
            raise ValueError("negative")
        return 2 * n

    module.Engine = Engine
    module.helper = helper
    consumer.helper = helper
    sys.modules[module.__name__] = module
    sys.modules[consumer.__name__] = consumer
    yield module, consumer
    del sys.modules[module.__name__]
    del sys.modules[consumer.__name__]


def test_install_and_remove_restore_the_originals(fake_program):
    module, consumer = fake_program
    original_run = module.Engine.__dict__["run"]
    original_helper = module.helper
    recorder = Recorder()
    results = []
    probes = [
        Probe(
            "repro._perfbench_fake:Engine.run",
            "engine",
            read=lambda args: {"n": args[1]},
        ),
        Probe(
            "repro._perfbench_fake:helper",
            lambda args, kwargs: f"helper.{args[0]}",
            on_result=lambda rec, args, result: results.append(result),
        ),
    ]
    with ShimSet(probes, recorder):
        assert module.Engine.__dict__["run"] is not original_run
        assert consumer.helper is not original_helper
        assert module.Engine().run(3) == 7
        assert consumer.helper(4) == 8
    assert module.Engine.__dict__["run"] is original_run
    assert module.helper is original_helper
    assert consumer.helper is original_helper
    assert recorder.calls == {"engine": 1, "helper.3": 1, "helper.4": 1}
    assert recorder.pair[("engine", "helper.3")] > 0.0
    assert recorder.counters["n"] == 0
    assert results == [6, 8]


def test_a_raising_call_still_closes_its_frame(fake_program):
    module, _ = fake_program
    recorder = Recorder()
    with ShimSet([Probe("repro._perfbench_fake:helper", "helper")], recorder):
        with pytest.raises(ValueError):
            module.helper(-1)
        assert module.helper(1) == 2
    assert recorder.calls["helper"] == 2
    assert recorder._stack == []


def test_every_program_probe_resolves_and_is_restored():
    from layers import PROBES
    from repro.core.compass import IntegratedCompass
    from repro.factory import line

    original_measure = IntegratedCompass.__dict__["measure_components"]
    original_stage = line.run_stage
    with ShimSet(PROBES, Recorder()):
        assert IntegratedCompass.__dict__["measure_components"] is not original_measure
        assert line.run_stage is not original_stage
    assert IntegratedCompass.__dict__["measure_components"] is original_measure
    assert line.run_stage is original_stage
