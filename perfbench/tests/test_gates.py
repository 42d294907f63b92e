"""The lot workload's correctness gate fails on what it claims to check."""

from types import SimpleNamespace

from workloads import Lot


def _report(counts, escapes=0):
    return SimpleNamespace(
        size=sum(counts.values()),
        distinct_signatures=1,
        escapes=[object()] * escapes,
        test_time_per_unit_s=0.0,
        counts=lambda: dict(counts),
    )


def test_a_clean_lot_passes():
    lot = Lot(seed=1)
    lot.score(None, (4, _report({"pass": 3, "caught": 1})))
    assert lot.check(None) == []


def test_an_undispositioned_unit_fails_the_gate():
    lot = Lot(seed=1)
    lot.score(None, (4, _report({"pass": 3})))
    assert lot.check(None) == ["lot: every unit dispositioned (1 not)"]


def test_an_escape_fails_the_gate():
    lot = Lot(seed=1)
    lot.score(None, (2, _report({"pass": 1, "escape": 1}, escapes=1)))
    assert lot.check(None) == ["lot: zero escapes (1)"]
