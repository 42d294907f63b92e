"""Timing shims installed on the program from outside it.

A :class:`Probe` names one callable of the program — a method on a class,
or a module-level function — and the :class:`Recorder` it reports into.
:class:`ShimSet` replaces every probed callable with a wrapper that times
each call, and puts the originals back on :meth:`ShimSet.remove`, so code
run without shims is the unpatched program.

A module-level function is patched in every loaded ``repro`` module that
bound it by name (``from .stages import run_stage``), because that is
where its callers look it up.

Time accounting, per probe name:

* ``inclusive`` — busy time of the outermost call (a call nested in a
  call of the same name is not counted twice);
* ``self_time`` — a call's duration minus the duration of the shimmed
  calls nested directly inside it;
* ``pair[(parent, child)]`` — time the ``child`` probe spent directly
  inside ``parent``, so a caller can subtract one named child only.

A probe with a ``read`` function adds how much the program's own
counters (read from the call's arguments) grew during the call.  Only the
outermost open call reading a given counter adds it, so nested probes
that read the same counter do not count it twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: ``name`` may be a fixed string or a function of the call's arguments.
NameSpec = Union[str, Callable[[tuple, dict], str]]
#: Reads program counters from a call's arguments: ``args -> {key: value}``.
ReadHook = Callable[[tuple], Dict[str, float]]
#: Hook run after a call returns: ``(recorder, args, result)``.
ResultHook = Callable[["Recorder", tuple, Any], None]


class Recorder:
    """Call counts, inclusive/self time and counters per probe name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.pair: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        # One frame per open call: [name, start, time of nested shimmed calls].
        self._stack: List[list] = []
        # Open calls currently reading each counter key.
        self._reading: Dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, nested = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_time[name] += duration - nested
        if not any(frame[0] == name for frame in self._stack):
            self.inclusive[name] += duration
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.pair[(parent[0], name)] += duration

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def begin_read(self, values: Dict[str, float]) -> None:
        for key in values:
            self._reading[key] += 1

    def end_read(self, before: Dict[str, float], after: Dict[str, float]) -> None:
        for key, value in before.items():
            self._reading[key] -= 1
            if not self._reading[key]:
                self.counters[key] += after[key] - value


@dataclass(frozen=True)
class Probe:
    """One callable to time: ``"module:Class.method"`` or ``"module:function"``."""

    target: str
    name: NameSpec
    read: Optional[ReadHook] = None
    on_result: Optional[ResultHook] = None


def _wrap(original: Callable, probe: Probe, recorder: Recorder) -> Callable:
    name = probe.name
    read = probe.read
    on_result = probe.on_result

    @functools.wraps(original)
    def shim(*args, **kwargs):
        before = None
        if read is not None:
            before = read(args)
            recorder.begin_read(before)
        recorder.enter(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.exit()
            if before is not None:
                recorder.end_read(before, read(args))
        if on_result is not None:
            on_result(recorder, args, result)
        return result

    return shim


class ShimSet:
    """Installs and removes the shims of a list of probes."""

    def __init__(self, probes: List[Probe], recorder: Recorder):
        self.probes = probes
        self.recorder = recorder
        # (owner, attribute, original) in install order.
        self._patched: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("shims are already installed")
        try:
            for probe in self.probes:
                self._install(probe)
        except BaseException:
            self.remove()
            raise

    def _install(self, probe: Probe) -> None:
        module_name, _, path = probe.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            if attribute not in vars(owner):
                raise AttributeError(
                    f"{probe.target}: {class_name} does not define {attribute}"
                )
            original = vars(owner)[attribute]
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(original, probe, self.recorder))
            return
        original = getattr(module, path)
        shim = _wrap(original, probe, self.recorder)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._patched.append((loaded, attribute, original))
                    setattr(loaded, attribute, shim)

    def remove(self) -> None:
        """Restore every original."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "ShimSet":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()
