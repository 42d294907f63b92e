"""Host-speed reference: a fixed calibration block timed beside the workload.

The host this benchmark runs on is shared, and its speed drifts by tens
of percent over minutes.  A run therefore times a fixed block of work —
no program code — interleaved with the workload calls, and scales every
host time by ``nominal / (mean block time)``.  A *normalised* second is
the time in which the block runs ``1 / nominal`` times; on a host whose
block takes its nominal time it equals a wall-clock second.  Raw times
are reported beside the normalised ones.

A host-speed change does not slow interpreter-bound and array-bound code
alike, so each workload is normalised by the block that resembles its
own work:

* ``interpreter`` — Python bytecode and small-array calls, like the
  digital back-end and the service layer (``sweep``, ``serve``);
* ``array`` — a quarter of that, three quarters element-wise NumPy work
  on arrays as long as the stepped measurement grid, like the stepped
  analogue engine (``lot``, ``survey``).

Sampled across a threefold host-speed swing, each block tracked its own
workloads to a few percent; the other block over- or under-corrected
them by up to half.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

import numpy as np

#: Share of the workload's busy time spent in reference blocks.
REFERENCE_SHARE = 0.1

_SMALL = np.linspace(0.0, 1.0, 4096)
#: 9 excitation periods x 4096 samples: the stepped engine's grid length.
_GRID = np.linspace(0.0, 1.0, 36864)


def _interpreter_work(loops: int, small_calls: int) -> float:
    total = 0.0
    for i in range(loops):
        total += (i * 0.5) % 7.0
    for _ in range(small_calls):
        total += float(np.sum(np.sin(_SMALL) * _SMALL))
    return total


def interpreter_block() -> float:
    """Interpreter work with small-array calls (about 1 ms)."""
    return _interpreter_work(2000, 15)


def array_block() -> float:
    """A quarter interpreter work, three quarters grid-length array work (about 1.5 ms)."""
    total = _interpreter_work(700, 5)
    for _ in range(2):
        shaped = np.tanh(_GRID * 3.0) * _GRID
        step = np.diff(shaped, prepend=0.0)
        total += float(np.cumsum(step)[-1]) + float(np.maximum.accumulate(step)[-1])
    return total


#: Block kind -> (block, nominal duration [s] that fixes the normalised scale).
BLOCKS: Dict[str, Tuple[Callable[[], float], float]] = {
    "interpreter": (interpreter_block, 1.0e-3),
    "array": (array_block, 1.5e-3),
}


class HostSpeed:
    """Reference-block timings of one run."""

    def __init__(self, kind: str) -> None:
        self.block, self.nominal_s = BLOCKS[kind]
        self.blocks = 0
        self.seconds = 0.0
        self._owed_s = 0.0

    def _run_block(self) -> float:
        start = time.perf_counter()
        self.block()
        spent = time.perf_counter() - start
        self.blocks += 1
        self.seconds += spent
        return spent

    def sample(self, busy_s: float) -> None:
        """Run one block, and more while reference time is under its share.

        Every call is followed by at least one block, so every call starts
        from the same cache state; without that, short calls that follow
        a block and calls that follow a call form two populations and the
        median call time jumps between them.
        """
        self._owed_s += REFERENCE_SHARE * busy_s - self._run_block()
        while self._owed_s > 0.0:
            self._owed_s -= self._run_block()

    def local_factor(self, blocks: int) -> float:
        """Run ``blocks`` blocks now and return the factor they alone give."""
        spent = sum(self._run_block() for _ in range(blocks))
        return self.nominal_s * blocks / spent

    @property
    def factor(self) -> float:
        """Multiply a host time by this to get normalised seconds."""
        return self.nominal_s * self.blocks / self.seconds
