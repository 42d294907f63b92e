"""The digital back-end over many rows at once.

A multi-row call of the compass loop hands the back-end one
:class:`~repro.analog.pulse_detector.EdgeMatrix` per channel.  These
kernels run the up-down counter, the Figure 8 CORDIC and the health
supervisor's features over every row as array operations.  Each repeats
the arithmetic of its per-row oracle with the same IEEE operations in the
same order, so every result equals the oracle's bit for bit:

========================  =================================================
kernel                    per-row oracle
========================  =================================================
:func:`high_ticks`        :meth:`UpDownCounter.count_window`
:func:`cordic_angles`     :meth:`CordicArctan.arctan_first_quadrant`
:func:`duty_cycles`       ``repro.core.health._duty_in_window`` and
                          :meth:`DetectorOutput.duty_cycle`
:func:`edges_in_window`   ``repro.core.health._edges_in_window``
========================  =================================================

Float sums are accumulated column by column in edge order
(``np.add.accumulate``), as the oracles' loops add them.  Integer tick
counts are exact in any order.  The kernels do not raise: a row the
oracle would refuse is flagged, and the caller runs the oracle on it so
the error is the oracle's own.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..analog.pulse_detector import EdgeMatrix
from .cordic import CordicArctan
from .fixed_point import signed_max, signed_min


def _tick_marks(times: np.ndarray, origin: float, tick: float) -> np.ndarray:
    """``ceil((t − origin)/tick − 1e-12)``, as ``UpDownCounter._ticks_in``."""
    return np.ceil((times - origin) / tick - 1e-12).astype(np.int64)


def high_ticks(
    edges: EdgeMatrix, window: Tuple[float, float], tick: float
) -> np.ndarray:
    """Clock ticks each row's latch is high inside ``window``.

    The counter counts ``[t_prev, t_edge)`` tick spans between the edges
    inside the window.  Clamping every edge time into the window turns
    that walk into one span per column: edges before the window and
    after it give empty spans, and the first edge past the window closes
    the last span, as the oracle's ``break`` does.  Rows must be sorted
    (:meth:`EdgeMatrix.sorted_rows`).
    """
    t_start, t_end = window
    rows, width = edges.times.shape
    clamped = np.minimum(np.maximum(edges.times, t_start), t_end)
    marks = np.empty((rows, width + 2), dtype=np.int64)
    marks[:, 0] = _tick_marks(np.float64(t_start), t_start, tick)
    marks[:, 1:-1] = _tick_marks(clamped, t_start, tick)
    marks[:, -1] = _tick_marks(np.float64(t_end), t_start, tick)
    high = np.empty((rows, width + 1), dtype=bool)
    high[:, 0] = edges.initial == 1
    high[:, 1:] = edges.values == 1
    return (np.diff(marks, axis=1) * high).sum(axis=1)


def cordic_angles(
    cordic: CordicArctan, y: np.ndarray, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The Figure 8 datapath on int64 rows: ``(angle_fixed, refused)``.

    ``refused`` marks the rows :meth:`CordicArctan.arctan_first_quadrant`
    raises on: a negative input, ``0/0``, or a register overflow.  The
    ROM is read live from ``cordic.rom``, so a corrupted word acts here
    as in the oracle.  The registers need int64 headroom over the
    register width (see :meth:`DigitalBackEnd.columnar_ready`).
    """
    width = cordic.register_width
    low, high = signed_min(width), signed_max(width)
    y_reg = y << cordic.input_scale_bits
    x_reg = x << cordic.input_scale_bits
    refused = (y < 0) | (x < 0) | ((y == 0) & (x == 0))
    refused |= (y_reg < low) | (y_reg > high) | (x_reg < low) | (x_reg > high)
    res = np.zeros(y.shape, dtype=np.int64)
    rom = cordic.rom
    for i in range(cordic.iterations):
        # Registers stay non-negative (a rotation needs y_reg ≥ x_reg/2^i
        # and only adds to x_reg), so ``>>`` is the truncating shift.
        x_shifted = x_reg >> i
        y_shifted = y_reg >> i
        rotate = y_reg >= x_shifted
        np.subtract(y_reg, x_shifted, out=y_reg, where=rotate)
        np.add(x_reg, y_shifted, out=x_reg, where=rotate)
        np.add(res, rom[i], out=res, where=rotate)
    # y_reg only shrinks towards zero and x_reg only grows, so a rotation
    # overflowed a register exactly when x_reg ends above its range.
    refused |= x_reg > high
    return res, refused


def duty_cycles(
    edges: EdgeMatrix, t_start: np.ndarray, t_end: np.ndarray
) -> np.ndarray:
    """Fraction of ``[t_start, t_end)`` each row's latch is high.

    ``t_start``/``t_end`` are floats (one window) or one per row.  The
    high time accumulates edge by edge like the oracles' loops; padding
    edges clamp to ``t_end`` and add zero.  A non-positive window is the
    caller's to refuse.
    """
    rows, width = edges.times.shape
    points = np.empty((rows, width + 2))
    points[:, 0] = t_start
    points[:, 1:-1] = np.minimum(
        np.maximum(edges.times, np.reshape(t_start, (-1, 1))),
        np.reshape(t_end, (-1, 1)),
    )
    points[:, -1] = t_end
    high = np.empty((rows, width + 1), dtype=bool)
    high[:, 0] = edges.initial == 1
    high[:, 1:] = edges.values == 1
    spans = np.where(high, np.diff(points, axis=1), 0.0)
    return np.add.accumulate(spans, axis=1)[:, -1] / (t_end - t_start)


def edges_in_window(
    edges: EdgeMatrix, window: Tuple[float, float]
) -> Tuple[np.ndarray, np.ndarray]:
    """(set events, reset events) of each row strictly inside ``window``."""
    t_start, t_end = window
    inside = (edges.times > t_start) & (edges.times < t_end)
    sets = (inside & (edges.values == 1)).sum(axis=1)
    return sets, inside.sum(axis=1) - sets
