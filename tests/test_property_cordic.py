"""Property-based tests for the CORDIC datapath."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.digital.cordic import CordicArctan, greedy_arctan_float
from repro.errors import ProtocolError

CORDIC = CordicArctan()

counts = st.integers(min_value=0, max_value=4194)
nonzero_counts = st.integers(min_value=1, max_value=4194)
signed_counts = st.integers(min_value=-4194, max_value=4194)


class TestFirstQuadrantProperties:
    @given(y=counts, x=nonzero_counts)
    def test_result_bounded(self, y, x):
        angle = CORDIC.arctan_first_quadrant(y, x).angle_deg
        assert 0.0 <= angle <= CORDIC.max_angle_deg()

    @given(y=nonzero_counts, x=nonzero_counts)
    def test_within_one_degree_of_atan2(self, y, x):
        # The paper's accuracy claim as a universal property.
        angle = CORDIC.arctan_first_quadrant(y, x).angle_deg
        reference = math.degrees(math.atan2(y, x))
        assert abs(angle - reference) < 1.0

    @given(y=counts, x=nonzero_counts, scale=st.integers(min_value=2, max_value=8))
    def test_scale_invariance(self, y, x, scale):
        # §4: insensitive to field magnitude — scaling both counts moves
        # the result by less than the quantisation residual.  Scaled
        # inputs stay within the 24-bit register envelope the datapath is
        # sized for (counter values ≤ 4194).
        y, x = y // scale, max(1, x // scale)
        a = CORDIC.arctan_first_quadrant(y, x).angle_deg
        b = CORDIC.arctan_first_quadrant(y * scale, x * scale).angle_deg
        assert abs(a - b) < 0.9

    @given(y=nonzero_counts, x=nonzero_counts)
    def test_antisymmetry_via_complement(self, y, x):
        # atan(y/x) + atan(x/y) ≈ 90°.
        a = CORDIC.arctan_first_quadrant(y, x).angle_deg
        b = CORDIC.arctan_first_quadrant(x, y).angle_deg
        assert abs((a + b) - 90.0) < 1.5

    @given(y=counts, x=nonzero_counts)
    def test_cycles_always_eight(self, y, x):
        assert CORDIC.arctan_first_quadrant(y, x).cycles == 8

    @given(y=counts, x=nonzero_counts)
    def test_monotone_in_y(self, y, x):
        # Increasing y must never decrease the angle (up to LSB jitter).
        a = CORDIC.arctan_first_quadrant(y, x).angle_deg
        b = CORDIC.arctan_first_quadrant(y + 50, x).angle_deg
        assert b >= a - 0.5


class TestFullCircleProperties:
    @given(x=signed_counts, y=signed_counts)
    def test_range_and_accuracy(self, x, y):
        if x == 0 and y == 0:
            return
        angle = CORDIC.arctan_degrees(y, x)
        assert 0.0 <= angle < 360.0
        reference = math.degrees(math.atan2(y, x)) % 360.0
        err = abs((angle - reference + 180.0) % 360.0 - 180.0)
        assert err < 1.0

    @given(x=signed_counts, y=signed_counts)
    def test_point_reflection(self, x, y):
        # Rotating the input by 180° rotates the output by 180°.  Exact
        # in the quadrant interiors (same core value both times); on the
        # axes the greedy overshoot mirrors instead of cancelling, so the
        # bound is twice the algorithmic residual (2·atan(1/128) ≈ 0.9°).
        if x == 0 and y == 0:
            return
        a = CORDIC.arctan_degrees(y, x)
        b = CORDIC.arctan_degrees(-y, -x)
        tolerance = 1e-9 if (x != 0 and y != 0) else 0.9
        assert abs(abs(a - b) - 180.0) < tolerance


class TestFloatEquivalence:
    @given(y=counts, x=nonzero_counts)
    @settings(max_examples=50)
    def test_integer_tracks_float(self, y, x):
        # The ·128 fixed-point datapath stays within ~0.5° of the
        # infinite-precision greedy algorithm.
        integer = CORDIC.arctan_first_quadrant(y, x).angle_deg
        floating = greedy_arctan_float(float(y), float(x), 8)
        assert abs(integer - floating) < 0.75


def _two_pass_heading(cordic, x_count, y_count):
    """The heading written out in one piece: the core on (|−y|, |x|),
    then the quadrant fold inline."""
    y, x = -y_count, x_count
    core = cordic.arctan_first_quadrant(abs(y), abs(x)).angle_deg
    if x >= 0 and y >= 0:
        angle = core
    elif x < 0 <= y:
        angle = 180.0 - core
    elif x < 0 and y < 0:
        angle = 180.0 + core
    else:
        angle = 360.0 - core
    return angle % 360.0


class TestFoldedHeading:
    @given(
        x=st.integers(min_value=-32768, max_value=32767),
        y=st.integers(min_value=-32768, max_value=32767),
    )
    @settings(max_examples=300)
    def test_heading_degrees_unchanged_over_16_bit_pairs(self, x, y):
        # Large pairs overflow the 24-bit registers; both forms raise.
        try:
            expected = _two_pass_heading(CORDIC, x, y)
        except ProtocolError as error:
            with pytest.raises(ProtocolError, match=re.escape(str(error))):
                CORDIC.heading_degrees(x, y)
            return
        assert CORDIC.heading_degrees(x, y) == expected
        core = CORDIC.arctan_first_quadrant(abs(y), abs(x)).angle_deg
        assert CordicArctan.fold_heading(core, x, y) == expected
