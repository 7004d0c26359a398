import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stablespam import quant, selftest
from stablespam.quant import QuantSpec, grid, qdq
from stablespam.tensor_core import NonFiniteError, make_rng
from tasks import int4_cfg, step_calls

ALL_FORMATS = [fmt for fmt in QuantSpec if fmt is not QuantSpec.NONE]
# Each case keeps the id it was first reported under.
FORMAT_IDS = [f"QuantFormat.{fmt.name}" for fmt in ALL_FORMATS]



def absmax_with_pin(top, pin_needed):
    """The first of 1.001, 1.002, ... 1.999 whose +-top codes need the pin
    to give +-absmax, or do not; None if there is none."""
    for k in range(1, 1000):
        amax = 1.0 + k / 1000
        if (top * (amax / top) != amax) == pin_needed:
            return amax
    return None


# INT2's top code is 1, so its +-top codes always give +-absmax unpinned.
def top_code(fmt):
    return len(grid(fmt)) // 2  # the codes run from -top to top


PIN_CASES = [(fmt, needed) for fmt in ALL_FORMATS for needed in (True, False)
             if absmax_with_pin(top_code(fmt), needed)]
PIN_IDS = [f"{fmt.value}-{'pinned' if needed else 'unpinned'}"
           for fmt, needed in PIN_CASES]


class TestGrid:
    def test_int2(self):
        assert list(grid(QuantSpec.INT2)) == [-1.0, 0.0, 1.0]

    def test_int3(self):
        assert list(grid(QuantSpec.INT3)) == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0,
                                               3.0]

    def test_int4(self):
        g = grid(QuantSpec.INT4)
        assert len(g) == 15
        assert g[-1] == 7.0
        assert np.array_equal(g, -g[::-1])

    def test_none_has_no_grid(self):
        with pytest.raises(ValueError):
            grid(QuantSpec.NONE)


class TestQdq:
    def test_int4_worked_example(self):
        out = qdq(np.array([[1.0, -0.5, 0.25]]), QuantSpec.INT4)
        # codes 7, -4 (tie -3.5 to even), 2 (1.75 rounds up)
        scale = 1.0 / 7.0
        assert out[0, 0] == 1.0
        assert out[0, 1] == pytest.approx(-4 * scale, rel=1e-15, abs=0)
        assert out[0, 2] == pytest.approx(2 * scale, rel=1e-15, abs=0)

    def test_fp4_tie_goes_to_even_code(self):
        out = qdq(np.array([[1.75, 0.875]]), QuantSpec.FP4_E1M2)
        assert out[0, 0] == 1.75
        assert out[0, 1] == 1.0  # midway 0.75 / 1.0; code 4 is even

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
    def test_zeros_map_to_zeros(self, fmt):
        out = qdq(np.zeros((3, 3)), fmt)
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_none_is_identity(self):
        x = make_rng(0).standard_normal((4, 4))
        assert np.array_equal(qdq(x, QuantSpec.NONE), x)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
    def test_matches_bruteforce_grid_snap(self, fmt):
        # The one pytest home of the selftest entry "quantizer rounds to
        # nearest, ties to even", one format per id.
        ok, detail = selftest.check_quant_grid_snap(formats=(fmt,))
        assert ok, detail

    @pytest.mark.parametrize("fmt, pin_needed", PIN_CASES, ids=PIN_IDS)
    def test_top_codes_give_exactly_the_absmax(self, fmt, pin_needed):
        # qdq pins the +-top codes only where top * (amax / top) != amax.
        amax = absmax_with_pin(top_code(fmt), pin_needed)
        out = qdq(np.array([[amax, -amax, 0.3 * amax, 0.0]]), fmt)
        assert out[0, 0] == amax
        assert out[0, 1] == -amax

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
    def test_a_matrix_with_no_entries_is_a_value_error(self, fmt):
        with pytest.raises(ValueError) as raised:
            qdq(np.zeros((0, 3)), fmt)
        assert not isinstance(raised.value, NonFiniteError)

    def test_nonfinite_errors_with_index(self):
        for bad in (np.inf, -np.inf, np.nan):
            x = np.zeros((2, 2))
            x[1, 0] = bad
            with pytest.raises(ValueError, match=r"\(1, 0\)"):
                qdq(x, QuantSpec.INT4)


def test_one_qdq_per_quantized_operand():
    # The count the benchmark's span check expects: per block its normed
    # input and two weights, and the head's input and weight.
    calls = step_calls(int4_cfg("adam", 1e-3, total_steps=8, warmup_steps=2))
    assert calls[quant.__file__, "qdq"] == 8


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(x=arrays(np.float64, (3, 4),
                    elements=st.floats(-100, 100, allow_nan=False)),
           fmt=st.sampled_from(ALL_FORMATS))
    def test_bounded_and_sign_preserving(self, x, fmt):
        out = qdq(x, fmt)
        amax = float(np.max(np.abs(x)))
        assert np.all(np.abs(out) <= amax)
        assert np.all((out == 0) | (np.sign(out) == np.sign(x)))
        assert not np.any((out == 0) & np.signbit(out))  # zero is +0.0
        # E1M2's grid is 0.25 x INT4's codes, so absmax scaling cancels it.
        assert qdq(x, QuantSpec.FP4_E1M2).tobytes() == \
            qdq(x, QuantSpec.INT4).tobytes()

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
    def test_error_bound(self, fmt):
        rng = make_rng(31)
        g = grid(fmt)
        widest_gap = float(np.max(np.diff(g)))
        for _ in range(20):
            x = rng.standard_normal((6, 6))
            out = qdq(x, fmt)
            scale = float(np.max(np.abs(x))) / g[-1]
            # tiny slack for the code-space round trip
            assert np.max(np.abs(out - x)) <= scale * widest_gap / 2 * (1 + 1e-12)
