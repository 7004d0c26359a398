import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stablespam import selftest
from stablespam.quant import QuantSpec, grid, qdq
from stablespam.tensor_core import make_rng

ALL_FORMATS = [fmt for fmt in QuantSpec if fmt is not QuantSpec.NONE]
# Each case keeps the id it was first reported under.
FORMAT_IDS = [f"QuantFormat.{fmt.name}" for fmt in ALL_FORMATS]


class TestGrid:
    def test_int2(self):
        assert list(grid(QuantSpec.INT2)) == [-1.0, 0.0, 1.0]

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

    def test_nonfinite_errors_with_index(self):
        for bad in (np.inf, -np.inf, np.nan):
            x = np.zeros((2, 2))
            x[1, 0] = bad
            with pytest.raises(ValueError, match=r"\(1, 0\)"):
                qdq(x, QuantSpec.INT4)


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
