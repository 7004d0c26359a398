import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stablespam.quant import QuantFormat, QuantSpec, grid, qdq
from stablespam.tensor_core import make_rng

from stablespam.oracles import nearest_grid_even

ALL_FORMATS = [QuantFormat.INT2, QuantFormat.INT3, QuantFormat.INT4,
               QuantFormat.FP4_E1M2]


class TestGrid:
    def test_int2(self):
        assert list(grid(QuantFormat.INT2)) == [-1.0, 0.0, 1.0]

    def test_int4(self):
        g = grid(QuantFormat.INT4)
        assert len(g) == 15
        assert g[-1] == 7.0
        assert np.array_equal(g, -g[::-1])

    def test_fp4_e1m2(self):
        g = list(grid(QuantFormat.FP4_E1M2))
        mags = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
        assert g == sorted([-m for m in mags] + [0.0] + mags)

    def test_none_has_no_grid(self):
        with pytest.raises(ValueError):
            grid(QuantFormat.NONE)


class TestQdq:
    def test_int4_worked_example(self):
        out = qdq(np.array([[1.0, -0.5, 0.25]]), QuantSpec(format=QuantFormat.INT4))
        # codes 7, -4 (tie -3.5 to even), 2 (1.75 rounds up)
        scale = 1.0 / 7.0
        assert out[0, 0] == 1.0
        assert out[0, 1] == pytest.approx(-4 * scale, rel=1e-15)
        assert out[0, 2] == pytest.approx(2 * scale, rel=1e-15)

    def test_fp4_tie_goes_to_even_code(self):
        out = qdq(np.array([[1.75, 0.875]]), QuantSpec(format=QuantFormat.FP4_E1M2))
        assert out[0, 0] == 1.75
        assert out[0, 1] == 1.0  # midway 0.75 / 1.0; code 4 is even

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_zeros_map_to_zeros(self, fmt):
        out = qdq(np.zeros((3, 3)), QuantSpec(format=fmt))
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_none_is_identity(self):
        x = make_rng(0).standard_normal((4, 4))
        assert np.array_equal(qdq(x, QuantSpec()), x)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_matches_bruteforce_grid_snap(self, fmt):
        rng = make_rng(17)
        spec = QuantSpec(format=fmt)
        g = grid(fmt)
        inputs = [rng.standard_normal((4, 5)) * 3.0 for _ in range(10)]
        # Exact ties: every midpoint between grid neighbours, at scales where
        # the code-space transform keeps it exact, with the absmax entry pinned.
        ties = (g[:-1] + g[1:]) / 2
        for k in (-30, 0, 3, 40):
            x = np.append(ties, g[-1])[None, :] * 2.0 ** k
            assert np.array_equal((x / np.max(x) * g[-1])[0, :-1], ties)
            inputs.append(x)
        for x in inputs:
            out = qdq(x, spec)
            amax = float(np.max(np.abs(x)))
            scale = amax / g[-1]
            for xv, ov in zip(x.ravel(), out.ravel()):
                code = nearest_grid_even(xv / amax * g[-1], list(g))
                expected = amax * np.sign(code) if abs(code) == g[-1] \
                    else code * scale
                assert ov == expected

    def test_nonfinite_errors_with_index(self):
        for bad in (np.inf, -np.inf, np.nan):
            x = np.zeros((2, 2))
            x[1, 0] = bad
            with pytest.raises(ValueError, match=r"\(1, 0\)"):
                qdq(x, QuantSpec(format=QuantFormat.INT4))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(x=arrays(np.float64, (3, 4),
                    elements=st.floats(-100, 100, allow_nan=False)),
           fmt=st.sampled_from(ALL_FORMATS))
    def test_bounded_and_sign_preserving(self, x, fmt):
        out = qdq(x, QuantSpec(format=fmt))
        amax = float(np.max(np.abs(x)))
        assert np.all(np.abs(out) <= amax)
        assert np.all((out == 0) | (np.sign(out) == np.sign(x)))
        assert not np.any((out == 0) & np.signbit(out))  # zero is +0.0
        # E1M2's grid is 0.25 x INT4's codes, so absmax scaling cancels it.
        assert qdq(x, QuantSpec(format=QuantFormat.FP4_E1M2)).tobytes() == \
            qdq(x, QuantSpec(format=QuantFormat.INT4)).tobytes()

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_error_bound(self, fmt):
        rng = make_rng(31)
        spec = QuantSpec(format=fmt)
        g = grid(fmt)
        widest_gap = float(np.max(np.diff(g)))
        for _ in range(20):
            x = rng.standard_normal((6, 6))
            out = qdq(x, spec)
            scale = float(np.max(np.abs(x))) / g[-1]
            # tiny slack for the code-space round trip
            assert np.max(np.abs(out - x)) <= scale * widest_gap / 2 * (1 + 1e-12)
