import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stablespam import oracles, quant, selftest
from stablespam.quant import QuantSpec, qdq
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
    return len(oracles.grid(fmt.value)) // 2  # the codes run from -top to top


PIN_CASES = [(fmt, needed) for fmt in ALL_FORMATS for needed in (True, False)
             if absmax_with_pin(top_code(fmt), needed)]
PIN_IDS = [f"{fmt.value}-{'pinned' if needed else 'unpinned'}"
           for fmt, needed in PIN_CASES]


class TestGrid:
    """The reference grids in ``oracles``, built from each bit layout."""

    def test_int2(self):
        assert list(oracles.grid("int2")) == [-1.0, 0.0, 1.0]

    def test_int3(self):
        assert list(oracles.grid("int3")) == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0,
                                               3.0]

    def test_int4(self):
        g = oracles.grid("int4")
        assert len(g) == 15
        assert g[-1] == 7.0
        assert np.array_equal(g, -g[::-1])

    def test_fp4_e1m2(self):
        # Subnormals m/4 at exponent 0, normals 1 + m/4 at exponent 1.
        g = oracles.grid("fp4_e1m2")
        magnitudes = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
        assert list(g) == [-v for v in magnitudes[:0:-1]] + magnitudes
        assert not np.signbit(g[7])

    def test_none_has_no_grid(self):
        with pytest.raises(ValueError):
            oracles.grid("none")


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


# Entries of either sign from 1e-8 to 1e8 in size, and exact zeros
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
    st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0), st.integers(-8, 7)))


@st.composite
def reference_cases(draw):
    """A format and a matrix of up to 4x5 for it: of ``ENTRIES``, or, as the
    grid-snap entry builds its exact ties, of the format's grid values and
    the midpoints between them, times one 2^k, with +-top * 2^k as the
    absmax entry."""
    fmt = draw(st.sampled_from(ALL_FORMATS))
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 5)))
    if draw(st.booleans()):
        return fmt, draw(arrays(np.float64, shape, elements=ENTRIES))
    g = oracles.grid(fmt.value)
    values = np.concatenate([g, (g[:-1] + g[1:]) / 2])
    x = draw(arrays(np.float64, shape, elements=st.sampled_from(values)))
    x.flat[draw(st.integers(0, x.size - 1))] = draw(st.sampled_from(
        [-1.0, 1.0])) * g[-1]
    return fmt, x * 2.0 ** draw(st.integers(-30, 40))


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=reference_cases())
    def test_equals_the_reference_quantizer(self, case):
        fmt, x = case
        assert qdq(x, fmt).tobytes() == oracles.qdq(x, fmt.value).tobytes()

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
        g = oracles.grid(fmt.value)
        widest_gap = float(np.max(np.diff(g)))
        for _ in range(20):
            x = rng.standard_normal((6, 6))
            out = qdq(x, fmt)
            scale = float(np.max(np.abs(x))) / g[-1]
            # tiny slack for the code-space round trip
            assert np.max(np.abs(out - x)) <= scale * widest_gap / 2 * (1 + 1e-12)
