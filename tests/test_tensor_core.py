import re
import tracemalloc

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stablespam import tensor_core
from stablespam.harness import ModelConfig, RunConfig, ScheduleConfig
from stablespam.tensor_core import as_matrix, frobenius_norm, make_rng, matmul
from tasks import int4_cfg, run_python, step_calls


def naive_matmul(a, b):
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            total = 0.0
            for k in range(inner):
                total += a[i, k] * b[k, j]
            out[i, j] = total
    return out


def operand(rng, rows, cols, layout):
    """A (rows, cols) matrix of signed entries with magnitudes 1e-8..1e8,
    laid out C-ordered, Fortran-ordered, as a transposed view (as SwiGLU's
    backward passes ``w.T``) or as a strided slice of a larger array."""
    def draw(r, c):
        sign = rng.choice([-1.0, 1.0], size=(r, c))
        return sign * 10.0 ** rng.uniform(-8.0, 8.0, size=(r, c))
    if layout == "F":
        return np.asfortranarray(draw(rows, cols))
    if layout == "T":
        return draw(cols, rows).T
    if layout == "slice":
        return draw(2 * rows, cols + 2)[::2, 1:-1]
    return draw(rows, cols)


LAYOUTS = st.sampled_from(["C", "F", "T", "slice"])
INF, NAN = np.inf, np.nan


def special_block(n=16, m=16):
    """An n x 8 @ 8 x m product of signed zeros with an inf, a -inf, a nan
    and a row of ones; at 64x4 it is summed as (b.T @ a.T).T."""
    a = np.full((n, 8), -0.0)
    a[3, 2], a[5, 1], a[7, 4] = INF, NAN, -INF
    a[9] = 1.0
    b = np.tile([0.0, -1.0, INF, -0.0], (8, m // 4))
    return a, b


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(np.eye(2), b), b)

    def test_hand_arithmetic(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    # A 1x1 output with k >= 8 is where a sum over k alone turns pairwise
    # or multi-accumulator (seeds 2 and 3 draw sums whose pairwise order
    # rounds differently); (2, 9, 1), (1, 9, 2) and (1, 8, 1) sit on both
    # sides of n * m == 1, where matmul switches from one einsum to one add
    # per k. With m < n the product is summed as (b.T @ a.T).T: at
    # (32, 32, 4), (32, 32, 8), (64, 40, 16), (2, 17000, 1) and the
    # validation pass's (256, 32, 8); (256, 4, 32) is that pass's other
    # tall shape. The benchmark's shapes are here with the operand layouts
    # the MLP passes (x.T, w.T). Odd widths such as 37 and 67 run einsum's
    # scalar tail after its vector loop.
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), k=st.integers(0, 40), m=st.integers(1, 40),
           la=LAYOUTS, lb=LAYOUTS, seed=st.integers(0, 2**32 - 1))
    @example(n=5, k=7, m=3, la="C", lb="C", seed=0)
    @example(n=1, k=8, m=1, la="C", lb="C", seed=2)
    @example(n=8, k=8, m=1, la="C", lb="C", seed=1)
    @example(n=1, k=9, m=1, la="slice", lb="F", seed=3)
    @example(n=40, k=7, m=1, la="T", lb="C", seed=4)
    @example(n=1, k=1, m=1, la="C", lb="C", seed=5)
    @example(n=3, k=0, m=5, la="C", lb="C", seed=6)
    @example(n=32, k=32, m=32, la="C", lb="T", seed=7)
    @example(n=40, k=37, m=40, la="F", lb="slice", seed=8)
    @example(n=192, k=3, m=192, la="T", lb="C", seed=9)
    @example(n=32, k=32, m=4, la="C", lb="T", seed=10)
    @example(n=4, k=32, m=32, la="T", lb="C", seed=11)
    @example(n=32, k=32, m=8, la="C", lb="C", seed=12)
    @example(n=32, k=4, m=32, la="C", lb="C", seed=13)
    @example(n=8, k=31, m=8, la="C", lb="C", seed=14)
    @example(n=8, k=32, m=8, la="C", lb="C", seed=15)
    @example(n=2, k=9, m=1, la="C", lb="C", seed=16)
    @example(n=1, k=9, m=2, la="T", lb="C", seed=17)
    @example(n=1, k=8, m=1, la="C", lb="F", seed=18)
    @example(n=2, k=17000, m=1, la="C", lb="C", seed=19)
    @example(n=1, k=33000, m=1, la="slice", lb="C", seed=20)
    @example(n=32, k=32, m=4, la="T", lb="F", seed=21)
    @example(n=32, k=32, m=8, la="slice", lb="T", seed=22)
    @example(n=64, k=40, m=16, la="F", lb="T", seed=23)
    @example(n=256, k=32, m=8, la="T", lb="slice", seed=24)
    @example(n=256, k=32, m=8, la="C", lb="T", seed=25)
    @example(n=256, k=4, m=32, la="C", lb="C", seed=26)
    @example(n=2, k=5, m=67, la="F", lb="T", seed=27)
    def test_matches_naive_triple_loop_exactly(self, n, k, m, la, lb, seed):
        # numpy's mean and sum pick pairwise or sequential summation by
        # memory layout, so callers need the result C-ordered, not just equal.
        rng = make_rng(seed)
        a = operand(rng, n, k, la)
        b = operand(rng, k, m, lb)
        out = matmul(a, b)
        assert out.flags.c_contiguous
        assert out.tobytes() == naive_matmul(a, b).tobytes()

    @pytest.mark.parametrize("lb", ["C", "T"])
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (32, 32), (64, 16),
                                      (256, 8)])
    def test_sums_in_ascending_k(self, n, m, lb):
        # Added in ascending k, 2**53 absorbs each 1 and -2**53 cancels it:
        # the sum is exactly 0.0. Any other order keeps some of the ones
        # (np.sum's pairwise order, a blocked BLAS sum, a vectorised sum
        # over k). The tall shapes (2x1, 64x16, 256x8) are summed as
        # (b.T @ a.T).T; lb "T" passes the right operand as a transposed
        # view, as SwiGLU's backward passes w.T.
        column = np.array([2.0**53] + [1.0] * 32 + [-(2.0**53)])
        assert np.sum(column) != 0.0
        a = np.ones((n, len(column)))
        b = (np.tile(column[:, None], (1, m)) if lb == "C"
             else np.tile(column, (m, 1)).T)
        assert matmul(a, b).tobytes() == np.zeros((n, m)).tobytes()

    @pytest.mark.parametrize("a, b", [
        # every product is -0.0: the naive sum starts at +0.0 and stays there
        ([[-0.0, -0.0, 0.0]] * 2, [[1.0, 2.0], [3.0, 4.0], [-1.0, -5.0]]),
        ([[INF, 1.0, NAN], [-INF, INF, 2.0], [1.0, 2.0, 3.0]],
         [[0.0, 1.0], [-1.0, -INF], [2.0, 3.0]]),
        ([[1.0, INF]], [[INF], [-INF]]),
        (np.ones((3, 0)), np.ones((0, 5))),
        (np.ones((0, 3)), np.ones((3, 5))),
        (np.ones((4, 3)), np.ones((3, 0))),
        (np.full((16, 8), -0.0), np.arange(-64.0, 64.0).reshape(8, 16)),
        special_block(),
        special_block(64, 4),
    ], ids=["negative-zero", "inf-nan", "inf-minus-inf", "empty-k",
            "empty-rows", "empty-columns", "negative-zero-einsum",
            "inf-nan-einsum", "inf-nan-einsum-tall"])
    def test_special_values_match_naive(self, a, b):
        # Where two NaNs meet, which one's sign bit survives depends on the
        # operand order the compiled add picks, and numpy's scalar and array
        # loops pick differently; so NaN is compared by position only.
        a, b = np.array(a), np.array(b)
        with np.errstate(invalid="ignore"):
            out = matmul(a, b)
            want = naive_matmul(a, b)
        nan = np.isnan(want)
        assert out.shape == (a.shape[0], b.shape[1])
        assert np.array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("n, k, m", [(256, 4, 32), (256, 32, 32),
                                         (256, 32, 8)])
    def test_validation_pass_bounds_the_temporary(self, n, k, m):
        # The 256-sample validation shapes. matmul keeps no products: it
        # holds the einsum's output, its C-ordered copy when m < n, and one
        # C-ordered copy of an operand, with 16 KiB of slack. A (k, n, m)
        # tensor of the products would take 2 MiB at 256x32x32.
        rng = make_rng(4)
        a = rng.standard_normal((n, k))
        b = rng.standard_normal((k, m))
        tracemalloc.start()
        try:
            matmul(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2 * n * m + k * max(n, m)) + 16 * 1024

    def test_dimension_mismatch_reports_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) x \(2, 3\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def reversed_k(a, b):
    return matmul(a[:, ::-1], b[::-1])


def reversed_k_when_m_lt_n(a, b):
    # matmul's m < n path, which the MLP's 32x32x8 and 32x32x4 products take
    return reversed_k(a, b) if b.shape[1] < a.shape[0] else matmul(a, b)


def fused(a, b):
    # long double keeps x * x unrounded, as a fused multiply-add does
    return np.einsum("ki,kj->ij", a.T.astype(np.longdouble),
                     b.astype(np.longdouble)).astype(np.float64)


@pytest.mark.parametrize("product, prop", [
    (reversed_k, "add the products in ascending k"),
    (reversed_k_when_m_lt_n, "add the products in ascending k"),
    (fused, "round each product before adding it"),
], ids=["reversed-k", "reversed-k-when-m-lt-n", "fused"])
def test_einsum_guard_names_the_broken_property(product, prop):
    tensor_core._check_einsum()
    version = re.escape(np.__version__)
    with pytest.raises(RuntimeError, match=rf"^numpy {version}: einsum does "
                                           rf"not {prop},"):
        tensor_core._check_einsum(product)


def test_import_fails_where_einsum_breaks_the_order():
    # The guard runs at import, through the C einsum entry that matmul
    # binds: a c_einsum that adds in reversed k must fail the import.
    proc = run_python("-c", "import numpy._core.multiarray as multiarray\n"
                      "c_einsum = multiarray.c_einsum\n"
                      "multiarray.c_einsum = (lambda s, a, b:\n"
                      "                       c_einsum(s, a[::-1], b[::-1]))\n"
                      "import stablespam.tensor_core\n")
    assert proc.returncode != 0
    assert ("RuntimeError: numpy " + np.__version__ + ": einsum does not add"
            " the products in ascending k") in proc.stderr


def test_import_fails_without_the_c_einsum_entry():
    # numpy before 2 has no numpy._core.multiarray.c_einsum; the import
    # must say which numpy it found.
    proc = run_python("-c", "import numpy._core.multiarray as multiarray\n"
                      "del multiarray.c_einsum\n"
                      "import stablespam\n")
    assert proc.returncode != 0
    assert (f"ImportError: numpy {np.__version__}: stablespam needs "
            "numpy>=2") in proc.stderr, proc.stderr


def test_one_matmul_per_product():
    # The counts the benchmark's span check expects: 6 per SwiGLU block
    # plus 3 for the head, and 3 per quadratic step.
    mlp = step_calls(int4_cfg("adam", 1e-3, total_steps=8, warmup_steps=2))
    quadratic = step_calls(RunConfig(
        model=ModelConfig(kind="quadratic"),
        schedule=ScheduleConfig(total_steps=8, warmup_steps=2)))
    assert mlp[tensor_core.__file__, "matmul"] == 15
    assert quadratic[tensor_core.__file__, "matmul"] == 3


# numpy builds its float64 loops for several SIMD targets and picks one at
# import. TestMatmul runs again in a process that has the AVX-512 targets
# this host offers disabled, so on the AVX2 loops.
AVX512_TARGETS = [target for target in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
                  if __cpu_features__.get(target)]
CHECK_AVX2_PATH = f"""
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
assert not any(__cpu_features__[f] for f in {AVX512_TARGETS!r})
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider",
                      "tests/test_tensor_core.py::TestMatmul"]))
"""


def test_matmul_matches_naive_on_the_avx2_path():
    proc = run_python("-c", CHECK_AVX2_PATH,
                      NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


class TestNorms:
    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((4, 4))) == 0.0

    def test_matches_direct_summation(self):
        rng = make_rng(1)
        m = rng.standard_normal((10, 10))
        direct = np.sqrt(sum(float(v) ** 2 for v in m.ravel()))
        assert frobenius_norm(m) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False,
                       allow_subnormal=False))
    def test_absolute_homogeneity(self, c):
        # squares underflow below ~1e-150, so stay clear of that range
        assume(c == 0.0 or abs(c) > 1e-140)
        rng = make_rng(2)
        m = rng.standard_normal((3, 3))
        assert frobenius_norm(c * m) == pytest.approx(
            abs(c) * frobenius_norm(m), rel=1e-12, abs=0.0)


    def test_returns_python_float(self):
        assert type(frobenius_norm(np.ones((2, 3)))) is float

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 40), layout=LAYOUTS,
           scale=st.integers(-100, 100), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_wrappers_bytewise(self, rows, cols, layout, scale,
                                             seed):
        # frobenius_norm calls numpy's reduce ufunc directly; the result
        # must be the very bytes of np.sum on any layout.
        m = operand(make_rng(seed), rows, cols, layout) * 10.0**scale
        fro = np.float64(np.sqrt(np.sum(np.square(m))))
        assert np.float64(frobenius_norm(m)).tobytes() == fro.tobytes()


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(1234).standard_normal(1_000_000)
        b = make_rng(1234).standard_normal(1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).standard_normal(100),
                                  make_rng(2).standard_normal(100))


def test_as_matrix_promotes_vectors():
    assert as_matrix([1.0, 2.0]).shape == (1, 2)
    assert as_matrix(3.0).shape == (1, 1)


def test_as_matrix_rejects_three_dimensions():
    with pytest.raises(ValueError, match=r"expected a 2-D matrix, got shape "
                                         r"\(2, 1, 3\)"):
        as_matrix(np.zeros((2, 1, 3)))
