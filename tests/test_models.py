import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablespam import models, oracles
from stablespam.models import (QuadraticProblem, _sigmoid, init_mlp,
                               inject_spikes, make_dataset, make_quadratic,
                               mlp_forward_backward, mlp_loss,
                               quadratic_loss_grad, rmsnorm_fwd_bwd,
                               swiglu_fwd_bwd)
from stablespam.quant import QuantSpec
from stablespam.tensor_core import make_rng
from tasks import memory_orders


# ---------------------------------------------------------------------------
# Quadratic bowl
# ---------------------------------------------------------------------------

class TestQuadratic:
    def test_matrix_exactly_symmetric_and_spd(self):
        p = make_quadratic(8, make_rng(0))
        assert np.array_equal(p.a, p.a.T)
        assert np.all(np.linalg.eigvalsh(p.a) > 0)

    def test_gradient_vanishes_at_optimum(self):
        p = make_quadratic(6, make_rng(1))
        _, grad = quadratic_loss_grad(p, np.linalg.solve(p.a, p.b))
        assert np.max(np.abs(grad)) < 1e-10

    def test_identity_matrix_closed_form(self):
        b = np.array([[1.0], [2.0]])
        w = np.array([[3.0], [4.0]])
        p = QuadraticProblem(a=np.eye(2), b=b, w0=w)
        loss, grad = quadratic_loss_grad(p, w)
        assert loss == pytest.approx(0.5 * 25.0 - 11.0, rel=1e-15, abs=0)
        assert np.allclose(grad, w - b, rtol=0, atol=0)



# ---------------------------------------------------------------------------
# RMSNorm
# ---------------------------------------------------------------------------

class TestRmsNorm:
    def test_unit_gain_constant_row(self):
        y, _ = rmsnorm_fwd_bwd(np.array([[2.0, 2.0, 2.0]]), np.ones((1, 3)))
        assert np.allclose(y, 1.0, rtol=1e-8, atol=1e-8)

    def test_scale_equivariance_of_output(self):
        rng = make_rng(3)
        x = rng.standard_normal((4, 6))
        gain = rng.standard_normal((1, 6))
        y1, _ = rmsnorm_fwd_bwd(x, gain)
        y2, _ = rmsnorm_fwd_bwd(10.0 * x, gain)
        assert np.allclose(y1, y2, rtol=1e-6, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 40),
           x_scale=st.integers(-60, 60), dy_scale=st.integers(-60, 60),
           zero=st.sampled_from([0.0, -0.0]), zeroed=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_gain_only_backward_keeps_dgain_bytes(self, rows, cols, x_scale,
                                                  dy_scale, zero, zeroed,
                                                  seed):
        # The first block asks for dgain alone; it must be the very bytes
        # the backward returns along with dx. A share of the entries of x
        # and dy is a signed zero.
        rng = make_rng(seed)
        x = rng.standard_normal((rows, cols)) * 10.0**x_scale
        dy = rng.standard_normal((rows, cols)) * 10.0**dy_scale
        x[rng.random(x.shape) < zeroed] = zero
        dy[rng.random(dy.shape) < zeroed] = zero
        _, backward = rmsnorm_fwd_bwd(x, rng.standard_normal((1, cols)))
        _, dgain = backward(dy)
        dx, dgain_only = backward(dy, False)
        assert dx is None
        assert dgain_only.tobytes() == dgain.tobytes()



# ---------------------------------------------------------------------------
# SwiGLU
# ---------------------------------------------------------------------------

def two_branch_sigmoid(z):
    """The stable logistic, one masked branch per sign of z."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_matches_two_branch_formula_bitwise(self):
        # Signed zeros, subnormals, the ends of exp's range (e^-745 is the
        # least subnormal, e^-800 underflows to 0) and ordinary values.
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                 745.0, -745.0, 800.0, -800.0]
        z = np.concatenate([edges, make_rng(17).standard_normal(246) * 8.0])
        z = z.reshape(16, 16)
        got = _sigmoid(z)  # any RuntimeWarning fails the test
        assert got.tobytes() == two_branch_sigmoid(z).tobytes()


class TestSwiGlu:
    def test_zero_up_projection_gives_zero(self):
        rng = make_rng(5)
        x = rng.standard_normal((2, 3))
        w_gate = rng.standard_normal((3, 4))
        y, _ = swiglu_fwd_bwd(x, w_gate, np.zeros((3, 4)))
        assert np.array_equal(y, np.zeros((2, 4)))

    def test_silu_at_zero_is_zero(self):
        y, _ = swiglu_fwd_bwd(np.zeros((1, 2)), np.ones((2, 2)), np.ones((2, 2)))
        assert np.array_equal(y, np.zeros((1, 2)))



# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

class TestMlp:
    def _model(self, seed=7, quant=QuantSpec.NONE, depth=2):
        return init_mlp(6, 8, depth, 3, make_rng(seed), quant=quant)

    def test_param_shapes(self):
        m = self._model()
        assert m.params["block0.gain"].shape == (1, 6)
        assert m.params["block0.w_gate"].shape == (6, 8)
        assert m.params["block1.w_up"].shape == (8, 8)
        assert m.params["out.w"].shape == (8, 3)

    def test_uniform_logits_loss_is_log_classes(self):
        m = self._model()
        m.params["out.w"][...] = 0.0
        x = make_rng(8).standard_normal((10, 6))
        labels = np.arange(10) % 3
        assert mlp_loss(m, x, labels) == pytest.approx(math.log(3), rel=1e-12,
                                                       abs=0)

    def test_a_probability_of_zero_costs_the_log_guard(self):
        # depth 0: logits = x @ out.w. A head weight of 1e4 sets label 1's
        # probability to 0, and the guard makes its loss -log(1e-300):
        # finite, so a run records it and does not call it a divergence.
        m = init_mlp(6, 8, 0, 3, make_rng(0))
        m.params["out.w"][...] = 0.0
        m.params["out.w"][0, 0] = 1e4
        loss = mlp_loss(m, np.eye(1, 6), np.array([1]))
        assert loss == -math.log(1e-300) == 690.7755278982137

    def test_quantized_forward_exact_on_grid(self):
        # depth 0: logits = qdq(x) @ qdq(w). With x and w already on an
        # absmax-scaled grid the quantizer is exact, so the quantized loss
        # equals the unquantized one bit for bit.
        m = init_mlp(4, 8, 0, 2, make_rng(11), quant=QuantSpec.INT4)
        scale = 0.5 / 7.0
        g = oracles.grid("int4")
        rng = make_rng(12)
        m.params["out.w"] = rng.choice(g, size=(4, 2)) * scale
        m.params["out.w"].ravel()[0] = 7 * scale  # pin absmax to a grid point
        x = rng.choice(g, size=(6, 4)) * (1.25 / 7.0)
        x.ravel()[0] = 7 * (1.25 / 7.0)
        labels = np.arange(6) % 2
        quantized = mlp_loss(m, x, labels)
        plain = mlp_loss(replace(m, quant=QuantSpec.NONE), x, labels)
        assert quantized == plain

    def test_quantization_changes_loss_off_grid(self):
        m = self._model(seed=13, quant=QuantSpec.INT4)
        x = make_rng(14).standard_normal((8, 6))
        labels = np.arange(8) % 3
        plain = replace(m, quant=QuantSpec.NONE)
        assert mlp_loss(m, x, labels) != mlp_loss(plain, x, labels)

    def test_straight_through_gradient_shapes_and_finiteness(self):
        m = self._model(seed=15, quant=QuantSpec.FP4_E1M2)
        x = make_rng(16).standard_normal((5, 6))
        labels = np.array([0, 1, 2, 0, 1])
        _, grads = mlp_forward_backward(m, x, labels)
        assert set(grads) == set(m.params)
        for name, g in grads.items():
            assert g.shape == m.params[name].shape
            assert np.all(np.isfinite(g))

    def test_depth_three_int4_gradients_keep_their_bytes(self, monkeypatch):
        # Only block 0 skips its input gradient: blocks 1 and 2 must pass
        # theirs down. The loss and every gradient are the bytes of a twin
        # backward whose RMSNorm backward always forms the input gradient.
        m = self._model(seed=19, quant=QuantSpec.INT4, depth=3)
        x = make_rng(20).standard_normal((16, 6))

        def loss_and_grads():
            loss, grads = mlp_forward_backward(m, x, np.arange(16) % 3)
            return loss.hex(), [(k, g.tobytes()) for k, g in grads.items()]

        def forming_dx(x, gain, layer=models.rmsnorm_fwd_bwd):
            y, backward = layer(x, gain)
            return y, lambda dy, want_dx: backward(dy)

        skipping = loss_and_grads()
        monkeypatch.setattr(models, "rmsnorm_fwd_bwd", forming_dx)
        assert loss_and_grads() == skipping

    def test_list_batch_matches_array_batch(self):
        # mlp_forward_backward and mlp_loss are the model's doors: a batch
        # given as nested lists gives the bytes the same array gives.
        m = self._model(seed=17, quant=QuantSpec.INT4)
        x = make_rng(18).standard_normal((5, 6))
        labels = np.array([0, 1, 2, 0, 1])
        loss, grads = mlp_forward_backward(m, x, labels)
        loss_l, grads_l = mlp_forward_backward(m, x.tolist(), labels.tolist())
        assert loss_l.hex() == loss.hex()
        assert grads_l.keys() == grads.keys()
        assert all(grads_l[k].tobytes() == g.tobytes()
                   for k, g in grads.items())
        assert mlp_loss(m, x.tolist(), labels.tolist()).hex() == \
            mlp_loss(m, x, labels).hex()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40),
           cols=st.integers(1, 40), fmt=st.sampled_from(["none", "int4"]))
    def test_the_doors_read_values_not_memory_order(self, seed, rows, cols,
                                                    fmt):
        # Each order of memory_orders gives, at each door, the bytes that
        # the C-ordered batch gives: the loss and every gradient, the loss
        # alone, and the spiked batch, which is C-ordered itself.
        rng = make_rng(seed)
        m = init_mlp(cols, 8, 2, 3, rng, quant=QuantSpec.from_name(fmt))
        x = rng.standard_normal((rows, cols)) * 3.0
        labels = rng.integers(0, 3, rows)
        doors = {}
        for order, batch in memory_orders(x).items():
            loss, grads = mlp_forward_backward(m, batch, labels)
            spiked = inject_spikes(batch, 0.3, 0.5, make_rng(seed))
            assert spiked.flags.c_contiguous, order
            doors[order] = [loss.hex(), mlp_loss(m, batch, labels).hex(),
                            spiked.tobytes()] + [
                name.encode() + g.tobytes() for name, g in grads.items()]
        for order, got in doors.items():
            assert got == doors["C"], order


# ---------------------------------------------------------------------------
# Data and spikes
# ---------------------------------------------------------------------------

class TestDataset:
    def test_balanced_and_reproducible(self):
        d1 = make_dataset(120, 5, 4, seed=0)
        d2 = make_dataset(120, 5, 4, seed=0)
        assert np.array_equal(d1.inputs, d2.inputs)
        assert np.array_equal(d1.labels, d2.labels)
        counts = np.bincount(d1.labels, minlength=4)
        assert np.all(counts == 30)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_dataset(64, 5, 4, seed=0).inputs,
                                  make_dataset(64, 5, 4, seed=1).inputs)

    def test_clusters_centered(self):
        d = make_dataset(4000, 3, 2, seed=2)
        for c in range(2):
            pts = d.inputs[d.labels == c]
            assert np.max(np.abs(pts.mean(axis=0) - d.centers[c])) < 0.1


class TestInjectSpikes:
    def test_zero_probability_or_severity_is_identity(self):
        x = make_rng(17).standard_normal((4, 4))
        assert np.array_equal(inject_spikes(x, 0.0, 0.5, make_rng(0)), x)
        assert np.array_equal(inject_spikes(x, 0.5, 0.0, make_rng(0)), x)

    def test_does_not_mutate_input(self):
        x = make_rng(18).standard_normal((4, 4))
        saved = x.copy()
        inject_spikes(x, 1.0, 1.0, make_rng(0))
        assert np.array_equal(x, saved)

    def test_full_probability_noise_std(self):
        x = np.full((100, 100), 2.0)
        out = inject_spikes(x, 1.0, 1.0, make_rng(19))
        noise = out - x
        assert float(np.std(noise)) == pytest.approx(2.0, rel=0.05, abs=1e-12)

    def test_partial_probability_hits_expected_fraction(self):
        x = np.ones((200, 200))
        out = inject_spikes(x, 0.1, 1.0, make_rng(20))
        frac = float(np.mean(out != x))
        assert frac == pytest.approx(0.1, rel=0, abs=0.01)

    def test_invalid_arguments(self):
        x = np.ones((2, 2))
        with pytest.raises(ValueError):
            inject_spikes(x, -0.1, 1.0, make_rng(0))
        with pytest.raises(ValueError):
            inject_spikes(x, 0.5, -1.0, make_rng(0))
