"""Fused backward kernels: bitwise parity with the test-side oracles.

Every layer with a fused backward (``Linear``, ``Conv1d``, ``MaxPool1d``,
``LSTM``, ``BiLSTM``) has one production path; its pre-fusion autograd
form lives in :mod:`tests.oracles`.  These tests pin the contract: same
inputs and cotangents ⇒ *bit-identical* gradients, for hand-picked shapes,
hypothesis-drawn ones and pre-activations beyond the sigmoid fast-path
range, and a two-epoch whole-model trajectory; the persistent gradient
buffer never aliases caller arrays; and the scratch-buffer Adam update
reproduces the allocating one exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.layers import rnn
from repro.nn.layers.conv import Conv1d, MaxPool1d
from repro.nn.layers.linear import Linear
from repro.nn.layers.rnn import BiLSTM, LSTM
from repro.nn.optim.adam import Adam
from repro.nn.optim.schedulers import CyclicCosineLR
from repro.nn.tensor import Tensor
from tests.oracles import adam_step, bind_oracles


def _twin_grads(make_layer, x_shape, seed, prepare=None):
    """Gradients of the same layer/input, production and oracle."""
    rng = np.random.default_rng(seed)
    x_data = rng.standard_normal(x_shape).astype(np.float32)
    out_grads = {}
    for oracle in (False, True):
        layer = make_layer()
        if prepare is not None:
            prepare(layer)
        if oracle:
            bind_oracles(layer)
        x = Tensor(x_data.copy(), requires_grad=True)
        out = layer(x)
        cot = np.random.default_rng(seed + 1) \
            .standard_normal(out.shape).astype(np.float32)
        out.backward(cot)
        out_grads[oracle] = {
            **{name: p.grad.copy() for name, p in layer.named_parameters()},
            "__x__": x.grad.copy(),
        }
    return out_grads


def _assert_twin_parity(make_layer, x_shape, seed=0, prepare=None):
    grads = _twin_grads(make_layer, x_shape, seed, prepare)
    for name in grads[False]:
        assert np.array_equal(grads[False][name], grads[True][name]), (
            f"fused vs oracle gradient of {name} differs for {x_shape}")
    return grads[False]


CASES = [
    ("linear.2d", lambda: Linear(13, 7, rng=0), (8, 13)),
    ("linear.3d", lambda: Linear(5, 9, rng=0), (4, 6, 5)),
    ("linear.nobias", lambda: Linear(13, 7, bias=False, rng=0), (8, 13)),
    ("conv1d.k5", lambda: Conv1d(7, 11, 5, rng=0), (4, 30, 7)),
    ("conv1d.same", lambda: Conv1d(7, 11, 5, padding="same", rng=0), (4, 30, 7)),
    ("conv1d.stride2", lambda: Conv1d(3, 4, 3, stride=2, rng=0), (2, 19, 3)),
    ("maxpool.k2", lambda: MaxPool1d(2), (4, 30, 7)),
    ("maxpool.k3s2", lambda: MaxPool1d(3, stride=2), (4, 30, 7)),
    ("lstm", lambda: LSTM(7, 12, rng=0), (5, 17, 7)),
    ("bilstm", lambda: BiLSTM(7, 12, rng=0), (5, 17, 7)),
    # hidden 1: the recurrent GEMM is a matrix-vector product, whose BLAS
    # rounding depends on the operand's row stride
    ("lstm.h1", lambda: LSTM(3, 1, rng=0), (3, 2, 3)),
    ("bilstm.h1", lambda: BiLSTM(3, 1, rng=0), (5, 17, 3)),
]


class TestFusedGradientParity:
    @pytest.mark.parametrize("name,make_layer,x_shape",
                             CASES, ids=[c[0] for c in CASES])
    def test_bitwise_parity(self, name, make_layer, x_shape):
        _assert_twin_parity(make_layer, x_shape)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 12),
           st.integers(1, 12))
    def test_linear_random_shapes(self, seed, batch, d_in, d_out):
        _assert_twin_parity(
            lambda: Linear(d_in, d_out, rng=seed), (batch, d_in), seed)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(5, 20),
           st.integers(1, 5), st.integers(1, 6), st.integers(1, 5),
           st.integers(1, 2))
    def test_conv1d_random_shapes(self, seed, batch, t, c_in, c_out, k, stride):
        _assert_twin_parity(
            lambda: Conv1d(c_in, c_out, min(k, t), stride=stride, rng=seed),
            (batch, t, c_in), seed)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 12),
           st.integers(1, 5), st.integers(1, 8),
           st.sampled_from([LSTM, BiLSTM]))
    def test_lstm_random_shapes(self, seed, batch, t, d_in, hidden, cls):
        _assert_twin_parity(
            lambda: cls(d_in, hidden, rng=seed), (batch, t, d_in), seed)


class TestLargePreactivations:
    """Gate pre-activations past the sigmoid fast-path bound.

    Scaling ``w_ih`` by 60 pushes :func:`rnn._gate_bound` past
    ``_SIGMOID_SAFE_MAX``: the fused kernel must take the checked
    ``_sigmoid`` per (direction, gate block), stay one fused graph node,
    and still match the oracle bit for bit with finite gradients.
    """

    @pytest.mark.parametrize("cls", [LSTM, BiLSTM], ids=["lstm", "bilstm"])
    def test_scaled_weights_stay_fused_and_match_oracle(self, cls,
                                                        monkeypatch):
        def directions(layer):
            return (layer.fw, layer.bw) if cls is BiLSTM else (layer,)

        def scale(layer):
            for lstm in directions(layer):
                lstm.w_ih.data *= 60.0

        x_shape = (5, 17, 7)
        x = np.random.default_rng(0).standard_normal(x_shape) \
            .astype(np.float32)
        probe = cls(7, 12, rng=0)
        scale(probe)
        assert any(
            rnn._gate_bound(x @ d.w_ih.data + d.bias.data, d.w_hh.data)
            > rnn._SIGMOID_SAFE_MAX for d in directions(probe))

        fused_nodes, checked = [], []
        real_fused, real_sigmoid = rnn._fused_seq_forward, rnn._sigmoid

        def fused_spy(x, dirs, host):
            out = real_fused(x, dirs, host)
            fused_nodes.append(out)
            return out

        def sigmoid_spy(z, out=None):
            checked.append(float(np.max(np.abs(z))) > rnn._SIGMOID_SAFE_MAX)
            return real_sigmoid(z, out)

        monkeypatch.setattr(rnn, "_fused_seq_forward", fused_spy)
        monkeypatch.setattr(rnn, "_sigmoid", sigmoid_spy)
        grads = _assert_twin_parity(lambda: cls(7, 12, rng=0), x_shape,
                                    prepare=scale)
        # One fused node (x plus three parameters per direction), and the
        # overflow-safe sigmoid branch really ran inside it.
        assert len(fused_nodes) == 1
        assert len(fused_nodes[0]._parents) == 1 + 3 * len(directions(probe))
        assert any(checked)
        for name, g in grads.items():
            assert np.isfinite(g).all(), name


class TestFusedScratchGuard:
    @pytest.mark.parametrize("cls", [LSTM, BiLSTM], ids=["lstm", "bilstm"])
    def test_backward_after_newer_forward_raises(self, cls):
        # The fused kernel's caches live in per-layer scratch that the
        # next grad-mode forward overwrites.
        layer = cls(3, 4, rng=0)
        x = Tensor(np.ones((2, 5, 3), np.float32), requires_grad=True)
        first = layer(x)
        layer(x)
        with pytest.raises(RuntimeError,
                           match="call backward before the next forward"):
            first.backward(np.ones(first.shape, np.float32))


class TestGradientBuffer:
    """The persistent ``_grad_buf`` contract fused kernels rely on."""

    def test_first_contribution_is_copied(self):
        # Fused layers pass scratch they overwrite next batch; _accum must
        # never retain the caller's array by reference.
        p = Tensor(np.zeros(4, np.float32), requires_grad=True)
        scratch = np.arange(4, dtype=np.float32)
        p._accum(scratch)
        scratch[:] = -1.0
        np.testing.assert_array_equal(p.grad, [0.0, 1.0, 2.0, 3.0])
        assert p.grad is not scratch

    def test_zero_grad_keeps_buffer(self):
        p = Tensor(np.zeros(4, np.float32), requires_grad=True)
        p._accum(np.ones(4, np.float32))
        buf = p.grad
        p.zero_grad()
        assert p.grad is None
        p._accum(np.full(4, 2.0, np.float32))
        assert p.grad is buf  # refilled in place, no fresh allocation
        np.testing.assert_array_equal(p.grad, np.full(4, 2.0))

    def test_second_contribution_adds_in_place(self):
        p = Tensor(np.zeros(3, np.float32), requires_grad=True)
        p._accum(np.ones(3, np.float32))
        buf = p.grad
        p._accum(np.full(3, 2.0, np.float32))
        assert p.grad is buf
        np.testing.assert_array_equal(p.grad, np.full(3, 3.0))

    def test_externally_assigned_grad_not_mutated(self):
        p = Tensor(np.zeros(3, np.float32), requires_grad=True)
        external = np.ones(3, np.float32)
        p.grad = external
        p._accum(np.ones(3, np.float32))
        np.testing.assert_array_equal(external, np.ones(3))  # untouched
        np.testing.assert_array_equal(p.grad, np.full(3, 2.0))

    def test_module_zero_grad_in_place(self):
        layer = Linear(5, 3, rng=0)
        x = Tensor(np.ones((2, 5), np.float32), requires_grad=True)
        layer(x).backward(np.ones((2, 3), np.float32))
        bufs = {n: p.grad for n, p in layer.named_parameters()}
        layer.zero_grad()
        assert all(p.grad is None for _, p in layer.named_parameters())
        layer(x).backward(np.ones((2, 3), np.float32))
        for n, p in layer.named_parameters():
            assert p.grad is bufs[n]


class TestAdamFastPath:
    def _steps(self, step, scheduled=False, n_steps=5, seed=0):
        """Parameters and both moments after ``n_steps`` of ``step(opt)``;
        ``scheduled`` sets the lr from a ``CyclicCosineLR`` every step."""
        rng = np.random.default_rng(seed)
        params = [Tensor(rng.standard_normal(s).astype(np.float32),
                         requires_grad=True)
                  for s in [(4, 3), (3,), (2, 2, 2)]]
        opt = Adam(params, lr=1e-3, weight_decay=1e-4)
        sched = CyclicCosineLR(opt, cycle_len=3) if scheduled else None
        grad_rng = np.random.default_rng(seed + 1)
        for _ in range(n_steps):
            for p in params:
                p.zero_grad()
                p._accum(grad_rng.standard_normal(p.data.shape)
                         .astype(np.float32))
            step(opt)
            if sched is not None:
                sched.step()
        lr_type = type(opt.lr)
        return lr_type, [a.copy() for a in
                         [p.data for p in params] + opt._m + opt._v]

    def _assert_matches_oracle(self, scheduled):
        lr_type, fast = self._steps(Adam.step, scheduled)
        _, oracle = self._steps(adam_step, scheduled)
        for a, b in zip(fast, oracle):
            assert np.array_equal(a, b)
        return lr_type

    def test_fast_matches_legacy_bitwise(self):
        assert self._assert_matches_oracle(scheduled=False) is float

    def test_scheduled_lr_matches_legacy_bitwise(self):
        # CyclicCosineLR hands Adam a numpy.float64 lr, as in every
        # scheduled RNN run after its first epoch.
        assert self._assert_matches_oracle(scheduled=True) is np.float64

    def test_fast_path_does_not_allocate_per_step(self):
        p = Tensor(np.ones((8, 8), np.float32), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        p._accum(np.ones((8, 8), np.float32))
        opt.step()
        scratch = opt._scratch
        assert scratch is not None
        opt.step()
        assert opt._scratch is scratch  # reused, not reallocated


class TestWholeModelParity:
    def test_two_epoch_trajectory(self):
        # The composition gate: all-production vs all-oracle training must
        # walk the same trajectory (losses, accuracies, learning rates,
        # final parameters) bit for bit.
        from repro.models import LSTMClassifier
        from repro.nn import NLLLoss, Trainer

        rng = np.random.default_rng(0)
        X = rng.standard_normal((64, 20, 7)).astype(np.float32)
        y = rng.integers(0, 5, size=64).astype(np.int64)
        runs = {}
        for oracle in (False, True):
            model = LSTMClassifier(n_sensors=7, seq_len=20, n_classes=5,
                                   hidden_size=16, dropout=0.5, seed=0)
            if oracle:
                bind_oracles(model)
            trainer = Trainer(model, Adam(model.parameters(), lr=1e-3),
                              NLLLoss(), batch_size=16, max_epochs=2,
                              patience=100, shuffle_rng=0)
            hist = trainer.fit(X, y, X[:16], y[:16])
            runs[oracle] = (
                [(e.epoch, e.train_loss, e.val_accuracy, e.lr)
                 for e in hist.epochs],
                {n: p.data.copy() for n, p in model.named_parameters()},
            )
        assert runs[False][0] == runs[True][0]
        for name, value in runs[False][1].items():
            assert np.array_equal(value, runs[True][1][name]), name
