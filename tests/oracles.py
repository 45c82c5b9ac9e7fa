"""Reference implementations the parity gates compare production code to.

Each production class has one forward and one backward (or one predict
path); the slow, allocating forms they replaced live here as plain
functions of the layer, model or optimizer and its input.  They are the
textbook formulations — fresh arrays per step, per-op graph chains,
per-tree loops — and the fast paths must match them bit for bit:

* :func:`linear_forward`, :func:`conv1d_forward`,
  :func:`maxpool1d_forward`, :func:`lstm_forward`,
  :func:`bilstm_forward` and :func:`bilstm_final_states` — the autograd
  references of the fused layer kernels; :func:`bind_oracles` installs
  them as instance methods across a whole model, so ``model(x)`` runs
  every layer through its oracle;
* :func:`forest_predict_proba` and :func:`boosting_margins` — per-tree
  loops for the flattened joint tree traversal;
* :func:`adam_step` — the allocating Adam update.
"""

from __future__ import annotations

import types

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.layers.conv import Conv1d, MaxPool1d
from repro.nn.layers.linear import Linear
from repro.nn.layers.rnn import BiLSTM, LSTM, _sigmoid
from repro.nn.tensor import Tensor
from repro.utils.validation import check_2d


# ----------------------------------------------------------------------
# nn layers
# ----------------------------------------------------------------------
def linear_forward(layer: Linear, x: Tensor) -> Tensor:
    """Per-op chain: reshape → matmul → add → reshape."""
    layer._check_input(x)
    flat = x.reshape(-1, layer.in_features) if x.ndim != 2 else x
    out = flat @ layer.weight
    if layer.bias is not None:
        out = out + layer.bias
    if x.ndim != 2:
        out = out.reshape(*x.shape[:-1], layer.out_features)
    return out


def conv1d_forward(layer: Conv1d, x: Tensor) -> Tensor:
    """Strided-window convolution with an allocating backward."""
    stride, K, pad = layer.stride, layer.kernel_size, layer._pad
    w, b = layer.weight, layer.bias
    x_data = x.data
    if pad:
        x_data = np.pad(x_data, ((0, 0), (pad, pad), (0, 0)))
    windows = sliding_window_view(x_data, K, axis=1)[:, ::stride]
    out = np.einsum("ntck,ock->nto", windows, w.data, optimize=True)
    if b is not None:
        out = out + b.data
    out = np.ascontiguousarray(out, dtype=x.dtype)
    offsets = np.arange(out.shape[1]) * stride

    def backward(g):
        # One fresh array per gradient.
        if w.requires_grad:
            w._accum(np.einsum("nto,ntck->ock", g, windows, optimize=True))
        if b is not None and b.requires_grad:
            b._accum(g.sum(axis=(0, 1)))
        if x.requires_grad:
            dxw = np.einsum("nto,ock->ntck", g, w.data, optimize=True)
            dx = np.zeros_like(x_data)
            for k in range(K):
                dx[:, offsets + k, :] += dxw[:, :, :, k]
            if pad:
                dx = dx[:, pad:-pad, :]
            x._accum(dx)

    parents = (x, w) if b is None else (x, w, b)
    return Tensor.from_op(out, parents, backward)


def maxpool1d_forward(layer: MaxPool1d, x: Tensor) -> Tensor:
    """Argmax gather with an allocating ``np.add.at`` scatter backward."""
    K, stride = layer.kernel_size, layer.stride
    windows = sliding_window_view(x.data, K, axis=1)[:, ::stride]
    arg = windows.argmax(axis=3)
    out = np.take_along_axis(windows, arg[..., None], axis=3)[..., 0]
    out = np.ascontiguousarray(out, dtype=x.dtype)
    n, t_out, c = out.shape
    offsets = np.arange(t_out) * stride

    def backward(g):
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        time_idx = offsets[None, :, None] + arg
        n_idx = np.arange(n)[:, None, None]
        c_idx = np.arange(c)[None, None, :]
        np.add.at(dx, (n_idx, time_idx, c_idx), g)
        x._accum(dx)

    return Tensor.from_op(out, (x,), backward)


def lstm_forward(layer: LSTM, x: Tensor, reverse: bool = False) -> Tensor:
    """Textbook LSTM forward and BPTT backward, fresh temporaries per step."""
    N, T, _D = x.shape
    H = layer.hidden_size
    w_ih, w_hh, bias = layer.w_ih, layer.w_hh, layer.bias

    # A contiguous copy when reversed: reshaping the reversed view already
    # copies for N > 1, and at N == 1 it would hand the weight-gradient
    # GEMM a negative-stride operand that numpy reduces in another order.
    xs = np.ascontiguousarray(x.data[:, ::-1]) if reverse else x.data
    zx = xs.reshape(N * T, -1) @ w_ih.data
    zx = zx.reshape(N, T, 4 * H) + bias.data

    gates = np.empty((T, N, 4 * H), dtype=np.float32)  # activated i,f,g,o
    cells = np.empty((T, N, H), dtype=np.float32)
    tanh_c = np.empty((T, N, H), dtype=np.float32)
    h_prev_all = np.empty((T, N, H), dtype=np.float32)
    h = np.zeros((N, H), dtype=np.float32)
    c = np.zeros((N, H), dtype=np.float32)
    out = np.empty((N, T, H), dtype=np.float32)

    for t in range(T):
        h_prev_all[t] = h
        z = zx[:, t] + h @ w_hh.data
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = _sigmoid(z[:, 3 * H:])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[t, :, :H] = i
        gates[t, :, H:2 * H] = f
        gates[t, :, 2 * H:3 * H] = g
        gates[t, :, 3 * H:] = o
        cells[t] = c
        tanh_c[t] = tc
        out[:, t] = h

    out_final = out[:, ::-1].copy() if reverse else out

    def backward(grad_out: np.ndarray) -> None:
        g_out = grad_out[:, ::-1] if reverse else grad_out
        dz_all = np.empty((T, N, 4 * H), dtype=np.float32)
        dh_next = np.zeros((N, H), dtype=np.float32)
        dc_next = np.zeros((N, H), dtype=np.float32)
        w_hh_T = w_hh.data.T
        for t in range(T - 1, -1, -1):
            i = gates[t, :, :H]
            f = gates[t, :, H:2 * H]
            gg = gates[t, :, 2 * H:3 * H]
            o = gates[t, :, 3 * H:]
            tc = tanh_c[t]
            c_prev = cells[t - 1] if t > 0 else np.zeros((N, H), np.float32)

            dh = g_out[:, t] + dh_next
            do = dh * tc
            dc = dh * o * (1.0 - tc**2) + dc_next
            di = dc * gg
            df = dc * c_prev
            dg = dc * i
            dz = dz_all[t]
            dz[:, :H] = di * i * (1.0 - i)
            dz[:, H:2 * H] = df * f * (1.0 - f)
            dz[:, 2 * H:3 * H] = dg * (1.0 - gg**2)
            dz[:, 3 * H:] = do * o * (1.0 - o)
            dh_next = dz @ w_hh_T
            dc_next = dc * f

        dz_flat = dz_all.transpose(1, 0, 2).reshape(N * T, 4 * H)
        if w_ih.requires_grad:
            w_ih._accum(xs.reshape(N * T, -1).T @ dz_flat)
        if w_hh.requires_grad:
            hp = h_prev_all.transpose(1, 0, 2).reshape(N * T, H)
            w_hh._accum(hp.T @ dz_flat)
        if bias.requires_grad:
            bias._accum(dz_flat.sum(axis=0))
        if x.requires_grad:
            dxs = (dz_flat @ w_ih.data.T).reshape(N, T, -1)
            x._accum(dxs[:, ::-1] if reverse else dxs)

    return Tensor.from_op(out_final, (x, w_ih, w_hh, bias), backward)


def bilstm_forward(layer: BiLSTM, x: Tensor) -> Tensor:
    """Two single-direction reference passes, concatenated on channels."""
    out_f = lstm_forward(layer.fw, x)
    out_b = lstm_forward(layer.bw, x, reverse=True)
    return Tensor.concatenate([out_f, out_b], axis=2)


def bilstm_final_states(layer: BiLSTM, output: Tensor) -> Tensor:
    """Per-op chain: two ``__getitem__`` scatters and a concatenate."""
    H = layer.hidden_size
    return Tensor.concatenate([output[:, -1, :H], output[:, 0, H:]], axis=1)


_LAYER_ORACLES = {
    Linear: linear_forward,
    Conv1d: conv1d_forward,
    MaxPool1d: maxpool1d_forward,
    LSTM: lstm_forward,
    BiLSTM: bilstm_forward,
}


def bind_oracles(model):
    """Route every fused layer of ``model`` (itself included) through its
    oracle, as instance ``forward`` (and ``BiLSTM.final_states``)
    overrides; ``Module.__call__`` dispatches to them.  Returns ``model``.
    """
    for module in model.modules():
        oracle = _LAYER_ORACLES.get(type(module))
        if oracle is not None:
            module.forward = types.MethodType(oracle, module)
        if type(module) is BiLSTM:
            module.final_states = types.MethodType(bilstm_final_states,
                                                   module)
    return model


# ----------------------------------------------------------------------
# tree ensembles
# ----------------------------------------------------------------------
def forest_predict_proba(forest, X) -> np.ndarray:
    """Per-tree loop, each tree's probabilities lifted onto the forest's
    full class set (a bootstrap sample can miss rare classes)."""
    forest._check_fitted("estimators_")
    X = check_2d(X)
    k = forest.classes_.size
    acc = np.zeros((X.shape[0], k))
    for tree in forest.estimators_:
        proba = np.zeros((X.shape[0], k))
        cols = np.searchsorted(forest.classes_, tree.classes_)
        proba[:, cols] = tree.predict_proba(X)
        acc += proba
    return acc / len(forest.estimators_)


def boosting_margins(booster, X, n_rounds: int | None = None) -> np.ndarray:
    """Per-tree margin loop over the first ``n_rounds`` rounds."""
    X = booster._check_predict_input(X)
    k = booster.classes_.size
    rounds = booster.trees_ if n_rounds is None else booster.trees_[:n_rounds]
    margins = np.zeros((X.shape[0], k))
    for round_trees in rounds:
        for c, tree in enumerate(round_trees):
            margins[:, c] += booster.learning_rate * tree.predict(X)
    return margins


# ----------------------------------------------------------------------
# optimizers
# ----------------------------------------------------------------------
def adam_step(opt) -> None:
    """One Adam update in the allocating form (fresh arrays per op)."""
    opt._t += 1
    b1, b2 = opt.betas
    bc1 = 1.0 - b1**opt._t
    bc2 = 1.0 - b2**opt._t
    wd = opt.weight_decay
    for p, m, v in zip(opt.params, opt._m, opt._v):
        if p.grad is None:
            continue
        g = p.grad
        if wd and not opt.decoupled_weight_decay:
            g = g + wd * p.data
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        if wd and opt.decoupled_weight_decay:
            update = update + wd * p.data
        p.data -= opt.lr * update
