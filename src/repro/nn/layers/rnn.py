"""LSTM layers with fused hand-derived backward and a grad-aware fast path.

A per-op autograd LSTM would create hundreds of graph nodes per timestep;
here the whole sequence is one graph node, built by one **fused kernel**
(:func:`_fused_seq_forward`).  It performs the float operations of the
textbook BPTT recurrences in their textbook order, but every per-step
temporary lives in preallocated float32 scratch reused across batches,
gate activations are written straight into the caches, and — for
:class:`BiLSTM` — both directions are stacked into one ``(2N, ·)`` row
block so each elementwise ufunc dispatches once instead of twice.
Elementwise ops round per element, so stacking rows changes nothing;
matmuls stay per-direction.  Gradients are **bit-identical** to the
allocating per-step reference the tests keep as the parity oracle
(``tests/oracles.py``, which the parity suite imports).

Under :class:`~repro.nn.tensor.no_grad` the forward takes an inference
fast path instead: no ``(T, N, 4H)`` gate/cell caches, no backward closure,
and all per-step temporaries live in per-layer scratch buffers that are
reused across calls of the same ``(N, T)`` shape (steady-state serving
batches hit the same shape every flush).  The fast path performs the exact
same floating-point operations in the same order as the training forward,
so its outputs are bit-identical — pinned by the parity test suite.

Gate order follows PyTorch: input ``i``, forget ``f``, cell ``g``,
output ``o``::

    z_t = x_t W_ih + h_{t-1} W_hh + b
    c_t = f·c_{t-1} + i·g ,   h_t = o·tanh(c_t)
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import orthogonal, uniform_fan_in
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.utils.rng import as_generator

__all__ = ["LSTM", "BiLSTM"]

#: Largest |x| for which the textbook sigmoid is used: ``exp(75)`` ≈ 2.6e32,
#: far below float32 overflow, so ``1/(1+exp(-x))`` is safe on [-75, 75].
_SIGMOID_SAFE_MAX = 75.0


def _sigmoid_unchecked(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Textbook ``1/(1+exp(-x))`` in three in-place passes.

    The caller must guarantee ``max|x| <= _SIGMOID_SAFE_MAX`` (no overflow
    possible).  Rounds per element, so the result is independent of how the
    input rows are sliced or stacked — the property the fused BiLSTM kernel
    relies on when it evaluates both directions (and the adjacent ``i``/``f``
    gate blocks) in one call.
    """
    # x * -1.0 rather than np.negative: this numpy build's f32 negative
    # loop misreads strided operands at byte-stride 16 (a column view of a
    # 4-column float32 array — exactly the o-gate slice when hidden=1).
    # Multiplying by -1.0 flips the sign bit exactly, so the two are
    # bit-identical for every finite float32.
    np.multiply(x, -1.0, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic sigmoid.

    Small-magnitude inputs (the overwhelmingly common case for gate
    pre-activations) take the textbook ``1/(1+exp(-x))`` form — three ufunc
    passes.  When any ``|x|`` exceeds :data:`_SIGMOID_SAFE_MAX` the call
    falls back to the piecewise form, where ``exp`` is only ever taken of
    ``-|x|`` so large pre-activations (|x| ~ 100 and beyond) cannot
    overflow: for ``x >= 0`` it is again ``1/(1+exp(-x))``; for ``x < 0``
    the algebraically equal ``exp(x)/(1+exp(x))``.

    The branch is chosen per *call* from the array's max magnitude, so two
    calls on the same array always agree bit-for-bit.
    """
    if x.size and float(np.max(np.abs(x))) <= _SIGMOID_SAFE_MAX:
        return _sigmoid_unchecked(x, np.empty_like(x) if out is None else out)
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0.0, 1.0, e)
    np.add(e, 1.0, out=e)
    return np.divide(num, e, out=num if out is None else out)


def _gate_bound(zx: np.ndarray, w_hh: np.ndarray) -> float:
    """Upper bound on any gate pre-activation magnitude for one direction.

    ``|z| = |x W_ih + b + h W_hh| <= max|x W_ih + b| + max_j Σ_k |W_hh[k,j]|``
    since hidden states satisfy ``|h| = |o·tanh(c)| < 1``.  When the bound
    is within :data:`_SIGMOID_SAFE_MAX`, *every* per-gate ``_sigmoid`` call
    — any slicing, either path — provably takes the unchecked branch, so
    the fused kernel may call it directly and still match the reference.

    ``zx`` is the already-computed ``x W_ih + b`` block (the fused forward
    hands over its scratch, so the bound costs two reductions, not a
    duplicate GEMM); ``max|zx|`` is taken as ``max(|min|, |max|)`` to avoid
    materialising ``|zx|``.
    """
    if zx.size == 0:
        return 0.0
    mx = max(-float(np.min(zx)), float(np.max(zx)))
    return mx + float(np.max(np.abs(w_hh).sum(axis=0)))


def _seq_scratch(host: Module, R: int, N: int, T: int, H: int, D: int) -> dict:
    """Per-host fused-kernel scratch for an ``(R·N, T)`` stacked problem.

    Rebuilt only on shape change; per-timestep views into the big caches
    are precomputed once so the hot loops do no slice arithmetic.
    """
    s = getattr(host, "_train_scratch", None)
    if s is not None and s["key"] == (R, N, T, H, D):
        return s
    RN = R * N
    f32 = np.float32
    # Gate cache layout is (T, 4, RN, H): each gate activation is a
    # *contiguous* (RN, H) block, so every backward read (and the forward
    # cell/hidden updates) runs the ufunc inner loop over contiguous
    # memory instead of strided column slices of an (RN, 4H) row — 2-3x
    # faster per pass on this box.  Elementwise ops round per element, so
    # the layout is invisible to the math.
    gates = np.empty((T, 4, RN, H), dtype=f32)
    cells = np.empty((T, RN, H), dtype=f32)
    tanh_c = np.empty((T, RN, H), dtype=f32)
    # dz is laid out (RN, T, 4H) — row-major per *sequence* — so the three
    # end-of-loop weight-gradient GEMMs read each direction's block as a
    # contiguous (N·T, 4H) view with no transpose copy.  The per-step view
    # dz[:, t] has strided rows; BLAS consumes that via lda (identical
    # GEMM shape → identical reduction order → identical bits).
    dz = np.empty((RN, T, 4 * H), dtype=f32)
    s = {
        "key": (R, N, T, H, D),
        "xs": np.empty((RN, T, D), dtype=f32),
        "zx": np.empty((RN, T, 4 * H), dtype=f32),
        "gates": gates, "cells": cells, "tanh_c": tanh_c, "dz": dz,
        "zh": np.empty((RN, 4 * H), dtype=f32),
        "z": np.empty((RN, 4 * H), dtype=f32),
        "h": np.empty((RN, H), dtype=f32),
        "ig": np.empty((RN, H), dtype=f32),
        "zeros": np.zeros((RN, H), dtype=f32),  # never written
        "dh": np.empty((RN, H), dtype=f32),
        "dc": np.empty((RN, H), dtype=f32),
        "do": np.empty((RN, H), dtype=f32),
        "dh_next": np.empty((RN, H), dtype=f32),
        "dc_next": np.empty((RN, H), dtype=f32),
        "t1": np.empty((RN, H), dtype=f32),
        "t2": np.empty((RN, H), dtype=f32),
        "dz_c": np.empty((RN, 4 * H), dtype=f32),
        # (2, RN, H) scratch: the i/f gate derivative chains are the same
        # elementwise op sequence, so the backward runs them as one joint
        # pass over the stacked [i, f] blocks (bit-identical per element).
        "ta": np.empty((2, RN, H), dtype=f32),
        "tb": np.empty((2, RN, H), dtype=f32),
        "hp": np.empty((N, T, H), dtype=f32),
        # Precomputed per-step views into the caches (no per-step slicing).
        "gate_views": [
            (gates[t], gates[t, 0], gates[t, 1], gates[t, 2], gates[t, 3])
            for t in range(T)
        ],
        "dz_rows": [dz[:, t] for t in range(T)],
    }
    host._train_scratch = s
    return s


def _fused_seq_forward(x: Tensor, dirs, host: Module) -> Tensor:
    """Fused multi-direction LSTM forward + single fused BPTT backward.

    ``dirs`` is a list of ``(LSTM, reverse)`` pairs evaluated jointly by
    stacking their batch rows; the output concatenates their hidden
    sequences along the channel axis in ``dirs`` order.

    When any direction's pre-activation bound exceeds the sigmoid
    fast-path range, the i/f/o gates are evaluated with the checked
    ``_sigmoid`` once per (direction, gate block) on that direction's
    ``N`` rows — the calls the per-direction reference makes, so each
    takes the same overflow-safe branch.

    Gradients are bit-identical to the per-direction reference: every
    elementwise op rounds per element (stacking is invisible), matmuls run
    per direction on contiguous row blocks, and the reduction order of the
    three weight-gradient GEMMs is unchanged.
    """
    R = len(dirs)
    N, T, D = x.shape
    H = dirs[0][0].hidden_size
    s = _seq_scratch(host, R, N, T, H, D)
    xs, zx = s["xs"], s["zx"]
    safe = True
    for d, (lstm, reverse) in enumerate(dirs):
        sl = slice(d * N, (d + 1) * N)
        np.copyto(xs[sl], x.data[:, ::-1] if reverse else x.data)
        zx2 = zx[sl].reshape(N * T, 4 * H)
        np.matmul(xs[sl].reshape(N * T, D), lstm.w_ih.data, out=zx2)
        np.add(zx[sl], lstm.bias.data, out=zx[sl])
        if _gate_bound(zx[sl], lstm.w_hh.data) > _SIGMOID_SAFE_MAX:
            safe = False

    gates, cells, tanh_c = s["gates"], s["cells"], s["tanh_c"]
    zh, z, h, ig, zeros = s["zh"], s["z"], s["h"], s["ig"], s["zeros"]
    gate_views = s["gate_views"]
    out = np.empty((N, T, R * H), dtype=np.float32)
    h.fill(0.0)
    for t in range(T):
        for d, (lstm, _reverse) in enumerate(dirs):
            sl = slice(d * N, (d + 1) * N)
            np.matmul(h[sl], lstm.w_hh.data, out=zh[sl])
        np.add(zx[:, t], zh, out=z)
        gt, i_v, f_v, g_v, o_v = gate_views[t]
        np.tanh(z[:, 2 * H:3 * H], out=g_v)
        if safe:
            # Sigmoid the *whole* z row in place: one contiguous 4H-wide
            # pass beats three strided column-slice passes even though the
            # g columns' sigmoid output is discarded.  Per-element results
            # are unchanged (the 4-pass form rounds per element regardless
            # of slicing).
            _sigmoid_unchecked(z, out=z)
            np.copyto(i_v, z[:, :H])
            np.copyto(f_v, z[:, H:2 * H])
            np.copyto(o_v, z[:, 3 * H:])
        else:
            for d in range(R):
                sl = slice(d * N, (d + 1) * N)
                _sigmoid(z[sl, :H], out=i_v[sl])
                _sigmoid(z[sl, H:2 * H], out=f_v[sl])
                _sigmoid(z[sl, 3 * H:], out=o_v[sl])
        np.multiply(i_v, g_v, out=ig)
        ct = cells[t]
        np.multiply(f_v, cells[t - 1] if t else zeros, out=ct)
        np.add(ct, ig, out=ct)
        np.tanh(ct, out=tanh_c[t])
        np.multiply(o_v, tanh_c[t], out=h)
        for d, (lstm, reverse) in enumerate(dirs):
            out[:, T - 1 - t if reverse else t, d * H:(d + 1) * H] = \
                h[d * N:(d + 1) * N]

    host._fused_gen = gen = getattr(host, "_fused_gen", 0) + 1
    parents = [x]
    for lstm, _reverse in dirs:
        parents += [lstm.w_ih, lstm.w_hh, lstm.bias]

    def backward(grad_out: np.ndarray) -> None:
        if host._fused_gen != gen:
            raise RuntimeError(
                "LSTM backward after a newer forward of the same layer "
                "reused its scratch: call backward before the next forward "
                "of that layer"
            )
        dz, dz_rows = s["dz"], s["dz_rows"]
        dh, dc, do = s["dh"], s["dc"], s["do"]
        dh_next, dc_next = s["dh_next"], s["dc_next"]
        t1, t2, dz_c = s["t1"], s["t2"], s["dz_c"]
        ta, tb = s["ta"], s["tb"]
        dh_next.fill(0.0)
        dc_next.fill(0.0)
        for t in range(T - 1, -1, -1):
            for d, (lstm, reverse) in enumerate(dirs):
                dh[d * N:(d + 1) * N] = \
                    grad_out[:, T - 1 - t if reverse else t, d * H:(d + 1) * H]
            np.add(dh, dh_next, out=dh)
            _gt, i_v, f_v, g_v, o_v = gate_views[t]
            tc = tanh_c[t]
            c_prev = cells[t - 1] if t else zeros
            dz_t = dz_rows[t]
            # do = dh·tc ; dc = dh·o·(1−tc²) + dc_next  (reference op order)
            np.multiply(dh, tc, out=do)
            np.multiply(dh, o_v, out=t1)
            np.multiply(tc, tc, out=t2)
            np.subtract(1.0, t2, out=t2)
            np.multiply(t1, t2, out=t1)
            np.add(t1, dc_next, out=dc)
            # dz_i = (dc·g)·i·(1−i) ; dz_f = (dc·c_prev)·f·(1−f)
            # Same per-element chain, stacked gate blocks → one joint pass.
            np.multiply(dc, g_v, out=ta[0])
            np.multiply(dc, c_prev, out=ta[1])
            np.multiply(ta, _gt[:2], out=ta)
            np.subtract(1.0, _gt[:2], out=tb)
            np.multiply(ta[0], tb[0], out=dz_t[:, :H])
            np.multiply(ta[1], tb[1], out=dz_t[:, H:2 * H])
            # dz_g = (dc·i)·(1−g²)
            np.multiply(dc, i_v, out=t1)
            np.multiply(g_v, g_v, out=t2)
            np.subtract(1.0, t2, out=t2)
            np.multiply(t1, t2, out=dz_t[:, 2 * H:3 * H])
            # dz_o = do·o·(1−o)
            np.multiply(do, o_v, out=t1)
            np.subtract(1.0, o_v, out=t2)
            np.multiply(t1, t2, out=dz_t[:, 3 * H:])
            # BLAS rounds the H == 1 matrix-vector product differently
            # when the matrix rows are strided, so the recurrent GEMM reads
            # a contiguous copy of dz_t, like the reference's fresh array.
            np.copyto(dz_c, dz_t)
            for d, (lstm, _reverse) in enumerate(dirs):
                sl = slice(d * N, (d + 1) * N)
                np.matmul(dz_c[sl], lstm.w_hh.data.T, out=dh_next[sl])
            np.multiply(dc, f_v, out=dc_next)

        hp = s["hp"]
        for d, (lstm, reverse) in enumerate(dirs):
            sl = slice(d * N, (d + 1) * N)
            dzf2 = dz[sl].reshape(N * T, 4 * H)
            if lstm.w_ih.requires_grad:
                lstm.w_ih._accum(xs[sl].reshape(N * T, D).T @ dzf2)
            if lstm.w_hh.requires_grad:
                hp[:, 0] = 0.0
                ch = slice(d * H, (d + 1) * H)
                hp[:, 1:] = out[:, :0:-1, ch] if reverse else out[:, :T - 1, ch]
                lstm.w_hh._accum(hp.reshape(N * T, H).T @ dzf2)
            if lstm.bias.requires_grad:
                lstm.bias._accum(dzf2.sum(axis=0))
            if x.requires_grad:
                dxs = (dzf2 @ lstm.w_ih.data.T).reshape(N, T, D)
                x._accum(dxs[:, ::-1] if reverse else dxs)

    return Tensor.from_op(out, parents, backward)


class LSTM(Module):
    """Unidirectional LSTM returning the full hidden-state sequence.

    ``forward(x)`` maps ``(N, T, D) → (N, T, H)``.  Set ``reverse=True`` to
    process the sequence end-to-start (used by :class:`BiLSTM`); the output
    is returned in *original* time order either way.

    In grad mode the forward runs the fused scratch-buffer kernel; its
    backward must run before the layer's next forward reuses the scratch.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        if input_size < 1 or hidden_size < 1:
            raise ValueError(
                f"sizes must be >= 1, got input={input_size}, hidden={hidden_size}"
            )
        rng = as_generator(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        H = hidden_size
        self.w_ih = Parameter(uniform_fan_in((input_size, 4 * H), rng), name="w_ih")
        # Orthogonal recurrent blocks per gate keep long sequences stable.
        w_hh = np.concatenate([orthogonal((H, H), rng) for _ in range(4)], axis=1)
        self.w_hh = Parameter(w_hh, name="w_hh")
        bias = np.zeros(4 * H, dtype=np.float32)
        bias[H : 2 * H] = 1.0  # forget-gate bias 1: standard trick
        self.bias = Parameter(bias, name="bias")
        self._infer_scratch: dict | None = None
        self._train_scratch: dict | None = None

    def _scratch_for(self, N: int, T: int) -> dict:
        """Reusable inference buffers for a ``(N, T)`` input shape.

        Rebuilt only when the shape changes; a steady stream of same-shape
        predict batches allocates nothing after the first call.
        """
        s = self._infer_scratch
        if s is None or s["shape"] != (N, T):
            H = self.hidden_size
            f32 = np.float32
            s = {
                "shape": (N, T),
                "zx": np.empty((N, T, 4 * H), dtype=f32),
                "zh": np.empty((N, 4 * H), dtype=f32),
                "z": np.empty((N, 4 * H), dtype=f32),
                "i": np.empty((N, H), dtype=f32),
                "f": np.empty((N, H), dtype=f32),
                "g": np.empty((N, H), dtype=f32),
                "o": np.empty((N, H), dtype=f32),
                "ig": np.empty((N, H), dtype=f32),
                "tc": np.empty((N, H), dtype=f32),
                "h": np.empty((N, H), dtype=f32),
                "c": np.empty((N, H), dtype=f32),
            }
            self._infer_scratch = s
        return s

    def _forward_inference(self, x_data: np.ndarray, reverse: bool) -> np.ndarray:
        """No-grad forward: same float ops as the training path, no caches.

        Skips the BPTT bookkeeping entirely (``gates``/``cells``/``tanh_c``/
        ``h_prev_all`` and the backward closure) and runs every per-step
        temporary in preallocated scratch.  Only the returned ``(N, T, H)``
        output is freshly allocated — it outlives the call.

        When the batch's pre-activation bound stays within the sigmoid
        fast-path range (checked once per call), the per-step gate sigmoids
        skip their per-call range checks and the ``i``/``f`` pair fuses into
        one call — bit-identical either way, see :func:`_gate_bound`.
        """
        N, T, _D = x_data.shape
        H = self.hidden_size
        s = self._scratch_for(N, T)
        xs = x_data[:, ::-1] if reverse else x_data
        zx = s["zx"]
        np.matmul(xs.reshape(N * T, -1), self.w_ih.data,
                  out=zx.reshape(N * T, 4 * H))
        zx += self.bias.data
        safe = (
            float(np.max(np.abs(zx)))
            + float(np.max(np.abs(self.w_hh.data).sum(axis=0)))
            <= _SIGMOID_SAFE_MAX
        ) if zx.size else True

        h, c = s["h"], s["c"]
        h[:] = 0.0
        c[:] = 0.0
        zh, z, ig, tc = s["zh"], s["z"], s["ig"], s["tc"]
        w_hh = self.w_hh.data
        out = np.empty((N, T, H), dtype=np.float32)
        for t in range(T):
            np.matmul(h, w_hh, out=zh)
            np.add(zx[:, t], zh, out=z)
            if safe:
                # tanh the candidate block, then one contiguous in-place
                # sigmoid over the whole z row (see the training kernel) —
                # per-element results identical to the sliced form.
                g = np.tanh(z[:, 2 * H : 3 * H], out=s["g"])
                _sigmoid_unchecked(z, out=z)
                i, f, o = z[:, :H], z[:, H : 2 * H], z[:, 3 * H :]
            else:
                i = _sigmoid(z[:, :H], out=s["i"])
                f = _sigmoid(z[:, H : 2 * H], out=s["f"])
                o = _sigmoid(z[:, 3 * H :], out=s["o"])
                g = np.tanh(z[:, 2 * H : 3 * H], out=s["g"])
            np.multiply(i, g, out=ig)
            np.multiply(f, c, out=c)
            np.add(c, ig, out=c)
            np.tanh(c, out=tc)
            np.multiply(o, tc, out=h)
            out[:, T - 1 - t if reverse else t] = h
        return out

    def forward(self, x: Tensor, reverse: bool = False) -> Tensor:
        """Compute the layer's output for the given input."""
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(f"expected (N, T, {self.input_size}), got {x.shape}")
        if not is_grad_enabled():
            return Tensor(self._forward_inference(x.data, reverse))
        return _fused_seq_forward(x, [(self, reverse)], self)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_infer_scratch"] = None  # don't persist scratch buffers
        state["_train_scratch"] = None
        state.pop("_fused_gen", None)
        return state

    def last_hidden(self, output: Tensor, reverse: bool = False) -> Tensor:
        """Final hidden state from a full-sequence output.

        For a reversed pass the "final" state sits at original index 0.
        """
        return output[:, 0, :] if reverse else output[:, -1, :]


class BiLSTM(Module):
    """Bidirectional LSTM: forward and reversed passes, concatenated.

    ``forward(x)`` maps ``(N, T, D) → (N, T, 2H)`` (features =
    [forward_h_t ; backward_h_t]).  ``final_states(out)`` returns the
    ``(N, 2H)`` concatenation of the two directions' final states — the
    paper's classification head consumes that.

    In grad mode both directions run in one fused kernel — elementwise
    work stacked into ``(2N, ·)`` blocks, one graph node, no
    concatenation copy on the backward path — producing bit-identical
    outputs and gradients to two single-direction passes concatenated.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        rng = as_generator(rng)
        self.hidden_size = hidden_size
        self.fw = LSTM(input_size, hidden_size, rng)
        self.bw = LSTM(input_size, hidden_size, rng)
        self._train_scratch: dict | None = None
        self._fs_scratch: np.ndarray | None = None

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer's output for the given input."""
        if is_grad_enabled():
            return _fused_seq_forward(
                x, [(self.fw, False), (self.bw, True)], self
            )
        return Tensor.concatenate([self.fw(x), self.bw(x, reverse=True)],
                                  axis=2)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_train_scratch"] = None  # don't persist scratch buffers
        state["_fs_scratch"] = None
        state.pop("_fused_gen", None)
        return state

    def final_states(self, output: Tensor) -> Tensor:
        """(N, 2H): forward direction at t=T−1, backward direction at t=0.

        One graph node whose backward adds the head gradient into a zeroed
        per-shape scratch — bit-identical to the per-op chain (two
        ``__getitem__`` scatters + a concatenate), which allocates a full
        ``(N, T, 2H)`` zeros array per slice per batch.
        """
        H = self.hidden_size
        data = np.concatenate(
            [output.data[:, -1, :H], output.data[:, 0, H:]], axis=1
        )

        def backward(g):
            if not output.requires_grad:
                return
            s = self._fs_scratch
            if s is None or s.shape != output.data.shape:
                s = self._fs_scratch = np.empty_like(output.data)
            s.fill(0.0)
            # Add-into-zeros mirrors the reference ``np.add.at`` scatter
            # (so signed zeros in g land identically: +0 + (-0) = +0).
            v = s[:, -1, :H]
            np.add(v, g[:, :H], out=v)
            v = s[:, 0, H:]
            np.add(v, g[:, H:], out=v)
            output._accum(s)

        return Tensor.from_op(data, (output,), backward)
