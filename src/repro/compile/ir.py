"""Lowering: a packed plan's graph, folded into compile-ready arrays.

The compiler consumes :meth:`repro.runtime.PackedODENet.graph` — the
``(name, op, payload)`` triples the packed plan executes — and lowers
each payload into a small IR object holding *folded* float64 arrays:

* **BatchNorm folding** — an eval BN is an affine map, so ``BN → ReLU``
  becomes one fused ``relu(x * scale + shift)`` (:func:`bn_scale_shift`)
  and ``conv → BN`` becomes a conv with rescaled weights and a folded
  bias (:func:`fold_bn_after_conv`).  Folding happens in float64, the
  dtype the running-stat buffers already force onto the packed forward,
  so the fold changes results only at the 1e-15 level.
* **Time-channel decomposition** — the ODE dynamics' time-concat convs
  (``conv([x, t·1])``) split into a conv over the data channels plus a
  precomputed additive map: ``conv_x(x) + t·M + bias``, where ``M`` is
  the convolution of the trailing weight column with an all-ones plane
  (:class:`TimeConvIR`, bound to a concrete geometry by the plan).
  This removes the per-step ``np.concatenate`` and one input channel
  from every conv inside the Euler loop.

Lowering never copies activations and never runs a kernel — it only
reshapes and rescales weights — so compiling a packed net costs
microseconds.  :func:`graph_signature` / :func:`graph_hash` derive the
*structural* cache key (op kinds, shapes, solver grid — not weight
values) the autotuner's schedule cache is keyed by.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: bump to invalidate every cached schedule across releases
#: (2: float32 convs lost their gemm axis — cached schedules carrying
#: one would now silently bind as tensordot; 3: the ``dw:<site>`` axis
#: is gone — every depthwise conv runs the banded kernel; 4: the
#: ``conv:<site>`` axis is gone — every dense conv runs the ``fused``
#: im2col GEMM)
COMPILE_VERSION = 4

_F64 = np.float64


def bn_scale_shift(params):
    """Fold packed BN params into ``(scale, shift)`` so that
    ``bn(x) == x * scale + shift`` — the (1, C, 1, 1) float64 affine
    form the fused scale-shift-ReLU step consumes."""
    mean, inv, weight, bias = params
    scale = inv if weight is None else inv * weight
    shift = -mean * scale
    if bias is not None:
        shift = shift + bias
    return np.ascontiguousarray(scale, dtype=_F64), np.ascontiguousarray(
        shift, dtype=_F64
    )


def fold_bn_after_conv(weight, bias, params):
    """Fold ``BN(conv(x, weight) + bias)`` into ``conv(x, w') + b'``.

    Returns float64 ``(w', b')`` with ``b'`` shaped (1, F, 1, 1); valid
    because an eval BN is affine per output channel.
    """
    mean, inv, bn_w, bn_b = params
    scale = (inv if bn_w is None else inv * bn_w).reshape(-1)
    w = np.ascontiguousarray(
        weight * scale[:, None, None, None].astype(_F64), dtype=_F64
    )
    base = -mean.reshape(-1) * scale if bias is None else (
        bias - mean.reshape(-1)
    ) * scale
    if bn_b is not None:
        base = base + bn_b.reshape(-1)
    return w, np.ascontiguousarray(base.reshape(1, -1, 1, 1), dtype=_F64)


class ConvSpec:
    """A dense conv frozen to compile-ready arrays (float64 weights)."""

    def __init__(self, weight, bias, stride, padding, groups=1):
        self.weight = np.ascontiguousarray(weight, dtype=_F64)
        self.bias = None if bias is None else np.ascontiguousarray(
            bias.reshape(1, -1, 1, 1), dtype=_F64
        )
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.groups = groups

    def signature(self):
        return {
            "kind": "conv",
            "weight": list(self.weight.shape),
            "bias": self.bias is not None,
            "stride": list(self.stride),
            "padding": list(self.padding),
            "groups": self.groups,
        }


class TimeConvIR:
    """A time-concat conv split into data-conv + additive time map.

    ``kind`` is ``"dsc"`` (depthwise-separable: a banded depthwise conv
    over the data channels, then a pointwise GEMM) or ``"dense"``.  The trailing
    input channel — the one the runtime fed the ``t`` plane — is carried
    separately (``dw_t`` / ``w_t`` and, for DSC, its pointwise column
    ``pw_t``) so the plan can precompute ``M`` once per geometry and add
    ``t_i · M + bias`` as a single fused plane per solver step.
    """

    def __init__(self, ptc):
        conv = ptc.conv
        if hasattr(conv, "depthwise"):  # _PackedDSC
            dw, pw = conv.depthwise, conv.pointwise
            cin = dw.weight.shape[0] - 1  # last channel was the t plane
            self.kind = "dsc"
            self.stride = tuple(dw.stride)
            self.padding = tuple(dw.padding)
            self.dw_x = np.ascontiguousarray(dw.weight[:cin], dtype=_F64)
            self.dw_t = np.ascontiguousarray(
                dw.weight[cin : cin + 1], dtype=_F64
            )  # (1, 1, kh, kw)
            pw2d = pw.weight.reshape(pw.weight.shape[0], cin + 1)
            self.pw_x = np.ascontiguousarray(pw2d[:, :cin], dtype=_F64)
            self.pw_t = np.ascontiguousarray(pw2d[:, cin], dtype=_F64)
            self.bias = None if pw.bias is None else np.ascontiguousarray(
                pw.bias, dtype=_F64
            )
            self.out_channels = pw.weight.shape[0]
            self.in_channels = cin
        else:  # _PackedConv over C+1 channels
            cin = conv.weight.shape[1] - 1
            self.kind = "dense"
            self.stride = tuple(conv.stride)
            self.padding = tuple(conv.padding)
            self.w_x = np.ascontiguousarray(conv.weight[:, :cin], dtype=_F64)
            self.w_t = np.ascontiguousarray(
                conv.weight[:, cin : cin + 1], dtype=_F64
            )  # (F, 1, kh, kw)
            self.bias = None if conv.bias is None else np.ascontiguousarray(
                conv.bias, dtype=_F64
            )
            self.out_channels = conv.weight.shape[0]
            self.in_channels = cin

    @property
    def is_pointwise(self):
        """1x1 stride-1 dense time conv (the MHSA bottleneck down/up):
        the time map is spatially constant, so the per-step additive
        term collapses to a (1, F, 1, 1) vector."""
        if self.kind != "dense":
            return False
        return self.w_x.shape[2:] == (1, 1) and self.stride == (1, 1)

    def signature(self):
        w = self.dw_x if self.kind == "dsc" else self.w_x
        return {
            "kind": f"time-{self.kind}",
            "weight": list(w.shape),
            "out": self.out_channels,
            "bias": self.bias is not None,
            "stride": list(self.stride),
            "padding": list(self.padding),
        }


class ConvFuncIR:
    """dsODENet dynamics, folded: (scale-shift-ReLU → time-conv) × 2."""

    kind = "conv"

    def __init__(self, func):
        self.scale1, self.shift1 = bn_scale_shift(func.norm1)
        self.conv1 = TimeConvIR(func.conv1)
        self.scale2, self.shift2 = bn_scale_shift(func.norm2)
        self.conv2 = TimeConvIR(func.conv2)

    def signature(self):
        return {
            "kind": self.kind,
            "conv1": self.conv1.signature(),
            "conv2": self.conv2.signature(),
        }


class MHSAIR:
    """A packed MHSA frozen to float64 GEMM operands.

    ``rel_t`` is the relative-position table pre-transposed to
    (heads, d_h, N) so the score correction is one broadcast matmul.
    """

    def __init__(self, mhsa):
        self.w_q = np.ascontiguousarray(mhsa.w_q, dtype=_F64)
        self.w_k = np.ascontiguousarray(mhsa.w_k, dtype=_F64)
        self.w_v = np.ascontiguousarray(mhsa.w_v, dtype=_F64)
        self.heads = mhsa.heads
        self.activation = mhsa.activation
        self.rel_t = None if mhsa.rel_table is None else np.ascontiguousarray(
            mhsa.rel_table.transpose(0, 2, 1), dtype=_F64
        )
        self.abs_table = None if mhsa.abs_table is None else (
            np.ascontiguousarray(mhsa.abs_table, dtype=_F64)
        )
        if mhsa.ln is None:
            self.ln = None
        else:
            w, b, eps = mhsa.ln
            self.ln = (
                None if w is None else np.ascontiguousarray(w, dtype=_F64),
                None if b is None else np.ascontiguousarray(b, dtype=_F64),
                float(eps),
            )

    def signature(self):
        return {
            "kind": "mhsa",
            "dim": list(self.w_q.shape),
            "heads": self.heads,
            "activation": self.activation,
            "rel": None if self.rel_t is None else list(self.rel_t.shape),
            "abs": self.abs_table is not None,
            "ln": self.ln is not None,
        }


class MHSAFuncIR:
    """The proposed bottleneck dynamics, folded: ssr → 1x1 down →
    MHSA → ssr → 1x1 up."""

    kind = "mhsa"

    def __init__(self, func):
        self.scale1, self.shift1 = bn_scale_shift(func.norm1)
        self.down = TimeConvIR(func.down)
        self.mhsa = MHSAIR(func.mhsa)
        self.scale2, self.shift2 = bn_scale_shift(func.norm2)
        self.up = TimeConvIR(func.up)

    def signature(self):
        return {
            "kind": self.kind,
            "down": self.down.signature(),
            "mhsa": self.mhsa.signature(),
            "up": self.up.signature(),
        }


class OdeBlockIR:
    """An Euler block: the folded dynamics plus the fixed time grid."""

    def __init__(self, block):
        self.steps = block.steps
        self.t0 = float(block.t0)
        self.t1 = float(block.t1)
        func = block.func
        self.func = (
            ConvFuncIR(func) if hasattr(func, "conv1") else MHSAFuncIR(func)
        )

    def time_grid(self):
        """The ``(t_i, h)`` sequence, accumulated exactly as the solver
        loop accumulates it (repeated addition, not ``t0 + i*h``)."""
        h = (self.t1 - self.t0) / self.steps
        ts = []
        t = self.t0
        for _ in range(self.steps):
            ts.append(t)
            t += h
        return ts, h

    def signature(self):
        return {
            "kind": "ode",
            "steps": self.steps,
            "t0": self.t0,
            "t1": self.t1,
            "func": self.func.signature(),
        }


class Stage:
    """One lowered graph node: ``(name, op, ir)``."""

    __slots__ = ("name", "op", "ir")

    def __init__(self, name, op, ir):
        self.name = name
        self.op = op
        self.ir = ir


def lower(packed):
    """Lower ``packed.graph()`` into a list of :class:`Stage` nodes.

    Op kinds after lowering: ``conv`` (stem conv, float32 weights kept —
    its input is the float32 batch, so folding BN in would change the
    dtype the reference path computes in), ``ssr`` (fused
    scale-shift-ReLU from a BN + ReLU pair), ``maxpool``, ``ode``,
    ``fconv`` (conv with BN folded in, + ReLU), ``gap``, ``linear``.
    """
    graph = list(packed.graph())
    stages = []
    i = 0
    while i < len(graph):
        name, op, payload = graph[i]
        if op == "conv":
            stages.append(Stage(name, "conv", payload))
            i += 1
        elif op == "batchnorm":
            # graph order guarantees BN is followed by its ReLU
            assert graph[i + 1][1] == "relu", "BN without trailing ReLU"
            stages.append(Stage(name, "ssr", bn_scale_shift(payload)))
            i += 2
        elif op == "maxpool":
            stages.append(Stage(name, "maxpool", payload))
            i += 1
        elif op == "ode":
            stages.append(Stage(name, "ode", OdeBlockIR(payload)))
            i += 1
        elif op == "down":
            conv, norm = payload
            w, b = fold_bn_after_conv(conv.weight, conv.bias, norm)
            spec = ConvSpec(w, None, conv.stride, conv.padding, conv.groups)
            spec.bias = b  # already (1, F, 1, 1) float64
            stages.append(Stage(name, "fconv", spec))
            i += 1
        elif op == "gap":
            stages.append(Stage(name, "gap", None))
            i += 1
        elif op == "linear":
            stages.append(Stage(name, "linear", payload))
            i += 1
        else:  # pragma: no cover - graph() is a closed vocabulary
            raise ValueError(f"unknown graph op {op!r} at {name!r}")
    return stages


def graph_signature(packed):
    """The structural signature of a packed plan — shapes, geometry and
    solver grids, *not* weight values — as a JSON-able structure."""
    sig = []
    for name, op, payload in packed.graph():
        if op == "conv":
            sig.append([name, op, ConvSpec(
                payload.weight, payload.bias, payload.stride,
                payload.padding, payload.groups,
            ).signature()])
        elif op == "batchnorm":
            sig.append([name, op, list(payload[0].shape)])
        elif op in ("relu", "gap"):
            sig.append([name, op])
        elif op == "maxpool":
            sig.append([name, op, [list(p) for p in payload]])
        elif op == "ode":
            sig.append([name, op, OdeBlockIR(payload).signature()])
        elif op == "down":
            conv, norm = payload
            sig.append([name, op, ConvSpec(
                conv.weight, conv.bias, conv.stride, conv.padding,
                conv.groups,
            ).signature()])
        elif op == "linear":
            w, b = payload
            sig.append([name, op, list(w.shape), b is not None])
        else:  # pragma: no cover
            raise ValueError(f"unknown graph op {op!r} at {name!r}")
    return {"compile_version": COMPILE_VERSION, "graph": sig}


def graph_hash(packed):
    """sha256 (hex) of :func:`graph_signature` — the schedule cache key
    component that invalidates on any structural change."""
    payload = json.dumps(
        graph_signature(packed), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
