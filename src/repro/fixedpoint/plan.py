"""QuantizedPlan — the packed fast path for fixed-point inference.

:class:`~repro.fixedpoint.QuantizedODENetExecutor` is the semantic
reference: per-layer int64 arithmetic with an explicit ``ap_fixed``
rescale after every site.  This module packs the same network into a
form that runs the whole forward on the float BLAS path **without
changing a single output bit**:

* **Scale folding.**  Every weight is pre-multiplied by the power of
  two its site's rescale would divide by (``2^-pfrac`` for convs,
  ``2^(ffrac-pfrac)`` for biases).  Power-of-two scaling only moves the
  float exponent, so the folded weights are exact and each site's
  rescale collapses to ``rint`` (IEEE round-to-nearest-even — the same
  round-half-even as ``_rescale``) plus ``clip``.
* **Float-domain carry.**  Activations stay float64 arrays of
  integer-valued raws between sites, eliminating the int64↔float
  conversions and int64 shift passes the executor pays per layer.
* **Static per-site dtypes.**  At pack time each GEMM site's worst-case
  accumulator width (:func:`~repro.fixedpoint.ops.accumulator_bits` —
  the same formula the lint overflow checker certifies) picks float32
  (≤ 24 bits), float64 (≤ 52 bits) or the exact int64 fallback, so no
  per-call bound scans run on the hot path.
* **Reorder exactness.**  Every float site sums integer multiples of
  ``2^-pfrac`` and ``accumulator_bits`` bounds each sum inside the
  mantissa, so every partial sum is exact and any summation order —
  BLAS blocking, the banded depthwise kernel, a plane added after the
  GEMM — gives the same bits.
* **Folded time channel.**  A time conv's ``t`` channel is a constant
  plane, so its contribution is an input-independent (F, H, W) plane
  per Euler step, precomputed per spatial shape; the depthwise pass
  then covers C channels and the pointwise GEMM adds the plane (see
  :meth:`QuantizedPlan._pack_time_conv`).
* **Allocation-free Euler steps.**  An ODE block allocates its step
  buffers once per call; every step pass writes through ``out=``.
  Batch norm followed by ReLU ends in one ``clip(0, fmax)`` (exact:
  ``fmin <= 0 <= fmax``), and the Euler update drops the clip after
  ``rint(f·h)`` when ``0 <= h <= 1`` (see :meth:`QuantizedPlan._pack_euler`).
  Sites whose accumulator exceeds the float64 mantissa keep their exact
  int64 path, and a time conv with such a site keeps the concatenated
  time channel.

Attention reuses the executor's :class:`QuantizedMHSA2d` (identical
arithmetic, shared quantized weight set); the plan runs under the
``quantized`` kernel backend so the MHSA's integer matmuls get the
data-driven exact-BLAS rerouting.

Under ``kernels.collect`` the conv, batch-norm, pool and Euler-add
steps are timed through ``kernels.record_dispatch`` (as ``conv2d`` —
one per conv site, a whole time conv counting once — ``batchnorm2d``,
``maxpool2d`` and ``add``); an untraced forward checks the collector
stack once and pays nothing else.

Bit-identity to ``QuantizedODENetExecutor.run`` is pinned per registry
model and per Q-format profile by ``tests/test_kernels.py``; the ≥5×
speedup gate lives in ``benchmarks/test_quantized_speedup.py``.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..compile.steps import pointwise_affine
from ..kernels import banded
from ..models.odenet import Downsample, ODENet
from ..nn import DepthwiseSeparableConv2d
from ..ode import ConvODEFunc, MHSABottleneckODEFunc
from .ops import (
    F32_EXACT_BITS,
    F64_EXACT_BITS,
    accumulator_bits,
    div_round_half_even,
    requantize,
)
from .qformat import QFormat
from .quantized_layers import (
    fixed_bn_apply,
    fixed_conv2d,
    fixed_euler_update,
    fixed_linear,
    fold_batchnorm,
)
from .quantized_mhsa import QuantizedMHSA2d
from .quantized_model import QuantizedODENetExecutor

#: widest feature/param format the float-domain carry holds exactly
#: (with headroom for the global-sum reduction in the average pool)
_MAX_PLAN_FORMAT_BITS = 40


def _call(traced, name, fn, *args):
    """``fn(*args)``, timed under kernel *name* by the active collectors
    when *traced* (decided once per forward)."""
    if traced:
        return kernels.record_dispatch(name, fn, args, {})
    return fn(*args)


def _float_work(buf):
    """*buf* itself if it is float64, else a float64 scratch of its shape
    (a batch norm must compute in float64 before writing a float32 site
    input)."""
    return buf if buf.dtype == np.float64 else np.empty(buf.shape)


class QuantizedPlan:
    """Packed, scale-folded fixed-point forward for one :class:`ODENet`.

    Construct directly from ``(model, feature_fmt, param_fmt)`` or via
    :meth:`from_executor` to share an executor's already-quantized
    weight set.  Calling the plan on a float image batch returns float
    logits bit-identical to ``QuantizedODENetExecutor.run``.

    ``version`` counts weight derivations: it starts at 1 and
    :meth:`refresh` (re-pack after mutating the source model) bumps it —
    the serving layer surfaces it per replica so a ladder of tier
    sessions sharing one weight set can prove they agree on which
    weights they quantized.
    """

    def __init__(self, model: ODENet, feature_fmt: QFormat, param_fmt: QFormat,
                 *, _executor: QuantizedODENetExecutor | None = None):
        problem = self._unsupported_reason(model, feature_fmt, param_fmt)
        if problem is not None:
            raise ValueError(f"QuantizedPlan cannot pack this model: {problem}")
        self.model = model
        self.ffmt = feature_fmt
        self.pfmt = param_fmt
        self.version = 0
        self._kb = kernels.get_backend("quantized")
        self._pack(_executor)

    # ------------------------------------------------------------------
    @classmethod
    def from_executor(cls, executor: QuantizedODENetExecutor) -> "QuantizedPlan":
        """Pack a plan around *executor*, reusing its quantized weights
        (conv/BN/MHSA caches) so the weight set is derived once."""
        return cls(executor.model, executor.ffmt, executor.pfmt,
                   _executor=executor)

    @staticmethod
    def _unsupported_reason(model, ffmt, pfmt):
        if not isinstance(model, ODENet):
            return f"expected ODENet, got {type(model).__name__}"
        if model.training:
            return "call model.eval() before packing"
        if max(ffmt.total_bits, pfmt.total_bits) > _MAX_PLAN_FORMAT_BITS:
            return (
                f"formats wider than {_MAX_PLAN_FORMAT_BITS} bits exceed the "
                "float64 carry; use QuantizedODENetExecutor directly"
            )
        for block in (model.block1, model.block2, model.block3):
            if block.solver.name != "euler":
                return f"solver {block.solver.name!r} (the plan packs Euler)"
            if not isinstance(block.func, (ConvODEFunc, MHSABottleneckODEFunc)):
                return f"dynamics {type(block.func).__name__}"
        return None

    @classmethod
    def supported(cls, executor_or_model, feature_fmt=None, param_fmt=None) -> bool:
        """Whether a plan can pack this executor (or model + formats)."""
        if isinstance(executor_or_model, QuantizedODENetExecutor):
            ex = executor_or_model
            model, feature_fmt, param_fmt = ex.model, ex.ffmt, ex.pfmt
        else:
            model = executor_or_model
        return cls._unsupported_reason(model, feature_fmt, param_fmt) is None

    # ------------------------------------------------------------------
    # pack-time site builders — each returns a closure mapping a float64
    # carry of integer-valued raws to the next carry
    # ------------------------------------------------------------------
    def _site_dtype(self, fan_in: int):
        bits = accumulator_bits(self.ffmt.total_bits, self.pfmt.total_bits, fan_in)
        if bits <= F32_EXACT_BITS:
            return np.float32
        if bits <= F64_EXACT_BITS:
            return np.float64
        return None

    def _conv_weights(self, conv, executor):
        if executor is not None:
            return executor._conv_params(conv)
        w = self.pfmt.quantize(conv.weight.data)
        b = self.pfmt.quantize(conv.bias.data) if conv.bias is not None else None
        return w, b

    def _fold(self, w_int, b_int, dt):
        """Scale-fold a site's integer weight (``2^-pfrac``) and bias
        (``2^(ffrac-pfrac)``, flat) into float dtype *dt*."""
        pfrac = self.pfmt.frac_bits
        wf = (w_int.astype(np.float64) * 2.0 ** -pfrac).astype(dt)
        if b_int is None:
            return wf, None
        bf = b_int.astype(np.float64) * 2.0 ** (self.ffmt.frac_bits - pfrac)
        return wf, bf.astype(dt)

    def _pack_conv(self, conv, executor):
        ffmt, pfmt = self.ffmt, self.pfmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        w_int, b_int = self._conv_weights(conv, executor)
        stride = tuple(conv.stride)
        padding = tuple(conv.padding)
        groups = conv.groups
        fan = w_int.shape[1] * w_int.shape[2] * w_int.shape[3]
        dt = self._site_dtype(fan + (1 if b_int is not None else 0))
        if dt is None:
            # accumulator wider than the float64 mantissa: exact int64
            # site (the ambient quantized backend reaches the same
            # conclusion from the operand bounds)
            def run(c):
                out = fixed_conv2d(
                    c.astype(np.int64), ffmt, w_int, pfmt, ffmt,
                    bias_raw=b_int, bias_fmt=pfmt, stride=stride,
                    padding=padding, groups=groups,
                )
                return out.astype(np.float64)

            return run

        wf, bf = self._fold(w_int, b_int, dt)
        if bf is not None:
            bf = bf.reshape(1, -1, 1, 1)
        backend = self._kb

        def run(c):
            xf = c if dt is np.float64 else c.astype(dt)
            acc = backend.conv2d(xf, wf, stride=stride, padding=padding,
                                 groups=groups)
            if bf is not None:
                acc += bf
            np.rint(acc, out=acc)
            np.clip(acc, fmin, fmax, out=acc)
            return acc.astype(np.float64) if dt is np.float32 else acc

        return run

    def _pack_bn_relu(self, bn, executor):
        """Batch norm then ReLU as ``run(src, dst=None, work=None)``.

        The ReLU is the BN's final saturation narrowed to
        ``clip(0, fmax)``: ``max(0, clip(v, fmin, fmax)) ==
        clip(v, 0, fmax)`` because ``fmin <= 0 <= fmax``.  The float
        path computes in *work* (float64; allocated when omitted) and
        writes the result to *dst* (*work* itself when omitted).
        """
        ffmt, pfmt = self.ffmt, self.pfmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        if executor is not None:
            s_int, t_int = executor._bn_params(bn)
        else:
            s_int, t_int = fold_batchnorm(bn, pfmt)
        if self._site_dtype(1) is None:
            def run(src, dst=None, work=None):
                out = fixed_bn_apply(src.astype(np.int64), ffmt, s_int,
                                     t_int, pfmt, ffmt)
                np.maximum(out, 0, out=out)
                if dst is None:
                    return out.astype(np.float64)
                np.copyto(dst, out)
                return dst

            return run

        sf = (s_int.astype(np.float64) * 2.0 ** -pfmt.frac_bits).reshape(1, -1, 1, 1)
        tf = requantize(t_int, pfmt, ffmt).astype(np.float64).reshape(1, -1, 1, 1)

        def run(src, dst=None, work=None):
            acc = np.multiply(src, sf, out=work)
            np.rint(acc, out=acc)
            np.clip(acc, fmin, fmax, out=acc)
            np.add(acc, tf, out=acc)
            return np.clip(acc, 0.0, fmax, out=acc if dst is None else dst)

        return run

    def _pack_time_conv(self, layer, executor, t_raws):
        """A TimeConcatConv2d / TimeConcatDSC2d as ``bind(n, h, w) ->
        (x, step)``: the caller writes the conv's input into the buffer
        ``x``, then ``step(i)`` returns the conv's output at Euler step
        ``i``.  ``bind`` runs once per block call and allocates that
        call's buffers, so concurrent calls share nothing mutable.

        When every site of the conv is a float site, the time channel is
        folded away.  By linearity, the conv of ``[x; t_raw·1]`` is the
        conv of ``x`` over its C channels plus an input-independent
        (F, H', W') plane per step.  For a depthwise-separable conv the
        plane is the pointwise time column times the depthwise output of
        the constant ``t_raw`` plane (after its rint and clip), plus the
        pointwise bias; for a dense conv it is the time column's conv of
        that plane (for a 1×1 conv: the column times ``t_raw``), plus the
        bias.  Every term is an integer multiple of ``2^-pfrac`` and the
        site's ``accumulator_bits`` bound keeps every partial sum inside
        the mantissa, so adding the plane after the GEMM instead of
        inside it gives the same bits.  The planes and the banded
        depthwise diagonals are cached per spatial shape; a
        :meth:`refresh` re-packs, and so rebuilds them.  The conv runs
        in the widest of its sites' dtypes, which is exact for all.

        A conv with an exact-int64 site, or a depthwise half that is not
        stride-1 and same-padded, keeps the concatenated time channel and
        the per-site closures of :meth:`_pack_conv`.
        """
        inner = layer.conv
        if isinstance(inner, DepthwiseSeparableConv2d):
            dw, main = inner.depthwise, inner.pointwise
        else:
            dw, main = None, inner
        ffmt = self.ffmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        sites = [self._conv_weights(conv, executor)
                 for conv in (dw, main) if conv is not None]
        dts = [self._site_dtype(w.shape[1] * w.shape[2] * w.shape[3]
                                + (b is not None)) for w, b in sites]
        c = sites[0][0].shape[1 if dw is None else 0] - 1
        if dw is not None:
            dw_stride, dw_padding = tuple(dw.stride), tuple(dw.padding)
        if None in dts or (dw is not None and not banded.is_banded(
                dw_stride, dw_padding, *dw.weight.shape[2:])):
            convs = tuple(self._pack_conv(conv, executor)
                          for conv in (dw, main) if conv is not None)

            def bind(n, h, w):
                x = np.empty((n, c, h, w))

                def step(i):
                    out = np.concatenate(
                        [x, np.full((n, 1, h, w), t_raws[i])], axis=1)
                    for conv in convs:
                        out = conv(out)
                    return out

                return x, step

            return bind

        dt = np.float64 if np.float64 in dts else np.float32
        w_int, b_int = sites[-1]
        wx, _ = self._fold(w_int[:, :-1], None, dt)
        wt, bt = self._fold(w_int[:, -1:], b_int, np.float64)
        stride, padding = tuple(main.stride), tuple(main.padding)
        pointwise = (wx.shape[2:], stride, padding) == ((1, 1), (1, 1), (0, 0))
        wmat = wx.reshape(wx.shape[0], c) if pointwise else None
        if dw is not None:
            # nn.DepthwiseSeparableConv2d's depthwise half has no bias
            dwx, _ = self._fold(sites[0][0][:-1], None, dt)
            dwt, _ = self._fold(sites[0][0][-1:], None, np.float64)
        backend = self._kb
        geometry = {}

        def planes_for(h, w):
            hit = geometry.get((h, w))
            if hit is None:
                planes = []
                for t_raw in t_raws:
                    t = np.full((1, 1, h, w), t_raw)
                    if dw is not None:
                        t = backend.conv2d(t, dwt, stride=dw_stride,
                                           padding=dw_padding)
                        np.rint(t, out=t)
                        np.clip(t, fmin, fmax, out=t)
                    p = backend.conv2d(t, wt, stride=stride,
                                       padding=padding)[0]
                    if bt is not None:
                        p += bt.reshape(-1, 1, 1)
                    planes.append(p.astype(dt))
                diags = (None if dw is None
                         else banded.depthwise_diagonals(dwx, h, w, dt))
                hit = geometry[(h, w)] = (tuple(planes), diags)
            return hit

        def bind(n, h, w):
            planes, diags = planes_for(h, w)
            x = src = np.empty((n, c, h, w), dtype=dt)
            if dw is not None:
                d = src = np.empty_like(x)  # same-padded, stride 1
            o = np.empty((n,) + planes[0].shape, dtype=dt)
            src3 = src.reshape(n, c, -1)
            o3 = o.reshape(n, o.shape[1], -1)  # views for the 1x1 GEMM

            def step(i):
                if dw is not None:
                    banded.depthwise_banded(x, *diags, d)
                    np.rint(d, out=d)
                    np.clip(d, fmin, fmax, out=d)
                if pointwise:
                    pointwise_affine(src3, wmat, planes[i], o, o3)
                else:
                    np.add(backend.conv2d(src, wx, stride=stride,
                                          padding=padding),
                           planes[i], out=o)
                np.rint(o, out=o)
                np.clip(o, fmin, fmax, out=o)
                return o

            return x, step

        return bind

    def _pack_mhsa(self, mhsa, executor):
        ffmt = self.ffmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        scale = ffmt.scale
        inv_scale = float(1 << ffmt.frac_bits)
        qm = (executor._mhsa(mhsa) if executor is not None
              else QuantizedMHSA2d(mhsa, ffmt, self.pfmt))

        def run(c):
            # raw -> value is an exact power-of-two scale; the quantized
            # MHSA requantises its input losslessly (same as the
            # executor's dequantize/quantize round-trip)
            out = qm.forward(np.multiply(c, scale, dtype=np.float64))
            acc = out * inv_scale
            np.rint(acc, out=acc)
            np.clip(acc, fmin, fmax, out=acc)
            return acc

        return run

    def _pack_euler(self, h_step):
        """The Euler update as ``run(z, f, e)``: ``z`` (the float64
        carry) becomes ``clip(z + rint(f·h))`` in place, with ``e`` a
        float64 scratch of its shape.

        The clip after ``rint(f·h)`` is dropped when ``0 <= h <= 1`` in
        the param format.  Proof: ``f`` is a conv output, so an integer
        in ``[fmin, fmax]``, and ``fmin <= 0 <= fmax``.  For such ``h``,
        ``f·h`` lies between ``0`` and ``f``, hence in ``[fmin, fmax]``;
        the product is exact (``f·h_q`` fits the float64 mantissa on a
        float site); and ``rint`` is monotone and fixes the integers
        ``fmin`` and ``fmax``, so ``rint(f·h)`` stays in ``[fmin, fmax]``
        and the clip is the identity.
        """
        ffmt, pfmt = self.ffmt, self.pfmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        h_q = int(pfmt.quantize(np.array(h_step)))
        if self._site_dtype(1) is None:
            def run(z, f, e):
                out = fixed_euler_update(z.astype(np.int64), f.astype(np.int64),
                                         ffmt, h_step, pfmt)
                np.copyto(z, out)
                return z

            return run

        hf = np.float64(h_q * 2.0 ** -pfmt.frac_bits)
        clip_step = not 0 <= h_q <= 1 << pfmt.frac_bits

        def run(z, f, e):
            np.multiply(f, hf, out=e)
            np.rint(e, out=e)
            if clip_step:
                np.clip(e, fmin, fmax, out=e)
            np.add(z, e, out=z)
            np.clip(z, fmin, fmax, out=z)
            return z

        return run

    def _pack_ode_block(self, block, executor):
        """One ODE block as ``run(z, traced)``: BN-ReLU, time conv,
        [MHSA,] BN-ReLU, time conv, Euler update — per step, on buffers
        allocated once per call."""
        func = block.func
        steps = block.steps
        h_step = (block.t1 - block.t0) / steps
        euler = self._pack_euler(h_step)
        t_raws = tuple(
            float(int(self.ffmt.quantize(np.array(float(block.t0 + i * h_step)))))
            for i in range(steps)
        )
        bn1 = self._pack_bn_relu(func.norm1, executor)
        bn2 = self._pack_bn_relu(func.norm2, executor)
        if isinstance(func, ConvODEFunc):
            tc1 = self._pack_time_conv(func.conv1, executor, t_raws)
            tc2 = self._pack_time_conv(func.conv2, executor, t_raws)
            mhsa = None
        else:
            tc1 = self._pack_time_conv(func.down, executor, t_raws)
            tc2 = self._pack_time_conv(func.up, executor, t_raws)
            mhsa = self._pack_mhsa(func.mhsa, executor)

        def run(z_in, traced):
            n, _, h, w = z_in.shape
            x1, conv1 = tc1(n, h, w)
            x2, conv2 = tc2(n, h, w)
            z = np.array(z_in, dtype=np.float64)
            e = np.empty_like(z)
            w1, w2 = _float_work(x1), _float_work(x2)
            for i in range(steps):
                _call(traced, "batchnorm2d", bn1, z, x1, w1)
                a = _call(traced, "conv2d", conv1, i)
                if mhsa is not None:
                    a = mhsa(a)
                _call(traced, "batchnorm2d", bn2, a, x2, w2)
                f = _call(traced, "conv2d", conv2, i)
                _call(traced, "add", euler, z, f, e)
            return z

        return run

    def _pack_head(self, executor):
        ffmt, pfmt = self.ffmt, self.pfmt
        model = self.model
        if executor is not None:
            fc_w, fc_b = executor._fc_w, executor._fc_b
        else:
            fc_w = pfmt.quantize(model.fc.weight.data)
            fc_b = (pfmt.quantize(model.fc.bias.data)
                    if model.fc.bias is not None else None)
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        imin, imax = ffmt.raw_min, ffmt.raw_max
        fan = fc_w.shape[1]
        dt = self._site_dtype(fan + (1 if fc_b is not None else 0))
        if dt is None:
            def linear(c):
                out = fixed_linear(c.astype(np.int64), ffmt, fc_w, pfmt, ffmt,
                                   bias_raw=fc_b, bias_fmt=pfmt)
                return out.astype(np.float64)
        else:
            wf = (fc_w.astype(np.float64) * 2.0 ** -pfmt.frac_bits).astype(dt)
            bf = None
            if fc_b is not None:
                bf = (
                    fc_b.astype(np.float64)
                    * 2.0 ** (ffmt.frac_bits - pfmt.frac_bits)
                ).astype(dt)

            def linear(c):
                xf = c if dt is np.float64 else c.astype(dt)
                acc = xf @ wf.T
                if bf is not None:
                    acc += bf
                np.rint(acc, out=acc)
                np.clip(acc, fmin, fmax, out=acc)
                return acc.astype(np.float64) if dt is np.float32 else acc

        def run(c):
            # exact integer average pool: sum is exact in the float64
            # carry (format gate leaves mantissa headroom), the
            # round-half-even division runs in the integer domain
            n_spatial = c.shape[2] * c.shape[3]
            acc = c.sum(axis=(2, 3)).astype(np.int64)
            pooled = np.clip(div_round_half_even(acc, n_spatial), imin, imax)
            return linear(pooled.astype(np.float64))

        return run

    # ------------------------------------------------------------------
    def _pack(self, executor):
        """Derive the quantized weight set and build the stage pipeline
        (each stage maps ``(carry, traced)`` to the next carry)."""
        m = self.model
        stem = list(m.stem)
        pool = stem[3]
        stem_conv = self._pack_conv(stem[0], executor)
        stem_bn = self._pack_bn_relu(stem[1], executor)
        pool_args = (tuple(pool.kernel_size),
                     None if pool.stride is None else tuple(pool.stride),
                     tuple(pool.padding))
        backend = self._kb

        def stem_stage(c, traced):
            c = _call(traced, "conv2d", stem_conv, c)
            c = _call(traced, "batchnorm2d", stem_bn, c)
            return _call(traced, "maxpool2d", backend.maxpool2d, c, *pool_args)

        def downsample(ds):
            conv = self._pack_conv(ds.conv, executor)
            bn = self._pack_bn_relu(ds.bn, executor)

            def run(c, traced):
                c = _call(traced, "conv2d", conv, c)
                return _call(traced, "batchnorm2d", bn, c)

            return run

        head_bn = self._pack_bn_relu(m.head_norm, executor)
        head = self._pack_head(executor)

        def head_stage(c, traced):
            return head(_call(traced, "batchnorm2d", head_bn, c))

        self._stages = (
            stem_stage,
            self._pack_ode_block(m.block1, executor),
            downsample(m.down1),
            self._pack_ode_block(m.block2, executor),
            downsample(m.down2),
            self._pack_ode_block(m.block3, executor),
            head_stage,
        )
        self.version += 1

    def refresh(self) -> None:
        """Re-quantize from the (possibly mutated) source model weights
        and bump :attr:`version`.  Always re-packs from the live model —
        executor caches shared at construction are left untouched."""
        self._pack(None)

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> np.ndarray:
        """Fixed-point forward; float logits, bit-identical to
        ``QuantizedODENetExecutor.run`` on the same model and formats."""
        ffmt = self.ffmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        traced = bool(kernels.active_collectors())
        with kernels.use_backend("quantized"):
            c = np.asarray(images, dtype=np.float64) * float(1 << ffmt.frac_bits)
            c = np.clip(np.rint(c), fmin, fmax)
            for stage in self._stages:
                c = stage(c, traced)
        return c * ffmt.scale

    __call__ = run

    def __repr__(self):
        return (
            f"QuantizedPlan({type(self.model).__name__}, "
            f"{self.ffmt}-{self.pfmt}, version={self.version})"
        )


__all__ = ["QuantizedPlan"]
