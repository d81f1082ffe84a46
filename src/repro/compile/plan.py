"""The compiled execution plan: binding folded IR to arena buffers.

:class:`CompiledPlan` is what :meth:`CompiledBackend.compile_plan`
returns and what ``PackedODENet.__call__`` reroutes through.  Compile
time (construction) folds weights via :mod:`repro.compile.ir` and is
geometry-free; the first call with a concrete input shape *binds* the
plan — computes the time maps ``M``, precomputes per-step additive
planes, allocates the workspace :class:`~repro.compile.arena.Arena`,
builds the alias-checked step program and validates it.  Bindings are
cached per thread and per input shape, so steady-state calls run the
Euler loop entirely out of preallocated buffers (zero per-step numpy
allocation; see :mod:`repro.compile.steps`).

The step program is scheduled by a plain dict (see
:mod:`repro.compile.autotune`) with one axis, the time-plane mode
(``unrolled`` per-step precomputation vs ``runtime`` multiply).
Outer dense convs (stem, downsamples) call the ``fused`` backend's
im2col GEMM; depthwise convs have one strategy, the banded kernel of
:mod:`repro.kernels.banded` on diagonals built at bind time.  Unknown
keys are ignored and missing keys fall back to heuristics, so cached
schedules stay forward compatible.

When kernel instrumentation is active (``kernels.collect`` /
``InferenceSession(instrument=True)``), every step op routes through
``kernels.record_dispatch`` under its nearest kernel name (``conv2d``,
``matmul``, ``batchnorm2d``, ...), so ``SessionStats`` kernel
breakdowns and ``kernel.*`` trace spans keep working under the
``compiled`` backend.
"""

from __future__ import annotations

import functools
import threading
from types import SimpleNamespace

import numpy as np

from .. import kernels
from ..kernels import banded, shapes
from ..ode.solvers import fixed_grid_loop
from . import steps
from .arena import Arena, OpList
from .ir import lower

_F64 = np.float64


class CompileError(RuntimeError):
    """The packed plan contains a construct the compiler cannot lower."""


def _time_mode(schedule):
    return schedule.get("time_planes", "unrolled")


def _conv_out_hw(h, w, weight_shape, stride, padding):
    kh, kw = weight_shape[2], weight_shape[3]
    return shapes.conv_out_size(
        h, w, kh, kw, stride[0], stride[1], padding[0], padding[1]
    )


def _time_planes(tc, h, w, impl):
    """Precompute the additive time map of a time-concat conv.

    Returns ``(m, bias)`` where ``m`` is (1, F, H', W') — or
    (1, F, 1, 1) for the spatially-constant pointwise case — such that
    the conv's time contribution at time ``t`` is ``t * m + bias``.
    """
    if tc.kind == "dsc":
        ones = np.ones((1, 1, h, w), dtype=_F64)
        mdw = impl.conv2d(ones, tc.dw_t, stride=tc.stride, padding=tc.padding)
        m = tc.pw_t[None, :, None, None] * mdw
    elif tc.is_pointwise:
        m = np.ascontiguousarray(
            tc.w_t[:, 0, 0, 0].reshape(1, -1, 1, 1), dtype=_F64
        )
    else:
        ones = np.ones((1, 1, h, w), dtype=_F64)
        m = impl.conv2d(ones, tc.w_t, stride=tc.stride, padding=tc.padding)
    bias = None if tc.bias is None else tc.bias.reshape(1, -1, 1, 1)
    return np.ascontiguousarray(m, dtype=_F64), bias


class _PlaneSource:
    """Per-step additive plane: precomputed (``unrolled``) or computed
    into an arena scratch each step (``runtime``)."""

    def __init__(self, m, bias, ts, mode, arena, name):
        self.mode = mode
        if mode == "unrolled":
            planes = []
            for t in ts:
                p = t * m
                if bias is not None:
                    p = p + bias
                planes.append(np.ascontiguousarray(p, dtype=_F64))
            self.planes = planes
        else:
            self.m = m
            self.bias = bias
            self.scratch = arena.buffer(name, m.shape)

    def get(self, i, t):
        if self.mode == "unrolled":
            return self.planes[i]
        return steps.runtime_plane(self.m, self.bias, t, self.scratch)


class _BoundTimeConv:
    """A time-concat conv bound to geometry + arena.

    ``make_dw(src)`` / ``make_pw(src, out)`` return zero-argument-ish
    ``fn(i, t)`` step bodies with every operand (depthwise diagonals,
    canvas windows, 2-D GEMM aliases of the arena buffers) precomputed,
    so the Euler loop does no per-step slicing or reshaping.

    ``out_scale`` / ``out_shift`` fold a per-output-channel affine —
    a following BN's scale/shift, or the Euler step size ``h`` — into
    the conv's weights and additive time plane at bind time, turning
    the downstream op into a bare ReLU or a bare state add.
    """

    def __init__(self, tc, site, n, h, w, schedule, arena, impl, ts,
                 out_scale=None, out_shift=None):
        prefix = site
        c = tc.in_channels
        f = tc.out_channels
        m, bias = _time_planes(tc, h, w, impl)
        row_sc = None
        if out_scale is not None:
            sc = np.asarray(out_scale, dtype=_F64)
            plane_sc = sc.reshape(1, -1, 1, 1)
            m = np.ascontiguousarray(m * plane_sc)
            if bias is not None:
                bias = np.ascontiguousarray(bias * plane_sc)
            row_sc = sc.reshape(-1, 1)
        if out_shift is not None:
            shift = np.asarray(out_shift, dtype=_F64).reshape(1, -1, 1, 1)
            bias = shift if bias is None else np.ascontiguousarray(
                bias + shift
            )
        plane = _PlaneSource(
            m, bias, ts, _time_mode(schedule), arena, f"{prefix}.plane"
        )
        if tc.kind == "dsc":
            if not banded.is_banded(tc.stride, tc.padding,
                                    *tc.dw_x.shape[2:]):
                raise CompileError(f"{site}: depthwise conv is not "
                                   f"stride-1, same-padded and odd-k")
            d = arena.buffer(f"{prefix}.dw", (n, c, h, w))
            offsets, diags = banded.depthwise_diagonals(tc.dw_x, h, w, _F64)

            def make_dw(src):
                def dw_fn(i, t):
                    return banded.depthwise_banded(src, offsets, diags, d)

                return dw_fn

            self.make_dw = make_dw
            self.dw_buf = f"{prefix}.dw"
            pw_x = tc.pw_x if row_sc is None else np.ascontiguousarray(
                tc.pw_x * row_sc
            )
            x2d = d.reshape(n, c, h * w)

            def make_pw(src, out):
                out2d = out.reshape(n, f, h * w)

                def pw_fn(i, t):
                    return steps.pointwise_affine(
                        x2d, pw_x, plane.get(i, t), out, out2d
                    )

                return pw_fn

            self.make_pw = make_pw
        elif tc.is_pointwise:
            w_x = np.ascontiguousarray(tc.w_x.reshape(f, c))
            if row_sc is not None:
                w_x = np.ascontiguousarray(w_x * row_sc)
            self.make_dw = None

            def make_pw(src, out):
                x2d = src.reshape(n, c, h * w)
                out2d = out.reshape(n, f, h * w)

                def pw_fn(i, t):
                    return steps.pointwise_affine(
                        x2d, w_x, plane.get(i, t), out, out2d
                    )

                return pw_fn

            self.make_pw = make_pw
        else:  # dense k×k time conv inside the loop: arena im2col GEMM
            ph, pw = tc.padding
            sh, sw = tc.stride
            kh, kw = tc.w_x.shape[2], tc.w_x.shape[3]
            oh, ow = _conv_out_hw(h, w, tc.w_x.shape, tc.stride, tc.padding)
            canvas = arena.buffer(
                f"{prefix}.canvas", (n, c, h + 2 * ph, w + 2 * pw), zero=True
            )
            patches = shapes.as_strided_patches(canvas, kh, kw, sh, sw)
            colbuf = arena.buffer(f"{prefix}.cols", (n, oh, ow, c, kh, kw))
            gemmbuf = arena.buffer(f"{prefix}.gemm", (n, oh * ow, f))
            w_x = tc.w_x if row_sc is None else (
                tc.w_x * row_sc.reshape(-1, 1, 1, 1)
            )
            wmat_t = np.ascontiguousarray(w_x.reshape(f, -1).T)
            self.make_dw = None

            def make_pw(src, out):
                def pw_fn(i, t):
                    steps.fill_canvas(canvas, src, ph, pw)
                    return steps.dense_conv_cols(
                        patches, colbuf, wmat_t, gemmbuf,
                        plane.get(i, t), out,
                    )

                return pw_fn

            self.make_pw = make_pw


def _bind_conv_func(ir, prefix, n, c, h, w, schedule, arena, impl, ts, h_step):
    """Bind dsODENet dynamics: two (ssr → time-conv) passes + Euler.

    The second BN's scale/shift are folded into conv1's weights/plane
    (its ssr collapses to a bare ReLU) and the Euler step size into
    conv2's (the update collapses to ``z += f``).
    """
    ops = OpList()
    z = arena.buffer(f"{prefix}.z", (n, c, h, w))
    a = arena.buffer(f"{prefix}.a", (n, c, h, w))
    f1 = arena.buffer(f"{prefix}.f1", (n, c, h, w))
    a2 = arena.buffer(f"{prefix}.a2", (n, c, h, w))
    f = arena.buffer(f"{prefix}.f", (n, c, h, w))

    tc1 = _BoundTimeConv(
        ir.conv1, f"{prefix}.conv1", n, h, w, schedule, arena, impl, ts,
        out_scale=ir.scale2, out_shift=ir.shift2,
    )
    tc2 = _BoundTimeConv(
        ir.conv2, f"{prefix}.conv2", n, h, w, schedule, arena, impl, ts,
        out_scale=h_step,
    )
    s1, sh1 = ir.scale1, ir.shift1

    ops.add(
        "batchnorm2d", lambda i, t: steps.scale_shift_relu(z, s1, sh1, a),
        reads=(f"{prefix}.z",), writes=(f"{prefix}.a",), tag="ssr1",
    )
    _add_time_conv_ops(
        ops, tc1, prefix, src=f"{prefix}.a", src_buf=a,
        dst=f"{prefix}.f1", dst_buf=f1, tag="conv1",
    )
    ops.add(
        "batchnorm2d", lambda i, t: steps.relu(f1, a2),
        reads=(f"{prefix}.f1",), writes=(f"{prefix}.a2",), tag="ssr2",
    )
    _add_time_conv_ops(
        ops, tc2, prefix, src=f"{prefix}.a2", src_buf=a2,
        dst=f"{prefix}.f", dst_buf=f, tag="conv2",
    )
    ops.add(
        "add", lambda i, t: steps.state_add(z, f),
        reads=(f"{prefix}.f", f"{prefix}.z"),
        writes=(f"{prefix}.z",), tag="euler",
    )
    return z, ops


def _add_time_conv_ops(ops, tc, prefix, *, src, src_buf, dst, dst_buf, tag):
    """Register a bound time conv as one or two step ops."""
    if tc.make_dw is not None:
        ops.add(
            "conv2d", tc.make_dw(src_buf),
            reads=(src,), writes=(tc.dw_buf,), tag=f"{tag}.dw",
        )
        ops.add(
            "matmul", tc.make_pw(src_buf, dst_buf),
            reads=(tc.dw_buf,), writes=(dst,), tag=f"{tag}.pw",
        )
    else:
        ops.add(
            "matmul", tc.make_pw(src_buf, dst_buf),
            reads=(src,), writes=(dst,), tag=f"{tag}.pw",
        )


def _bind_mhsa_func(ir, prefix, n, c, h, w, schedule, arena, impl, ts, h_step):
    """Bind the bottleneck dynamics: ssr → 1x1 down → MHSA → ssr →
    1x1 up + Euler, fully arena-buffered."""
    if not (ir.down.is_pointwise and ir.up.is_pointwise):
        raise CompileError(
            "MHSA bottleneck down/up projections must be 1x1 stride-1"
        )
    inner = ir.down.out_channels
    heads = ir.mhsa.heads
    dh, ntok = shapes.mhsa_geometry(inner, heads, h, w)

    ops = OpList()
    z = arena.buffer(f"{prefix}.z", (n, c, h, w))
    a = arena.buffer(f"{prefix}.a", (n, c, h, w))
    y = arena.buffer(f"{prefix}.y", (n, inner, h, w))
    m_out = arena.buffer(f"{prefix}.mhsa", (n, inner, h, w))
    a2 = arena.buffer(f"{prefix}.a2", (n, inner, h, w))
    f = arena.buffer(f"{prefix}.f", (n, c, h, w))

    b = SimpleNamespace(
        tok=arena.buffer(f"{prefix}.tok", (n, ntok, inner)),
        qf=arena.buffer(f"{prefix}.qf", (n, ntok, inner)),
        kf=arena.buffer(f"{prefix}.kf", (n, ntok, inner)),
        vf=arena.buffer(f"{prefix}.vf", (n, ntok, inner)),
        q4=arena.buffer(f"{prefix}.q4", (n, heads, ntok, dh)),
        k4=arena.buffer(f"{prefix}.k4", (n, heads, ntok, dh)),
        v4=arena.buffer(f"{prefix}.v4", (n, heads, ntok, dh)),
        lg=arena.buffer(f"{prefix}.lg", (n, heads, ntok, ntok)),
        rl=(
            arena.buffer(f"{prefix}.rl", (n, heads, ntok, ntok))
            if ir.mhsa.rel_t is not None else None
        ),
        mx=(
            arena.buffer(f"{prefix}.mx", (n, heads, ntok, 1))
            if ir.mhsa.activation == "softmax" else None
        ),
        ph=arena.buffer(f"{prefix}.ph", (n, heads, ntok, dh)),
        cat=arena.buffer(f"{prefix}.cat", (n, ntok, inner)),
        mu=arena.buffer(f"{prefix}.mu", (n, ntok, 1)),
        sq=arena.buffer(f"{prefix}.sq", (n, ntok, inner)),
    )
    # Bind-time views: NCHW↔token transposes and head splits of the
    # arena buffers, so the step bodies are pure copyto/GEMM work.
    b.xsrc = y.reshape(n, inner, ntok).transpose(0, 2, 1)
    b.qf_h = b.qf.reshape(n, ntok, heads, dh).transpose(0, 2, 1, 3)
    b.kf_h = b.kf.reshape(n, ntok, heads, dh).transpose(0, 2, 1, 3)
    b.vf_h = b.vf.reshape(n, ntok, heads, dh).transpose(0, 2, 1, 3)
    b.k4t = b.k4.transpose(0, 1, 3, 2)
    b.ph_t = b.ph.transpose(0, 2, 1, 3)
    b.cat4 = b.cat.reshape(n, ntok, heads, dh)
    b.cat_t = b.cat.transpose(0, 2, 1)
    b.mdst = m_out.reshape(n, inner, ntok)

    s1, sh1, s2, sh2 = ir.scale1, ir.shift1, ir.scale2, ir.shift2
    ln = ir.mhsa.ln
    if ln is not None:
        # Fold the second BN's scale/shift into the output LayerNorm's
        # affine: ssr2 collapses to a bare ReLU.
        ln_w, ln_b, ln_eps = ln
        s2v, sh2v = s2.ravel(), sh2.ravel()
        folded_ln = (
            s2v if ln_w is None else ln_w * s2v,
            sh2v if ln_b is None else ln_b * s2v + sh2v,
            ln_eps,
        )
        ssr2_fn = lambda i, t: steps.relu(m_out, a2)  # noqa: E731
    else:
        folded_ln = None
        ssr2_fn = lambda i, t: steps.scale_shift_relu(  # noqa: E731
            m_out, s2, sh2, a2
        )
    p = SimpleNamespace(
        w_q=ir.mhsa.w_q, w_k=ir.mhsa.w_k, w_v=ir.mhsa.w_v,
        heads=heads, activation=ir.mhsa.activation,
        rel_t=ir.mhsa.rel_t, abs_table=ir.mhsa.abs_table, ln=folded_ln,
        inv_sqrt_dh=float(1.0 / np.sqrt(dh)),
    )

    down = _BoundTimeConv(
        ir.down, f"{prefix}.down", n, h, w, schedule, arena, impl, ts
    )
    up = _BoundTimeConv(
        ir.up, f"{prefix}.up", n, h, w, schedule, arena, impl, ts,
        out_scale=h_step,
    )

    ops.add(
        "batchnorm2d", lambda i, t: steps.scale_shift_relu(z, s1, sh1, a),
        reads=(f"{prefix}.z",), writes=(f"{prefix}.a",), tag="ssr1",
    )
    ops.add(
        "matmul", down.make_pw(a, y),
        reads=(f"{prefix}.a",), writes=(f"{prefix}.y",), tag="down",
    )
    qkv_bufs = (f"{prefix}.tok", f"{prefix}.qf", f"{prefix}.kf",
                f"{prefix}.vf", f"{prefix}.q4", f"{prefix}.k4",
                f"{prefix}.v4")
    ops.add(
        "matmul", lambda i, t: steps.mhsa_project(p, b),
        reads=(f"{prefix}.y",), writes=qkv_bufs, tag="mhsa.project",
    )
    attend_writes = tuple(
        name for name, buf in (
            (f"{prefix}.lg", b.lg), (f"{prefix}.rl", b.rl),
            (f"{prefix}.mx", b.mx), (f"{prefix}.ph", b.ph),
        ) if buf is not None
    )
    ops.add(
        "matmul", lambda i, t: steps.mhsa_attend(p, b),
        reads=(f"{prefix}.q4", f"{prefix}.k4", f"{prefix}.v4"),
        writes=attend_writes, tag="mhsa.attend",
    )
    ops.add(
        "layernorm", lambda i, t: steps.mhsa_merge(p, b, m_out),
        reads=(f"{prefix}.ph",),
        writes=(f"{prefix}.cat", f"{prefix}.mu", f"{prefix}.sq",
                f"{prefix}.mhsa"),
        tag="mhsa.merge",
    )
    ops.add(
        "batchnorm2d", ssr2_fn,
        reads=(f"{prefix}.mhsa",), writes=(f"{prefix}.a2",), tag="ssr2",
    )
    ops.add(
        "matmul", up.make_pw(a2, f),
        reads=(f"{prefix}.a2",), writes=(f"{prefix}.f",), tag="up",
    )
    ops.add(
        "add", lambda i, t: steps.state_add(z, f),
        reads=(f"{prefix}.f", f"{prefix}.z"),
        writes=(f"{prefix}.z",), tag="euler",
    )
    return z, ops


class _BoundPlan:
    """A compiled plan bound to one input geometry on one thread."""

    def __init__(self, plan, shape, dtype):
        n, c, h, w = shape
        schedule = plan.schedule
        impl = kernels.get_backend("fused")
        arena = Arena()
        stages = []       # (kernel_name, fn, is_block)
        self.block_ops = {}
        # the dtype the reference path carries through each stage
        # (promoted by every float64 parameter it meets)
        cur_dtype = np.dtype(dtype)

        for stage in plan.stages:
            name, op, ir = stage.name, stage.op, stage.ir
            if op in ("conv", "fconv"):
                weight, bias = ir.weight, ir.bias
                stride, padding, groups = ir.stride, ir.padding, ir.groups
                bias_col = (
                    None if bias is None else bias.reshape(1, -1, 1, 1)
                )

                def fn(x, *, _w=weight, _b=bias_col, _s=stride,
                       _p=padding, _g=groups, _r=op == "fconv"):
                    out = impl.conv2d(x, _w, stride=_s, padding=_p, groups=_g)
                    if _b is not None:
                        out += _b
                    if _r:
                        np.maximum(out, 0.0, out=out)
                    return out

                stages.append(("conv2d", fn, False))
                h, w = _conv_out_hw(h, w, weight.shape, stride, padding)
                c = weight.shape[0]
                cur_dtype = np.result_type(cur_dtype, weight.dtype)
            elif op == "ssr":
                scale, shift = ir
                cur_dtype = np.result_type(cur_dtype, scale.dtype)
                outbuf = arena.buffer(f"{name}.out", (n, c, h, w),
                                      dtype=cur_dtype)

                def fn(x, *, _s=scale, _sh=shift, _o=outbuf):
                    return steps.scale_shift_relu(x, _s, _sh, _o)

                stages.append(("batchnorm2d", fn, False))
            elif op == "maxpool":
                ksize, kstride, kpad = ir
                stages.append(("maxpool2d", functools.partial(
                    impl.maxpool2d, kernel_size=ksize, stride=kstride,
                    padding=kpad,
                ), False))
                sh, sw = kstride if kstride is not None else ksize
                h, w = shapes.conv_out_size(h, w, *ksize, sh, sw, *kpad)
            elif op == "ode":
                ts, h_step = ir.time_grid()
                binder = (
                    _bind_conv_func if ir.func.kind == "conv"
                    else _bind_mhsa_func
                )
                z, ops_list = binder(
                    ir.func, name, n, c, h, w, schedule, arena, impl,
                    ts, h_step,
                )
                ops_list.validate(loop_carried=(f"{name}.z",))
                self.block_ops[name] = ops_list
                stages.append((
                    "ode",
                    self._make_block_stage(z, ops_list, ir),
                    True,
                ))
            elif op == "gap":
                stages.append((
                    "global_avg_pool", lambda x: x.mean(axis=(2, 3)), False
                ))
            elif op == "linear":
                fc_w, fc_b = ir

                def fn(x, *, _w=fc_w, _b=fc_b):
                    out = x @ _w.T
                    if _b is not None:
                        out += _b
                    return out

                stages.append(("linear", fn, False))
            else:  # pragma: no cover - lower() is a closed vocabulary
                raise CompileError(f"unbindable stage {op!r} ({name!r})")

        self.stages = stages
        self.arena = arena

    @staticmethod
    def _make_block_stage(z, ops_list, block_ir):
        ops = tuple(ops_list)

        def stage(x):
            np.copyto(z, x)
            if kernels.active_collectors():
                def body(i, t, h):
                    for op in ops:
                        kernels.record_dispatch(op.kernel, op.fn, (i, t), {})
            else:
                def body(i, t, h):
                    for op in ops:
                        op.fn(i, t)
            fixed_grid_loop(
                body, block_ir.t0, block_ir.t1, block_ir.steps,
                solver="euler",
            )
            return z

        return stage

    def run(self, x):
        collectors = kernels.active_collectors()
        for kernel, fn, is_block in self.stages:
            if is_block or not collectors:
                x = fn(x)
            else:
                x = kernels.record_dispatch(kernel, fn, (x,), {})
        return x

    def validate(self):
        """Re-validate every block's op program (see
        :meth:`~repro.compile.arena.OpList.validate`)."""
        for name, ops_list in self.block_ops.items():
            ops_list.validate(loop_carried=(f"{name}.z",))
        return True


class CompiledPlan:
    """A packed ODE net compiled to a fused, arena-backed executable.

    Construction folds weights (cheap, geometry-free); calling binds to
    the input shape on first use and reuses the binding afterwards.
    Bindings are per thread — concurrent micro-batcher workers never
    share arena buffers.
    """

    def __init__(self, packed, schedule):
        from .ir import graph_hash

        self.schedule = dict(schedule)
        self.stages = lower(packed)
        self.graph_hash = graph_hash(packed)
        self._local = threading.local()

    def _bound(self, shape, dtype):
        cache = getattr(self._local, "bound", None)
        if cache is None:
            cache = self._local.bound = {}
        key = (shape, np.dtype(dtype).str)
        bound = cache.get(key)
        if bound is None:
            bound = cache[key] = _BoundPlan(self, shape, dtype)
        return bound

    def __call__(self, x):
        x = np.asarray(x)
        return self._bound(x.shape, x.dtype).run(x)

    def describe(self):
        """Schedule + per-binding arena/op summary (docs and tests)."""
        bindings = {}
        for key, bound in getattr(self._local, "bound", {}).items():
            bindings[str(key)] = {
                "arena_buffers": len(bound.arena),
                "arena_nbytes": bound.arena.nbytes,
                "stages": len(bound.stages),
                "step_ops": {
                    name: len(ops) for name, ops in bound.block_ops.items()
                },
            }
        return {
            "graph_hash": self.graph_hash,
            "schedule": dict(self.schedule),
            "bindings": bindings,
        }
