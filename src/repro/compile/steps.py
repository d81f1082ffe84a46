"""Compiled step bodies — every function here runs inside the Euler loop.

ALLOCATION-FREE ZONE.  These functions execute once per solver step on
the serving hot path; all outputs go into preallocated
:class:`~repro.compile.arena.Arena` buffers via ``out=`` ufunc forms,
``np.copyto`` and ``np.matmul(..., out=)``.  Array constructors
(``np.empty`` / ``np.zeros`` / ``np.ones`` / ``np.full``), as well as
``np.concatenate`` / ``np.pad`` / ``np.ascontiguousarray``, are banned
in this module — lint rule CMP001 enforces the ban statically, and
``tests/test_compile.py`` asserts zero constructor calls per step at
runtime.  Anything that must allocate (binding, plane precomputation,
the outer non-loop stages) belongs in :mod:`repro.compile.plan`.

Depthwise convs have no body here: the step calls the ``fused``
backend's banded kernel (:mod:`repro.kernels.banded`) into an arena
buffer, on diagonals built at bind time.

The math mirrors the reference kernels pass for pass — fused
scale-shift-ReLU is the folded BN→ReLU pair, the softmax/LayerNorm
in-place sequences follow the reference composites — so results stay
within 1e-6 of the ``reference`` backend (float64 throughout, pinned by
the parity suite).
"""

from __future__ import annotations

import numpy as np


def scale_shift_relu(x, scale, shift, out):
    """``relu(x * scale + shift)`` — a folded BN→ReLU pair, 3 passes."""
    np.multiply(x, scale, out=out)
    np.add(out, shift, out=out)
    np.maximum(out, 0.0, out=out)
    return out


def relu(x, out):
    """``relu(x)`` in one pass — a BN→ReLU pair whose scale/shift were
    folded into the *producing* conv's weights and plane at bind time."""
    np.maximum(x, 0.0, out=out)
    return out


def state_add(z, f):
    """``z += f`` in place — the Euler update once the step size ``h``
    has been folded into the dynamics' final conv at bind time."""
    np.add(z, f, out=z)
    return z


def fill_canvas(canvas, x, ph, pw):
    """Rewrite the interior of a zero-bordered padded canvas."""
    n, c, h, w = x.shape
    np.copyto(canvas[:, :, ph : ph + h, pw : pw + w], x)
    return canvas


def pointwise_affine(x2d, wmat, plane, out, out2d):
    """1x1 conv as a batched channel GEMM plus a fused additive plane.

    ``out[n, f] = wmat[f, :] @ x[n, :] + plane`` — *plane* carries the
    conv bias and, inside the Euler loop, the precomputed ``t_i * M``
    time term, so the whole time-concat conv is one GEMM and one add.
    *x2d* / *out2d* are the (N, C, H*W) / (N, F, H*W) views of the
    source and destination arena buffers, precomputed at bind time.
    """
    np.matmul(wmat, x2d, out=out2d)
    np.add(out, plane, out=out)
    return out


def dense_conv_cols(patches, colbuf, wmat_t, gemmbuf, plane, out):
    """Dense conv as explicit im2col + GEMM, arena-buffered.

    *patches* is the (N, C, OH, OW, KH, KW) view of the padded canvas;
    *colbuf* is (N, OH, OW, C, KH, KW) contiguous, *wmat_t* is
    (C*KH*KW, F), *gemmbuf* is (N, OH*OW, F) and *out* is
    (N, F, OH, OW).  One transposing copy in, one GEMM, one transposing
    copy out, one fused plane add.
    """
    n, f = out.shape[0], out.shape[1]
    oh, ow = out.shape[2], out.shape[3]
    np.copyto(colbuf, patches.transpose(0, 2, 3, 1, 4, 5))
    np.matmul(
        colbuf.reshape(n, oh * ow, -1), wmat_t,
        out=gemmbuf.reshape(n, oh * ow, f),
    )
    np.copyto(out, gemmbuf.reshape(n, oh, ow, f).transpose(0, 3, 1, 2))
    np.add(out, plane, out=out)
    return out


def runtime_plane(m, bias, t, out):
    """``t * M (+ bias)`` computed at step time — the ``runtime``
    alternative to precomputed (``unrolled``) per-step planes."""
    np.multiply(m, t, out=out)
    if bias is not None:
        np.add(out, bias, out=out)
    return out


# ----------------------------------------------------------------------
# MHSA — the bottleneck dynamics' attention, fully arena-buffered
# ----------------------------------------------------------------------

def mhsa_project(p, b):
    """NCHW → tokens, then fused Q/K/V projections into head layout.

    Reads the bound source view ``b.xsrc`` (the (B, N, D) token view of
    the down-projection's NCHW output buffer); writes ``b.tok``,
    ``b.qf/kf/vf`` (B, N, D) and the head-split contiguous copies
    ``b.q4/k4/v4`` (B, heads, N, d_h) via the bind-time views
    ``b.qf_h/kf_h/vf_h``.
    """
    np.copyto(b.tok, b.xsrc)
    if p.abs_table is not None:
        np.add(b.tok, p.abs_table, out=b.tok)
    np.matmul(b.tok, p.w_q, out=b.qf)
    np.matmul(b.tok, p.w_k, out=b.kf)
    np.matmul(b.tok, p.w_v, out=b.vf)
    np.copyto(b.q4, b.qf_h)
    np.copyto(b.k4, b.kf_h)
    np.copyto(b.v4, b.vf_h)
    return b.q4


def mhsa_attend(p, b):
    """Scores → activation → per-head values, all in arena buffers.

    Follows the reference op order: QK^T logits (via the bind-time
    transposed view ``b.k4t``), relative-position correction,
    1/sqrt(d_h) scale, then softmax (shift/exp/normalise in place) or
    ReLU scores, then the value GEMM into ``b.ph``.
    """
    np.matmul(b.q4, b.k4t, out=b.lg)
    if p.rel_t is not None:
        np.matmul(b.q4, p.rel_t, out=b.rl)
        np.add(b.lg, b.rl, out=b.lg)
    np.multiply(b.lg, p.inv_sqrt_dh, out=b.lg)
    if p.activation == "softmax":
        np.max(b.lg, axis=-1, keepdims=True, out=b.mx)
        np.subtract(b.lg, b.mx, out=b.lg)
        np.exp(b.lg, out=b.lg)
        np.sum(b.lg, axis=-1, keepdims=True, out=b.mx)
        np.divide(b.lg, b.mx, out=b.lg)
    else:
        np.maximum(b.lg, 0.0, out=b.lg)
    np.matmul(b.lg, b.v4, out=b.ph)
    return b.ph


def mhsa_merge(p, b, out):
    """Concat heads (via the bind-time views ``b.cat4`` / ``b.ph_t``),
    output LayerNorm (in place, reference composite), back to NCHW
    through the destination view ``b.mdst``."""
    np.copyto(b.cat4, b.ph_t)
    if p.ln is not None:
        # each mean is np.mean's own arithmetic (a reduce-add, then a
        # divide by the count) without its Python wrapper
        ln_w, ln_b, ln_eps = p.ln
        d = b.cat.shape[-1]
        np.add.reduce(b.cat, axis=-1, keepdims=True, out=b.mu)
        np.divide(b.mu, d, out=b.mu)
        np.subtract(b.cat, b.mu, out=b.cat)
        np.multiply(b.cat, b.cat, out=b.sq)
        np.add.reduce(b.sq, axis=-1, keepdims=True, out=b.mu)
        np.divide(b.mu, d, out=b.mu)
        np.add(b.mu, ln_eps, out=b.mu)
        np.power(b.mu, -0.5, out=b.mu)
        np.multiply(b.cat, b.mu, out=b.cat)
        if ln_w is not None:
            np.multiply(b.cat, ln_w, out=b.cat)
            np.add(b.cat, ln_b, out=b.cat)
    np.copyto(b.mdst, b.cat_t)
    return out
