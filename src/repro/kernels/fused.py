"""The ``fused`` backend: BLAS-routed convs, workspace reuse, in-place math.

Same math as :class:`~repro.kernels.reference.ReferenceBackend`, scheduled
for speed (outputs agree to float rounding, ≤1e-6 relative — pinned by
the parity suite in ``tests/test_kernels.py``):

* **conv2d** picks a shape-specialised strategy instead of the generic
  grouped einsum: 1×1 stride-1 pointwise convs collapse to one batched
  GEMM over the channel axis, same-padded depthwise convs run the
  banded multiply-accumulate of :mod:`repro.kernels.banded`, and every
  other dense conv is one im2col GEMM: the patch view copied into a
  fresh (C·KH·KW, N·OH·OW) column array in the promoted input×weight
  dtype, one ``np.matmul`` against the (F, C·KH·KW) weight, one
  transposing copy into a fresh NCHW output.  Integer raws, which
  numpy multiplies without BLAS, take the (N·OH·OW, C·KH·KW) column
  layout instead, so the reduction runs over contiguous memory.
* **maxpool2d** is separable: ``kw`` strided ``np.maximum`` passes
  along W into an (N, C, H, OW) row array, then ``kh`` passes along H
  over that narrower array into the output — ``(kw-1)+(kh-1)`` passes
  instead of ``kh·kw-1``.  Max is exact and associative, so the output
  equals the reference bit for bit, for float and integer raws alike.
* **per-thread caches** hold the banded diagonals (a bounded LRU keyed
  by weight content, so an in-place hot swap misses), the padded
  dense-conv and pooling inputs (a border written once, keyed by
  padded shape *and* padding) and each dense-conv canvas's patch view
  — the ODE solver reuses each conv geometry every step.  Column and
  GEMM buffers are *not* cached: serving binds many batch sizes, and
  a buffer per shape would pin memory for each.
* **batchnorm2d** folds ``(mean, inv_std, weight, bias)`` into one
  per-channel ``(scale, shift)`` pair and runs two passes; **relu** is
  one ``np.maximum`` pass against a zero of the input's dtype (an
  integer raw stays integer); **softmax** reuses its intermediate in
  place.

Integer (fixed-point raw) arrays take the same fast paths; integer
addition is associative, so quantised results are *exactly* equal to the
reference backend's, whichever strategy runs.

Backward kernels are inherited from the reference backend: training
gradients stay the well-tested einsum path while eval forwards get the
speed.  (Gradcheck passes under this backend because analytic gradients
of the same math agree with finite differences of any summation order.)
"""

from __future__ import annotations

import threading

import numpy as np

from . import banded, shapes
from .reference import ReferenceBackend


#: per-thread LRU bound on cached depthwise diagonal sets (one a site)
DIAGONAL_CACHE_ENTRIES = 16


class _Workspace(threading.local):
    """Per-thread scratch arrays, dense-conv patch views and banded
    depthwise diagonals."""

    def __init__(self):
        self.cache = {}
        self.patches = {}
        self.diags = {}

    def get(self, tag, shape, dtype, padding):
        """The zero-initialised scratch array for *tag*.  A canvas keeps
        its border between calls, so *padding* is part of the key: the
        same padded shape reached with another padding must not read the
        previous call's interior as its border."""
        key = (tag, shape, np.dtype(dtype).str, padding)
        buf = self.cache.get(key)
        if buf is None:
            buf = self.cache[key] = np.zeros(shape, dtype=dtype)
        return buf

    def padded_patches(self, x, kh, kw, sh, sw, ph, pw):
        """Write *x* into its zero-bordered ``"pad"`` canvas and return
        the canvas's patch view transposed to (C, KH, KW, N, OH, OW).
        The interior slice and the view own no memory and are built
        once per canvas geometry and window."""
        key = (x.shape, x.dtype.str, ph, pw, kh, kw, sh, sw)
        hit = self.patches.get(key)
        if hit is None:
            n, c, h, w = x.shape
            canvas = self.get("pad", (n, c, h + 2 * ph, w + 2 * pw),
                              x.dtype, (ph, pw))
            hit = self.patches[key] = (
                canvas[:, :, ph : ph + h, pw : pw + w],
                shapes.as_strided_patches(canvas, kh, kw, sh, sw)
                .transpose(1, 4, 5, 0, 2, 3),
            )
        interior, patches = hit
        np.copyto(interior, x)
        return patches

    def diagonals(self, weight, h, w, dtype):
        """Cached :func:`banded.depthwise_diagonals`, keyed by the
        weight's bytes so an in-place write (a hot swap) misses."""
        key = (weight.shape, weight.dtype.str, weight.tobytes(), h, w,
               dtype.str)
        hit = self.diags.pop(key, None)  # re-inserted as most recent
        if hit is None:
            hit = banded.depthwise_diagonals(weight, h, w, dtype)
            if len(self.diags) >= DIAGONAL_CACHE_ENTRIES:
                del self.diags[next(iter(self.diags))]
        self.diags[key] = hit
        return hit


class FusedBackend(ReferenceBackend):
    """Speed-scheduled kernels; semantics defined by the reference."""

    name = "fused"

    def __init__(self):
        self._ws = _Workspace()

    # -- convolution ---------------------------------------------------
    def conv2d(self, x, weight, stride=(1, 1), padding=(0, 0), groups=1):
        n, c, h, w, f, cg, kh, kw, fg, oh, ow = shapes.conv_geometry(
            x.shape, weight.shape, stride, padding, groups
        )
        sh, sw = stride
        ph, pw = padding

        # 1x1 stride-1 dense conv == one batched channel GEMM.
        if (kh, kw, sh, sw, ph, pw, groups) == (1, 1, 1, 1, 0, 0, 1):
            out = np.matmul(weight.reshape(f, c), x.reshape(n, c, h * w))
            return out.reshape(n, f, oh, ow)

        # Same-padded depthwise: the banded kernel, no padding canvas.
        dtype = np.result_type(x, weight)
        if (groups == c == f and dtype in banded.BANDED_DTYPES
                and banded.is_banded(stride, padding, kh, kw)):
            offsets, diags = self._ws.diagonals(weight, h, w, dtype)
            return banded.depthwise_banded(
                np.ascontiguousarray(x, dtype=dtype), offsets, diags,
                np.empty((n, c, h, w), dtype=dtype),
            )

        if groups == 1:
            # im2col GEMM.  The output must be fresh: callers add a bias
            # into it in place.
            if ph or pw:
                patches = self._ws.padded_patches(x, kh, kw, sh, sw, ph, pw)
            else:
                patches = shapes.as_strided_patches(
                    x, kh, kw, sh, sw
                ).transpose(1, 4, 5, 0, 2, 3)
            wmat = weight.reshape(f, -1).astype(dtype, copy=False)
            if dtype.kind == "f":  # BLAS: (F, K) @ (K, N·OH·OW)
                cols = np.empty(patches.shape, dtype=dtype)
                np.copyto(cols, patches)
                gemm = np.matmul(wmat, cols.reshape(c * kh * kw, -1))
                gemm = gemm.reshape(f, n, oh, ow).transpose(1, 0, 2, 3)
            else:
                # numpy's integer matmul loops over the reduction
                # innermost, so integer raws keep K contiguous instead:
                # (N·OH·OW, K) @ (K, F), 2-3x faster than (F, K) @ (K, M)
                patches = patches.transpose(3, 4, 5, 0, 1, 2)
                cols = np.empty(patches.shape, dtype=dtype)
                np.copyto(cols, patches)
                gemm = np.matmul(cols.reshape(n * oh * ow, -1), wmat.T)
                gemm = gemm.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
            out = np.empty((n, f, oh, ow), dtype=dtype)
            np.copyto(out, gemm)
            return out

        # General grouped case: the reference einsum (rare in practice).
        return super().conv2d(x, weight, stride, padding, groups)

    def maxpool2d(self, x, kernel_size, stride=None, padding=(0, 0)):
        kh, kw = kernel_size
        sh, sw = stride if stride is not None else kernel_size
        ph, pw = padding
        n, c, h, w = x.shape
        oh, ow = shapes.conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
        xp = x
        if ph or pw:
            # The pooling canvas needs a non-zero border fill, so it
            # keeps its own workspace tag with the border filled only
            # at allocation (the fill is dtype-determined, hence stable).
            pad_value = shapes.pool_pad_value(x.dtype)
            xp = self._ws.get("pool", (n, c, h + 2 * ph, w + 2 * pw),
                              x.dtype, (ph, pw))
            if xp[0, 0, 0, 0] != pad_value:
                xp.fill(pad_value)
            xp[:, :, ph : ph + h, pw : pw + w] = x
        # Separable: kw passes along W into a row array, then kh passes
        # along H over that sw-times-narrower array.
        rows = xp[:, :, :, 0 : sw * ow : sw].copy()
        for j in range(1, kw):
            np.maximum(rows, xp[:, :, :, j : j + sw * ow : sw], out=rows)
        out = rows[:, :, 0 : sh * oh : sh].copy()
        for i in range(1, kh):
            np.maximum(out, rows[:, :, i : i + sh * oh : sh], out=out)
        return out

    # -- elementwise / score kernels -----------------------------------
    def softmax(self, x, axis=-1):
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        np.divide(e, e.sum(axis=axis, keepdims=True), out=e)
        return e

    def relu(self, x, out=None):
        return np.maximum(x, x.dtype.type(0), out=out)

    def batchnorm2d(self, x, mean, inv_std, weight=None, bias=None):
        if weight is None:
            scale, shift = inv_std, -(mean * inv_std)
        else:
            scale = inv_std * weight
            shift = bias - mean * scale
        out = np.multiply(x, scale, dtype=np.result_type(x, mean, scale, shift))
        np.add(out, shift, out=out)
        return out
