"""Same-padded depthwise convs as one banded multiply-accumulate.

A stride-1, same-padded, odd-k depthwise conv is a banded matrix over
each sample's flattened C·H·W vector with k² diagonals: tap ``(i, j)``
sits at offset ``(i - ph)·W + (j - pw)`` and is zero wherever it falls
in the padding.  :func:`depthwise_banded` runs scipy's compiled
``dia_matvec`` (the loop behind ``scipy.sparse.dia_array @ v``) per
sample into the caller's buffer — one multiply-add pass per tap, in tap
order, with no padding canvas.  Its extension file is loaded directly:
importing ``scipy.sparse`` would cost every process about 20 MB.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np

#: element types ``dia_matvec`` is compiled for (float16 is not)
BANDED_DTYPES = frozenset(np.dtype(c) for c in "bBhHiIlLqQfd")


def _bind_dia_matvec(package_dir=None):
    """scipy's compiled ``dia_matvec`` from the ``scipy`` package at
    *package_dir* (found without importing scipy when omitted); raises
    ``ImportError`` naming scipy when it cannot be bound."""
    name = "scipy.sparse._sparsetools"
    try:
        root = package_dir or os.path.dirname(
            importlib.util.find_spec("scipy").origin
        )
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.exists(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module.dia_matvec
        raise FileNotFoundError(f"no extension file under {root!r}")
    except (AttributeError, ImportError, OSError, TypeError,
            ValueError) as exc:
        raise ImportError(
            f"repro.kernels needs scipy's compiled {name} extension: {exc}"
        ) from exc


_dia_matvec = _bind_dia_matvec()


def is_banded(stride, padding, kh, kw):
    """Stride 1, odd kernel sides, padded by half the kernel ("same")."""
    return (tuple(stride) == (1, 1) and kh % 2 == kw % 2 == 1
            and tuple(padding) == (kh // 2, kw // 2))


def depthwise_diagonals(weight, h, w, dtype):
    """``(offsets, diags)`` of the banded matrix of a same-padded
    depthwise conv with *weight* (C, 1, KH, KW) on H×W planes, in
    scipy's DIA layout: ``diags[t, col]`` is tap ``t``'s weight for the
    output at ``col - offsets[t]``."""
    c, _, kh, kw = weight.shape
    ph, pw, size = kh // 2, kw // 2, c * h * w
    inside = np.pad(np.ones((h, w), dtype=bool), ((ph, ph), (pw, pw)))
    taps = np.asarray(weight[:, 0], dtype=dtype)
    offsets = np.array([(i - ph) * w + j - pw for i in range(kh)
                        for j in range(kw)], dtype=np.intc)
    diags = np.zeros((kh * kw, size), dtype=dtype)
    for t, k in enumerate(offsets.tolist()):
        i, j = divmod(t, kw)
        band = np.where(inside[i : i + h, j : j + w],
                        taps[:, i, j, None, None], 0)
        lo, hi = max(k, 0), size + min(k, 0)
        if lo < hi:
            diags[t, lo:hi] = band.ravel()[lo - k : hi - k]
    return offsets, diags


def depthwise_banded(x, offsets, diags, out):
    """``out[n] = A · x[n]`` per sample for the banded matrix A of
    :func:`depthwise_diagonals`; *x* and *out* are disjoint C-contiguous
    (N, C, H, W) arrays of the diagonals' dtype.  Returns *out*."""
    if not (x.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("depthwise_banded needs C-contiguous x and out")
    n, size = x.shape[0], diags.shape[1]
    xs, ys = x.reshape(n, size), out.reshape(n, size)
    ys.fill(0)
    for s in range(n):
        _dia_matvec(size, size, len(offsets), size, offsets, diags,
                    xs[s], ys[s])
    return out
