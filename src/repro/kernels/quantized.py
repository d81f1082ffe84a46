"""The ``quantized`` backend: exact integer GEMMs on the float BLAS path.

Integer (fixed-point raw) GEMM-family kernels under ``reference`` and
``fused`` run through numpy's int64 einsum/matmul loops, which have
no BLAS behind them — an order of magnitude slower than the float
paths for the conv-heavy ODENet forwards.  The trick this backend adds:
integer arithmetic is *exact* in IEEE floats as long as every value —
every product and every partial sum — stays below the mantissa capacity
(``2^24`` for float32, ``2^53`` for float64).  For each integer GEMM it
bounds the worst-case accumulator magnitude from the actual operands
(``max|a| · max|b| · fan_in``), picks the narrowest float dtype whose
mantissa holds that bound, runs the inherited fused/BLAS kernel on the
cast operands and casts the (exactly integer-valued) result back to
int64.  When no float dtype is wide enough it falls back to the
inherited exact int64 path, so results are **bit-identical to the
reference backend on every input**, pinned per registry model and per
Q-format profile by the parity suite in ``tests/test_kernels.py``.

Float arrays take the inherited ``fused`` kernels unchanged, so running
the whole test suite under ``REPRO_BACKEND=quantized`` is the fused
matrix plus integer-GEMM rerouting.

Plan-level hook: like ``compiled`` for packed float nets, this backend
advertises :attr:`QuantizedBackend.supports_quantized_plans` and builds
a :class:`~repro.fixedpoint.plan.QuantizedPlan` from a
:class:`~repro.fixedpoint.QuantizedODENetExecutor` — scale-folded
weights, a float-domain carry and statically decided per-site dtypes —
which is what ``InferenceSession(executor,
config=SessionConfig(backend="quantized"))`` executes.
"""

from __future__ import annotations

import numpy as np

from .fused import FusedBackend

#: integer magnitudes strictly below these fit the float mantissa
#: exactly (see repro.fixedpoint.ops.F32_EXACT_BITS / F64_EXACT_BITS;
#: duplicated as plain ints to keep this module import-light)
_F32_EXACT = 1 << 24
_F64_EXACT = 1 << 53


def exact_gemm_dtype(bound: int):
    """Narrowest float dtype in which an integer accumulation bounded by
    ``bound`` (worst-case absolute value, products and partial sums
    included) is exact — or ``None`` if only int64 can hold it."""
    if bound < _F32_EXACT:
        return np.float32
    if bound < _F64_EXACT:
        return np.float64
    return None


def _is_int(a) -> bool:
    return isinstance(a, np.ndarray) and a.dtype.kind in "iu"


def _pair_dtype(a, b, fan_in: int):
    """Float dtype that makes ``a · b`` contractions over *fan_in* exact,
    from the operands' actual magnitudes (one cheap max-reduction each —
    noise next to the GEMM it unlocks)."""
    amax = int(np.abs(a).max(initial=0))
    bmax = int(np.abs(b).max(initial=0))
    return exact_gemm_dtype(amax * bmax * max(int(fan_in), 1) + 1)


class QuantizedBackend(FusedBackend):
    """Fused kernels plus exact float-BLAS rerouting of integer GEMMs."""

    name = "quantized"

    #: InferenceSession reroutes a QuantizedODENetExecutor through
    #: :meth:`quantize_plan` when the session's backend provides it.
    supports_quantized_plans = True

    def quantize_plan(self, executor):
        """Pack *executor* (a ``QuantizedODENetExecutor``) into a
        :class:`~repro.fixedpoint.plan.QuantizedPlan`, cached on the
        executor per backend instance so the quantized weight set is
        derived exactly once."""
        from ..fixedpoint.plan import QuantizedPlan  # lazy: import cycle

        cache = getattr(executor, "_plans", None)
        if cache is None:
            cache = executor._plans = {}
        key = id(self)
        if key not in cache:
            cache[key] = QuantizedPlan.from_executor(executor)
        return cache[key]

    # -- exact integer GEMM rerouting ----------------------------------
    def matmul(self, a, b):
        if _is_int(a) and _is_int(b):
            dt = _pair_dtype(a, b, a.shape[-1])
            if dt is not None:
                out = super().matmul(a.astype(dt), b.astype(dt))
                return out.astype(np.int64)
        return super().matmul(a, b)

    def linear(self, x, weight, bias=None):
        if _is_int(x) and _is_int(weight):
            dt = _pair_dtype(x, weight, x.shape[-1])
            if dt is not None:
                out = super().linear(x.astype(dt), weight.astype(dt))
                out = out.astype(np.int64)
                if bias is not None:
                    out += bias  # exact in the integer domain
                return out
        return super().linear(x, weight, bias)

    def conv2d(self, x, weight, stride=(1, 1), padding=(0, 0), groups=1):
        if _is_int(x) and _is_int(weight):
            fan_in = weight.shape[1] * weight.shape[2] * weight.shape[3]
            dt = _pair_dtype(x, weight, fan_in)
            if dt is not None:
                out = super().conv2d(
                    x.astype(dt), weight.astype(dt),
                    stride=stride, padding=padding, groups=groups,
                )
                return out.astype(np.int64)
        return super().conv2d(x, weight, stride=stride, padding=padding,
                              groups=groups)


__all__ = ["QuantizedBackend", "exact_gemm_dtype"]
