"""Pluggable kernel backends — the single dispatch seam under all hot math.

Every hot-path array computation in the repo (matmul/linear, im2col
conv + pooling, elementwise/activation, reductions, softmax/ReLU
attention scores, layernorm/batchnorm) funnels through the module-level
functions here, which dispatch to the calling thread's active *backend*:

* ``reference`` — the original numpy kernels, bit-identical to the
  pre-kernel codebase; the default and the semantic ground truth.
* ``fused`` — BLAS-routed convs, depthwise convs as one banded
  multiply-accumulate shared with ``compiled`` and ``quantized``
  (:mod:`repro.kernels.banded`), per-thread caches reused across ODE
  solver steps, and in-place elementwise rewrites; agrees with
  ``reference`` to float rounding (≤1e-6 relative, pinned by the
  parity suite) and is exactly equal on integer fixed-point arrays.
* ``compiled`` — everything ``fused`` does, plus a plan compiler for
  packed ODE nets (:mod:`repro.compile`): BN folding, fused
  scale-shift-ReLU, time-channel decomposition and a preallocated
  workspace arena so the Euler loop runs with zero per-step allocation;
  agrees with ``reference`` to ≤1e-6 relative.
* ``quantized`` — everything ``fused`` does, plus exact rerouting of
  integer (fixed-point raw) GEMMs onto the float BLAS path whenever the
  worst-case accumulator fits the float mantissa, and a plan hook that
  packs a ``QuantizedODENetExecutor`` into a scale-folded
  ``QuantizedPlan``; **bit-identical** to ``reference`` on integer
  arrays (pinned per registry model and Q-format by the parity suite).

Four consumer layers sit on this seam: the autograd ops
(``repro.tensor.ops_*``), the eval fast paths (``repro.nn.functional``),
the fixed-point kernels (``repro.fixedpoint``, which wrap these kernels
with quantise/rescale steps), and — transitively — the FPGA simulator's
software reference.  Adding a backend means subclassing
:class:`~repro.kernels.reference.ReferenceBackend`, overriding the
kernels you can beat, and calling :func:`register_backend`; see
``docs/ARCHITECTURE.md`` ("Kernel backends").

Selection follows one documented precedence, resolved by
:func:`resolve_backend`: explicit argument > ambient
``with use_backend(name)`` context > ``$REPRO_BACKEND`` > ``reference``
(see :mod:`repro.kernels.registry`).  Per-kernel call/seconds/bytes
instrumentation activates only inside :func:`collect` blocks — an idle
dispatch costs one attribute lookup and one truthiness check.
"""

from __future__ import annotations

from . import shapes
from .compiled import CompiledBackend
from .fused import FusedBackend
from .instrument import KernelCounters, active_collectors, collect, record_dispatch
from .quantized import QuantizedBackend
from .reference import ReferenceBackend
from .registry import (
    _init_state,
    available_backends,
    backend_name,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    set_backend,
    use_backend,
)

register_backend("reference", ReferenceBackend())
register_backend("fused", FusedBackend())
register_backend("compiled", CompiledBackend())
register_backend("quantized", QuantizedBackend())
_init_state()

# _init_state() created the thread-state object; import the rebound name
# so the dispatchers read the armed state.
from .instrument import _stack  # noqa: E402
from .registry import _state  # noqa: E402


def _dispatcher(name, doc):
    def dispatch(*args, **kwargs):
        impl = getattr(_state.backend, name)
        if not _stack.collectors:
            return impl(*args, **kwargs)
        return record_dispatch(name, impl, args, kwargs)

    dispatch.__name__ = name
    dispatch.__qualname__ = name
    dispatch.__doc__ = doc
    return dispatch

#: every kernel a backend provides, in dependency order
KERNELS = (
    "matmul",
    "linear",
    "conv2d",
    "conv2d_backward",
    "maxpool2d",
    "avgpool2d",
    "global_avg_pool",
    "add",
    "mul",
    "relu",
    "relu_forward",
    "softmax",
    "layernorm",
    "batchnorm2d",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "reduce_min",
)

_doc_src = ReferenceBackend
for _k in KERNELS:
    globals()[_k] = _dispatcher(
        _k, f"Dispatch ``{_k}`` to the active backend.\n\n"
            f"Reference semantics: {getattr(_doc_src, _k).__doc__}"
    )
del _k

__all__ = [
    "shapes",
    "ReferenceBackend",
    "FusedBackend",
    "CompiledBackend",
    "QuantizedBackend",
    "KernelCounters",
    "collect",
    "active_collectors",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "set_backend",
    "backend_name",
    "default_backend_name",
    "use_backend",
    "KERNELS",
    *KERNELS,
]
