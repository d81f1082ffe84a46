"""Per-layer instruments the benchmark applies from outside the program.

Nothing here edits ``src/``: layers are timed by wrapping public entry
points on the objects a workload built (``Server.submit``,
``Replica.run``), by walking ``PackedODENet.graph()`` stage by stage,
and by ``kernels.collect``; ``workloads.py`` times
``InferenceSession.predict_batch`` and ``WeightPublisher.publish`` calls
where it makes them.
Spans stay in memory (:class:`Spans`) and are written out once, when
the run ends.
"""

from __future__ import annotations

import json
import resource
import threading
import time

import numpy as np

from repro import kernels
from repro.nn import functional as F

#: the kernels the per-layer ledger reports for every backend
LEDGER_KERNELS = ("conv2d", "matmul", "batchnorm2d", "add")

#: ``PackedODENet.graph()`` entries grouped into the ledger's stages
STAGES = (
    ("stem", ("stem.conv", "stem.norm", "stem.relu", "stem.pool")),
    ("block1", ("block1",)),
    ("down1", ("down1",)),
    ("block2", ("block2",)),
    ("down2", ("down2",)),
    ("block3", ("block3",)),
    ("head", ("head.norm", "head.relu", "head.pool", "head.fc")),
)

#: a serving probe collects kernel counters on one batch in this many
KERNEL_EVERY = 16

#: ``FullModelDesign`` layer names, in network order
FPGA_LAYERS = ("stem", "block1", "down_block1", "block2", "down_block2",
               "block3", "fc")


class Spans:
    """An in-memory span log: ``(name, t0, t1, attrs)`` tuples."""

    def __init__(self):
        self._lock = threading.Lock()
        self._spans = []

    def add(self, name, t0, t1, **attrs):
        with self._lock:
            self._spans.append((name, t0, t1, attrs))

    def durations_ms(self, name) -> np.ndarray:
        with self._lock:
            return np.asarray(
                [(t1 - t0) * 1e3 for n, t0, t1, _ in self._spans if n == name]
            )

    def select(self, name):
        with self._lock:
            return [s for s in self._spans if s[0] == name]

    def dump(self, path, meta) -> None:
        with self._lock:
            spans = [
                {"name": n, "t0": t0, "t1": t1, **attrs}
                for n, t0, t1, attrs in self._spans
            ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)


# ----------------------------------------------------------------------
# paper-point layers: packed stages, kernels, calibration rows
# ----------------------------------------------------------------------
def _apply(op, payload, x):
    """Execute one ``PackedODENet.graph()`` entry on *x*."""
    if op == "conv":
        return payload(x)
    if op == "batchnorm":
        return F.batchnorm2d_eval(x, payload)
    if op == "relu":
        return kernels.relu(x, out=x)
    if op == "maxpool":
        return F.max_pool2d(x, *payload)
    if op == "ode":
        return payload(x)
    if op == "down":
        conv, norm = payload
        y = F.batchnorm2d_eval(conv(x), norm)
        return kernels.relu(y, out=y)
    if op == "gap":
        return F.global_avg_pool2d(x)
    if op == "linear":
        weight, bias = payload
        return F.linear(x, weight, bias)
    raise ValueError(f"unknown graph op {op!r}")


def run_stages(packed, x, spans=None):
    """Run *packed* (a ``PackedODENet``) stage by stage under the
    ``fused`` backend; returns ``(logits, {stage: ms})``."""
    graph = {name: (op, payload) for name, op, payload in packed.graph()}
    out = np.asarray(x)
    times = {}
    with kernels.use_backend("fused"):
        for stage, names in STAGES:
            t0 = time.perf_counter()
            for name in names:
                out = _apply(*graph[name], out)
            t1 = time.perf_counter()
            times[stage] = (t1 - t0) * 1e3
            if spans is not None:
                spans.add(f"runtime.stage.{stage}", t0, t1)
    return out, times


def kernel_rows(counters, per) -> dict:
    """``{kernel: (ms, calls, mbytes)}`` per *per* operations for the
    ledger kernels (bytes are computed from array sizes, not measured)."""
    snap = counters.snapshot()
    rows = {}
    for name in LEDGER_KERNELS:
        entry = snap.get(name, {"seconds": 0.0, "calls": 0, "bytes": 0})
        rows[name] = (
            entry["seconds"] * 1e3 / per,
            entry["calls"] / per,
            entry["bytes"] / 1e6 / per,
        )
    return rows


def gemm_peak_gmac_s(dtype, n=384, repeats=7) -> float:
    """Best-of-*repeats* GMAC/s of a plain ``n x n`` BLAS GEMM (straight
    to numpy, not through ``repro.kernels``: this is the box's ceiling)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    np.dot(a, b)  # repro-lint: ignore[HOT001] calibration GEMM, not model math
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.dot(a, b)  # repro-lint: ignore[HOT001] calibration GEMM, not model math
        best = min(best, time.perf_counter() - t0)
    return n ** 3 / best / 1e9


def fpga_table(model) -> dict:
    """Simulated cycles per layer and total latency from
    :class:`repro.fpga.FullModelDesign` (static: depends on shapes only)."""
    from repro.fpga import FullModelDesign

    design = FullModelDesign(model)
    cycles = {layer.name: int(layer.cycles) for layer in design.layers}
    return {"cycles": cycles, "latency_ms": float(design.latency_ms())}


def cpu_s() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# serving layers: wrappers around public entry points
# ----------------------------------------------------------------------
class ServeProbe:
    """Times ``Server.submit`` and every replica's ``run`` by wrapping
    them on the instances.

    ``Replica.run`` executes on the replica's executor thread, and the
    serving layer resolves the batch's futures on that same thread right
    after ``run`` returns; :meth:`last_run` hands a future's done
    callback the batch that served it.  With ``collect_kernels`` every
    :data:`KERNEL_EVERY`-th ``run`` also collects per-kernel counters,
    keyed by the kernel backend its tier runs on (sampling keeps the
    collector's per-call clock out of most batches).
    """

    def __init__(self, server, spans, *, collect_kernels=False,
                 tier_backends=None):
        self.spans = spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters = {}
        self.batches = {}  # backend -> dispatched batch count
        self._tier_backends = dict(tier_backends or {})
        self._collect = collect_kernels
        self._seen = 0
        self._server = server
        self._submit = server.submit
        server.submit = self._timed_submit
        self._runs = []
        for replica in server.pool:
            self._runs.append((replica, replica.run))
            replica.run = self._wrap_run(replica, replica.run)

    def _timed_submit(self, x, **kw):
        t0 = time.perf_counter()
        fut = self._submit(x, **kw)
        self.spans.add("serve.submit", t0, time.perf_counter())
        return fut

    def _wrap_run(self, replica, run):
        def timed_run(samples, tier=None, **kw):
            backend = self._tier_backends.get(tier, "primary")
            with self._lock:
                self._seen += 1
                sampled = self._collect and self._seen % KERNEL_EVERY == 0
            if sampled:
                counters = kernels.KernelCounters()
                t0 = time.perf_counter()
                with kernels.collect(counters):
                    out = run(samples, tier=tier, **kw)
                t1 = time.perf_counter()
                with self._lock:
                    merged = self.counters.setdefault(
                        backend, kernels.KernelCounters()
                    )
                    for name, calls in counters.calls.items():
                        merged.calls[name] = merged.calls.get(name, 0) + calls
                        merged.seconds[name] = (
                            merged.seconds.get(name, 0.0) + counters.seconds[name]
                        )
                        merged.bytes[name] = (
                            merged.bytes.get(name, 0) + counters.bytes[name]
                        )
                    self.batches[backend] = self.batches.get(backend, 0) + 1
            else:
                t0 = time.perf_counter()
                out = run(samples, tier=tier, **kw)
                t1 = time.perf_counter()
            rows = len(samples)
            self.spans.add("replica.run", t0, t1, rows=rows,
                           tier=tier or "full", replica=replica.name)
            self._local.last = (t0, t1, rows)
            return out

        return timed_run

    def last_run(self):
        """``(t0, t1, rows)`` of the last ``run`` on the calling thread."""
        return getattr(self._local, "last", None)

    def close(self) -> None:
        """Restore the wrapped entry points."""
        self._server.submit = self._submit
        for replica, run in self._runs:
            replica.run = run
