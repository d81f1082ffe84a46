"""Schedule search + the on-disk schedule cache.

A *schedule* is a flat dict of strategy choices (see
:mod:`repro.compile.plan`).  One axis is left: whether per-step time
planes are precomputed (``unrolled``) or multiplied at step time
(``runtime``).  Dense convs have no axis — every backend runs the
``fused`` im2col GEMM.  The right choice is machine-dependent — BLAS
builds, cache sizes and core counts move the crossover points — so
:func:`autotune` searches it empirically: greedy coordinate descent
over the axes, timing the *full* compiled forward with the benchmark
harness's best-of-N discipline (minimum over repeats of a mean over
inner iterations, the same estimator ``benchmarks/`` uses).

Winning schedules are cached as JSON keyed by
``graph_hash`` (structural, from :func:`repro.compile.ir.graph_hash`)
× ``machine_fingerprint``, so a tuned machine never re-tunes until the
model structure, the compiler version or the machine changes.  Cache
location: ``$REPRO_COMPILE_CACHE`` if set, else
``~/.cache/repro/compile``.  :func:`compile_packed` consults the cache
transparently; a miss falls back to the heuristic
:func:`default_schedule` without timing anything, so sessions never pay
a tuning cost they didn't ask for.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from .ir import COMPILE_VERSION, graph_hash, graph_signature
from .plan import CompiledPlan

__all__ = [
    "autotune",
    "compile_packed",
    "default_schedule",
    "schedule_axes",
    "machine_fingerprint",
    "graph_hash",
    "graph_signature",
    "cache_dir",
    "cache_path",
    "load_schedule",
    "save_schedule",
]

_CACHE_ENV = "REPRO_COMPILE_CACHE"


def machine_fingerprint() -> str:
    """A short stable identifier of this machine's execution substrate.

    Captures what moves schedule crossover points: CPU architecture and
    model string, core count, and the numpy (hence BLAS) build.
    """
    import hashlib

    raw = json.dumps(
        {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "numpy": np.__version__,
        },
        sort_keys=True,
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:12]


def cache_dir() -> str:
    """The schedule cache directory (``$REPRO_COMPILE_CACHE`` wins)."""
    env = os.environ.get(_CACHE_ENV)
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "compile"
    )


def cache_path(packed) -> str:
    """The cache file a packed plan's schedule lives at on this machine."""
    return os.path.join(
        cache_dir(),
        f"schedule-{graph_hash(packed)}-{machine_fingerprint()}.json",
    )


def load_schedule(packed):
    """The cached schedule entry for *packed* on this machine, or None.

    Entries carry the compiler version and are ignored (treated as a
    miss) when it moved — a version bump invalidates every cache.
    """
    path = cache_path(packed)
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if entry.get("compile_version") != COMPILE_VERSION:
        return None
    if not isinstance(entry.get("schedule"), dict):
        return None
    return entry


def save_schedule(packed, schedule, *, tuned=False, best_ms=None,
                  input_shape=None, timings=None) -> str:
    """Persist *schedule* for *packed* on this machine; returns the path."""
    path = cache_path(packed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    entry = {
        "compile_version": COMPILE_VERSION,
        "graph_hash": graph_hash(packed),
        "machine": machine_fingerprint(),
        "schedule": dict(schedule),
        "tuned": bool(tuned),
        "best_ms": best_ms,
        "input_shape": None if input_shape is None else list(input_shape),
        "timings_ms": timings or {},
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return path


def schedule_axes(packed):
    """The tunable axes of a packed plan: ``[(key, [choices...])]``.

    Only the global time-plane mode; *packed* is kept so the search
    space stays a function of the plan.  The first choice of each axis
    is the heuristic default.
    """
    return [("time_planes", ["unrolled", "runtime"])]


def default_schedule(packed) -> dict:
    """The heuristic schedule: first choice of every axis, no timing."""
    return {key: choices[0] for key, choices in schedule_axes(packed)}


def _time_plan(packed, schedule, x, repeats, inner):
    """Best-of-*repeats* mean-of-*inner* wall time of one forward, in
    seconds — the benchmark harness's estimator."""
    plan = CompiledPlan(packed, schedule)
    plan(x)  # warm: bind geometry, allocate the arena
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            plan(x)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def autotune(packed, x, *, repeats=5, inner=4, save=True):
    """Search fusion/tile/unroll schedules for *packed* on this machine.

    Greedy coordinate descent: start from :func:`default_schedule`,
    sweep each axis in turn keeping the best choice found so far, timing
    the full compiled forward on *x* as the oracle.  Returns
    ``(schedule, report)`` where ``report`` maps each tried
    ``axis=choice`` to its milliseconds.  ``save=True`` (default) writes
    the winner to the schedule cache.
    """
    x = np.asarray(x)
    best = default_schedule(packed)
    timings = {}
    best_t = _time_plan(packed, best, x, repeats, inner)
    timings["default"] = best_t * 1e3
    for key, choices in schedule_axes(packed):
        for choice in choices:
            if best.get(key) == choice:
                continue
            candidate = dict(best)
            candidate[key] = choice
            t = _time_plan(packed, candidate, x, repeats, inner)
            timings[f"{key}={choice}"] = t * 1e3
            if t < best_t:
                best, best_t = candidate, t
    report = {
        "best_ms": best_t * 1e3,
        "timings_ms": timings,
        "input_shape": list(x.shape),
    }
    if save:
        report["cache_path"] = save_schedule(
            packed, best, tuned=True, best_ms=best_t * 1e3,
            input_shape=x.shape, timings=timings,
        )
    return best, report


def compile_packed(packed, *, schedule=None):
    """Compile a packed plan: explicit schedule > cached > heuristic.

    The entry point :class:`repro.kernels.compiled.CompiledBackend`
    routes through; never tunes implicitly.
    """
    if schedule is None:
        entry = load_schedule(packed)
        schedule = (
            entry["schedule"] if entry is not None
            else default_schedule(packed)
        )
    return CompiledPlan(packed, schedule)
