"""The benchmark's own load driver: seeded open- and closed-loop phases.

It drives anything with ``submit(x, deadline_ms=...) -> Future`` (a
:class:`repro.serve.Server`, or a fake in the tests) and never goes
through ``repro.serve.loadgen``, so a change to the program's load
harness cannot change the load the benchmark offers.

* An *open* phase sends on a seeded Poisson schedule whatever the
  server does.  Each request's latency is timed from the moment it was
  due, so a stall also charges the requests queued up behind it, and the
  driver records how late it sent each one (``late_ms``).
* A *closed* phase keeps a fixed window of requests outstanding from one
  thread: the next request leaves only when one completes.

Every request ends in exactly one outcome from :data:`OUTCOMES`; a
future still unresolved ``hang_s`` after its phase ends is ``hung``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve import (
    DeadlineExceeded,
    QueueFull,
    ReplicaUnavailable,
    ServerStopped,
)

OUTCOMES = (
    "completed", "shed", "deadline", "stopped", "unavailable", "error",
    "hung",
)

_ERROR_OUTCOMES = (
    (QueueFull, "shed"),
    (DeadlineExceeded, "deadline"),
    (ServerStopped, "stopped"),
    (ReplicaUnavailable, "unavailable"),
)


def poisson_offsets(rate_hz, duration_s, seed):
    """Sorted arrival offsets (s) below *duration_s*: exponential gaps
    with mean ``1 / rate_hz`` drawn from ``default_rng(seed)``."""
    if rate_hz <= 0 or duration_s <= 0:
        raise ValueError("rate_hz and duration_s must be > 0")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_hz, size=int(rate_hz * duration_s * 1.5) + 16)
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration_s:  # rare: the draw ran short
        more = np.cumsum(rng.exponential(1.0 / rate_hz, size=len(gaps)))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    return offsets[offsets < duration_s]


def classify(exc) -> str:
    """The outcome name for a future that finished with *exc*."""
    if exc is None:
        return "completed"
    for kind, name in _ERROR_OUTCOMES:
        if isinstance(exc, kind):
            return name
    return "error"


@dataclass
class Phase:
    """Everything one phase observed, one entry per attempted request.

    ``t_due``/``t_sent``/``t_done`` are ``perf_counter`` seconds
    (``t_done`` is NaN while unresolved); ``sample`` is the index of
    the input sample sent; ``rows`` holds each completed request's
    output row (``None`` otherwise).
    """

    name: str
    kind: str
    duration_s: float
    t_start: float = 0.0
    t_end: float = 0.0
    sample: list = field(default_factory=list)
    t_due: list = field(default_factory=list)
    t_sent: list = field(default_factory=list)
    t_done: list = field(default_factory=list)
    outcome: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    #: optional :class:`perfbench.layers.ServeProbe`; when set, each
    #: completed request records the batch that served it in ``batch``
    probe: object = None
    batch: dict = field(default_factory=dict)
    _resolved: int = 0
    _cond: threading.Condition = field(default_factory=threading.Condition)

    @property
    def attempted(self) -> int:
        return len(self.sample)

    def count(self, outcome) -> int:
        return sum(1 for o in self.outcome if o == outcome)

    def counts(self) -> dict:
        return {name: self.count(name) for name in OUTCOMES}

    def completed_index(self) -> np.ndarray:
        return np.asarray(
            [i for i, o in enumerate(self.outcome) if o == "completed"], dtype=int
        )

    def latencies_ms(self) -> np.ndarray:
        """Completed requests' latency, from due time to resolution."""
        idx = self.completed_index()
        return (np.asarray(self.t_done)[idx] - np.asarray(self.t_due)[idx]) * 1e3

    def late_ms(self) -> np.ndarray:
        """How late the driver sent each request (0 for closed loops)."""
        return (np.asarray(self.t_sent) - np.asarray(self.t_due)) * 1e3

    def completed_per_s(self, window_s=None) -> float:
        """Requests completed before the phase ended, per second; with
        *window_s*, the median rate over windows of that length (a
        stall then costs its own window, not the whole phase)."""
        done = np.asarray(self.t_done)[self.completed_index()]
        if window_s is None or window_s > self.duration_s:
            return float(np.sum(done <= self.t_end)) / self.duration_s
        edges = np.arange(self.t_start, self.t_end + 1e-9, window_s)
        counts, _ = np.histogram(done, bins=edges)
        return float(np.median(counts)) / window_s

    def goodput_per_s(self, deadline_ms) -> float:
        """Completions within *deadline_ms* of their due time, per second."""
        return float(np.sum(self.latencies_ms() <= deadline_ms)) / self.duration_s

    def _record(self, i, fut, on_done):
        t = time.perf_counter()
        exc = fut.exception()
        if exc is None:
            self.rows[i] = fut.result()
            if self.probe is not None:
                self.batch[i] = self.probe.last_run()
        self.t_done[i] = t
        self.outcome[i] = classify(exc)
        with self._cond:
            self._resolved += 1
            self._cond.notify_all()
        if on_done is not None:
            on_done()

    def send(self, server, sample, x, t_due=None, deadline_ms=None,
             on_done=None):
        """Submit *x* (input number *sample*) and record its fate."""
        i = len(self.sample)
        t_sent = time.perf_counter()
        self.sample.append(sample)
        self.t_due.append(t_sent if t_due is None else t_due)
        self.t_sent.append(t_sent)
        self.t_done.append(float("nan"))
        self.outcome.append("hung")
        self.rows.append(None)
        fut = server.submit(x, deadline_ms=deadline_ms)
        fut.add_done_callback(lambda f: self._record(i, f, on_done))

    def settle(self, hang_s) -> None:
        """Wait up to *hang_s* for every request to resolve; whatever
        is still unresolved then stays ``hung``."""
        limit = time.perf_counter() + hang_s
        with self._cond:
            while self._resolved < len(self.sample):
                remaining = limit - time.perf_counter()
                if remaining <= 0:
                    return
                self._cond.wait(remaining)


def run_open(server, name, samples, rate_hz, duration_s, seed, *,
             deadline_ms=None, hang_s=10.0, probe=None):
    """One open-loop phase at *rate_hz* for *duration_s* seconds.

    *samples* is a sequence of inputs; each request sends the one a
    seeded draw picks.  Returns the :class:`Phase`.
    """
    offsets = poisson_offsets(rate_hz, duration_s, seed)
    picks = np.random.default_rng([seed, 1]).integers(0, len(samples), len(offsets))
    phase = Phase(name, "open", duration_s, probe=probe)
    t0 = time.perf_counter() + 0.002
    phase.t_start = t0
    for off, pick in zip(offsets, picks):
        due = t0 + off
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        phase.send(server, int(pick), samples[pick], due, deadline_ms)
    phase.t_end = t0 + duration_s
    wait = phase.t_end - time.perf_counter()
    if wait > 0:
        time.sleep(wait)
    phase.settle(hang_s)
    return phase


def run_closed(server, name, samples, window, duration_s, seed, *,
               deadline_ms=None, hang_s=10.0, probe=None):
    """One closed-loop phase keeping *window* requests outstanding."""
    rng = np.random.default_rng([seed, 1])
    phase = Phase(name, "closed", duration_s, probe=probe)
    permits = threading.Semaphore(window)
    phase.t_start = time.perf_counter()
    phase.t_end = phase.t_start + duration_s
    while time.perf_counter() < phase.t_end:
        if not permits.acquire(timeout=hang_s):
            break  # the whole window is stuck: those requests stay hung
        pick = int(rng.integers(0, len(samples)))
        phase.send(server, pick, samples[pick], None, deadline_ms,
                   permits.release)
    phase.settle(hang_s)
    return phase
