"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, driver, run
from perfbench.catalogue import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS, Result
from repro.serve import DeadlineExceeded, QueueFull, ReplicaUnavailable, ServerStopped

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# the metric catalogue and BENCHMARK.json agree, with legal names
# ----------------------------------------------------------------------
def test_benchmark_json_matches_catalogue():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT.match(u) for u in units)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_emit_reports_every_metric_with_its_unit(trace):
    result = Result(attempted=3)
    result.metrics = {name: 1.5 for name, _ in END_TO_END + PER_LAYER}
    out = run.emit(result, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    expected = PER_LAYER if trace else END_TO_END
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == list(expected)
    del result.metrics[expected[0][0]]
    with pytest.raises(RuntimeError):
        run.emit(result, trace)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workloads_measure_every_metric(workload, trace):
    from perfbench.layers import Spans

    result = WORKLOADS[workload](5, 1.2, trace, Spans() if trace else None,
                                 profile="tiny")
    assert result.correct, result.checks
    assert result.failed == 0
    out = run.emit(result, trace)
    for name, entry in out["metrics"].items():
        assert np.isfinite(entry["value"]), name
    for name, _ in END_TO_END:
        assert result.metrics[name] > 0, name


# ----------------------------------------------------------------------
# the driver against a fake server
# ----------------------------------------------------------------------
class FakeServer:
    """Resolves each request after ``delay_s`` with the outcome that
    ``fate(k)`` names; a ``"hang"`` request is never resolved."""

    def __init__(self, fate, delay_s=0.001, block_s=None):
        self.fate = fate
        self.delay_s = delay_s
        self.block_s = block_s or {}
        self.k = 0
        self.outstanding = 0
        self.max_outstanding = 0
        self._lock = threading.Lock()

    def submit(self, x, deadline_ms=None):
        k = self.k
        self.k += 1
        time.sleep(self.block_s.get(k, 0.0))
        fut = Future()
        with self._lock:
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding, self.outstanding)
        fate = self.fate(k)
        if fate == "hang":
            return fut

        def finish():
            with self._lock:
                self.outstanding -= 1
            if fate == "ok":
                fut.set_result(np.full(3, float(x)))
            else:
                fut.set_exception(fate)

        threading.Timer(self.delay_s, finish).start()
        return fut


FATES = [
    "ok", QueueFull("reject", 1), DeadlineExceeded(1.0, 1.0),
    ServerStopped("x"), ReplicaUnavailable("x"), ValueError("x"), "hang",
]


def test_open_loop_counts_every_outcome():
    server = FakeServer(lambda k: FATES[k % len(FATES)])
    phase = driver.run_open(server, "p", [0.0, 1.0], 400.0, 0.2, 7, hang_s=0.3)
    counts = phase.counts()
    assert phase.attempted == sum(counts.values())
    n = phase.attempted
    expected = [len(range(i, n, len(FATES))) for i in range(len(FATES))]
    assert [counts[o] for o in driver.OUTCOMES] == expected
    rows = [phase.rows[i] for i in phase.completed_index()]
    assert all(r[0] == phase.sample[i] for r, i in zip(rows, phase.completed_index()))


def test_open_loop_times_from_due_and_records_lateness():
    offsets = driver.poisson_offsets(200.0, 0.3, 3)
    server = FakeServer(lambda k: "ok", block_s={0: 0.05})
    phase = driver.run_open(server, "p", [0.0], 200.0, 0.3, 3)
    late = phase.late_ms()
    assert len(late) == len(offsets)
    # requests due while submit 0 blocked were sent late by about that much
    stalled = [i for i, off in enumerate(offsets) if 0.005 < off - offsets[0] < 0.04]
    assert stalled
    for i in stalled:
        assert late[i] >= (0.05 - (offsets[i] - offsets[0])) * 1e3 - 1.0
    lat = phase.latencies_ms()
    assert np.all(lat >= late[phase.completed_index()] - 1e-9)
    assert np.all(late >= 0)


def test_poisson_schedule_is_seeded():
    a = driver.poisson_offsets(300.0, 2.0, 5)
    assert np.array_equal(a, driver.poisson_offsets(300.0, 2.0, 5))
    assert not np.array_equal(a, driver.poisson_offsets(300.0, 2.0, 6))
    assert np.all(np.diff(a) > 0) and a[-1] < 2.0
    assert abs(len(a) - 600) < 100


def test_closed_loop_keeps_its_window():
    server = FakeServer(lambda k: "ok", delay_s=0.002)
    phase = driver.run_closed(server, "c", [0.0], 4, 0.2, 1)
    assert server.max_outstanding <= 4
    assert phase.count("completed") == phase.attempted > 20
    assert np.all(phase.late_ms() == 0)


def test_closed_loop_stops_on_a_hung_window():
    server = FakeServer(lambda k: "hang")
    phase = driver.run_closed(server, "c", [0.0], 2, 0.1, 1, hang_s=0.2)
    assert phase.attempted == 2
    assert phase.count("hung") == 2


# ----------------------------------------------------------------------
# each output check rejects a deliberately wrong row
# ----------------------------------------------------------------------
def _phase(rows, samples, sent=None, done=None):
    phase = driver.Phase("p", "open", 1.0)
    for i, (row, s) in enumerate(zip(rows, samples)):
        phase.sample.append(s)
        phase.rows.append(row)
        phase.outcome.append("completed")
        phase.t_due.append(0.0 if sent is None else sent[i])
        phase.t_sent.append(0.0 if sent is None else sent[i])
        phase.t_done.append(1.0 if done is None else done[i])
    return phase


def test_close_rejects_a_wrong_output():
    ref = np.linspace(-3, 3, 10)
    assert checks.close(ref + 1e-9, ref)
    wrong = ref.copy()
    wrong[4] += 1e-4
    assert not checks.close(wrong, ref)
    assert not checks.close(ref[:5], ref)


def test_tier_check_rejects_a_wrong_row():
    candidates = np.random.default_rng(0).standard_normal((4, 3, 10))
    good = _phase([candidates[0][0], candidates[3][1], candidates[2][2]], [0, 1, 2])
    assert checks.bad_rows(good, candidates) == 0
    swapped = _phase([candidates[0][1], candidates[3][1]], [0, 1])  # sample 1's row for 0
    assert checks.bad_rows(swapped, candidates) == 1


def test_generation_check_rejects_rows_outside_their_window():
    gens = np.random.default_rng(1).standard_normal((3, 2, 10))
    windows = [(1.0, 1.1), (2.0, 2.1)]
    # served between publishes 1 and 2: only generation 1 is acceptable
    ok = _phase([gens[1][0]], [0], sent=[1.5], done=[1.6])
    assert checks.generation_rows(ok, gens, windows) == (0, 0)
    stale = _phase([gens[0][0]], [0], sent=[1.5], done=[1.6])
    assert checks.generation_rows(stale, gens, windows) == (1, 0)
    future = _phase([gens[2][0]], [0], sent=[1.5], done=[1.6])
    assert checks.generation_rows(future, gens, windows) == (1, 0)
    # a request spanning publish 2 may see generation 1 or 2 ...
    both = _phase([gens[1][1], gens[2][1]], [1, 1], sent=[1.9, 1.9], done=[2.2, 2.2])
    assert checks.generation_rows(both, gens, windows) == (0, 0)
    # ... and a mix of them is torn, not bad; outside a window it is bad
    mixed = 0.5 * (gens[1][1] + gens[2][1])
    assert checks.generation_rows(_phase([mixed], [1], [1.9], [2.05]), gens, windows) == (0, 1)
    assert checks.generation_rows(_phase([mixed], [1], [1.5], [1.6]), gens, windows) == (1, 0)


def test_monotone():
    assert checks.monotone([1, 2, 2, 5])
    assert not checks.monotone([1, 3, 2])
