"""The three workloads.

``paper_batch``
    One caller, closed loop: ``ode_botnet`` at the ``paper`` profile
    (96x96, 10 Euler steps) on seeded batches of 8 through
    ``InferenceSession`` on the ``fused``, ``compiled`` and
    ``quantized`` (16(8)-12(4)) backends in turn.  Compute-bound: the
    kernels, the compiled plan and the fixed-point plan do all the work
    and the serving layer none.
``tiny_serve``
    ``Server.build`` at ``tiny`` with 2 thread replicas, ``compiled``
    kernels and the certified degrade ladder, driven open loop at fixed
    ``low`` and ``high`` Poisson rates, then closed loop (capacity),
    then open loop at an ``over`` rate above capacity -- the only phase
    that reaches the admission bands and the quantized tiers.  Compute
    is a small part of a request, so serving overhead dominates.
``process_swap``
    The same server in ``process`` mode over a shared weight store, at
    fixed ``low`` and ``high`` rates, while a second thread publishes a
    new seeded weight generation through ``WeightPublisher`` on a fixed
    period: every batch crosses the fork+pipe round trip and weight
    writes land beside reads.

End-to-end metrics, per workload:

* ``setup_s`` -- CPU seconds of one complete set-up (build,
  certification, fork and warm-up, up to the first timed operation,
  replica children included), the median of four;
* ``peak_rss_mb`` -- peak RSS of the process plus its largest child;
* ``ok_share`` -- share of attempted operations that did not fail: every
  operation completed with a correct output, except requests the
  ``over`` phase sheds or expires, which is the designed response to
  overload;
* ``cpu_ms_per_op`` -- CPU time per operation.  ``paper_batch``: per
  image, the median batch on each backend, averaged over the three;
  ``tiny_serve``: CPU of the process over the ``low`` and ``high``
  phases per request they completed; ``process_swap``: CPU of the
  process and its replica children from the start of the final set-up
  to shutdown, per request completed (the children's CPU is only known
  once they are reaped).  The request counts are fixed by the seed, so
  a slow host does not change what the CPU is divided by.

Wall-clock throughput and latency are per-layer rows (``runtime.img_per_s``,
``serve.capacity_rps``, ``serve.latency_*``).  On a shared 2-vCPU VM the
host can steal CPU for minutes at a time, and wall-clock serving figures
then move by 2-3x from run to run; CPU time is not charged for stolen
time, so the bounded figures are CPU times.

Offered rates are fixed numbers, never recalibrated per run, so two
commits under comparison receive identical inputs for a given seed.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.adapt import WeightPublisher
from repro.fixedpoint import QuantizedODENetExecutor, parse_format_pair
from repro.models import build_model
from repro.profiling.flops import model_macs
from repro.runtime import InferenceSession, PackedODENet, SessionConfig
from repro.serve import Server
from repro.serve.tiers import resolve_ladder

from . import checks, layers
from .catalogue import BACKENDS, PER_LAYER, TIERS
from .driver import run_closed, run_open

MODEL = "ode_botnet"
BATCH = 8
PAPER_QFORMAT = "16(8)-12(4)"
SETUPS = 5

SERVE_SAMPLES = 64
SERVE_WINDOW = 8
WARM_REQUESTS = 256
#: fixed offered rates (requests/s).  ``high`` stays well under capacity
#: (about 2000/s for tiny_serve, 1700/s for process_swap on 2 vCPUs) so
#: that a host stealing half the CPU still does not overload it
TINY_RATES = {"low": 200.0, "high": 500.0, "over": 4000.0}
OVER_DEADLINE_MS = 100.0
SWAP_RATES = {"low": 100.0, "high": 300.0}
PUBLISH_PERIOD_S = 0.25

#: ``FullModelDesign`` and MAC counts are functions of the model's
#: shapes alone; any change means the model changed
GOLDEN = {
    "paper": {
        "cycles": {"stem": 813052, "block1": 2051840, "down_block1": 398332,
                   "block2": 1910720, "down_block2": 398332,
                   "block3": 28733650, "fc": 296},
        "macs": 167342656,
    },
    "tiny": {
        "cycles": {"stem": 11490, "block1": 1870, "down_block1": 892,
                   "block2": 1428, "down_block2": 892, "block3": 25200,
                   "fc": 215},
        "macs": 421120,
    },
}


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> value
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)   # name -> (ok, detail)
    info: dict = field(default_factory=dict)

    def check(self, name, ok, detail="") -> None:
        self.checks[name] = (bool(ok), str(detail))

    @property
    def correct(self) -> bool:
        return all(ok for ok, _ in self.checks.values())


def _pct(values, q) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def _median_setup(setup, close):
    """Set up :data:`SETUPS` times and keep the last state.

    Returns ``(state, setup_s, cpu0)``: ``setup_s`` is the median CPU
    cost of the set-ups closed on the way (closing reaps a process
    pool's children, so their share counts too) and ``cpu0`` the CPU
    count just before the last set-up.
    """
    costs = []
    for i in range(SETUPS):
        cpu0 = layers.cpu_s()
        state = setup()
        if i == SETUPS - 1:
            return state, statistics.median(costs), cpu0
        close(state)
        costs.append(layers.cpu_s() - cpu0)


def _static_rows(result, profile, model):
    """Calibration and simulator rows shared by every workload."""
    m = result.metrics
    m["kernels.gemm_peak_gmac_s.f64"] = layers.gemm_peak_gmac_s(np.float64)
    m["kernels.gemm_peak_gmac_s.f32"] = layers.gemm_peak_gmac_s(np.float32)
    macs = model_macs(model)
    m["model.macs_per_img"] = macs
    table = layers.fpga_table(model)
    for name in layers.FPGA_LAYERS:
        m[f"fpga.cycles.{name}"] = table["cycles"][name]
    m["fpga.latency_ms"] = table["latency_ms"]
    golden = GOLDEN[profile]
    result.check("fpga cycles repeat exactly", table["cycles"] == golden["cycles"],
                 f"{table['cycles']} vs {golden['cycles']}")
    result.check("model MACs repeat exactly", macs == golden["macs"],
                 f"{macs} vs {golden['macs']}")


def _zero_layers(result):
    for name, _unit in PER_LAYER:
        result.metrics.setdefault(name, 0.0)


# ----------------------------------------------------------------------
# paper_batch
# ----------------------------------------------------------------------
def _paper_sessions(profile):
    model = build_model(MODEL, profile=profile, inference=True)
    executor = QuantizedODENetExecutor(model, *parse_format_pair(PAPER_QFORMAT))
    sessions = {
        "fused": InferenceSession(model, config=SessionConfig(backend="fused")),
        "compiled": InferenceSession(model, config=SessionConfig(backend="compiled")),
        "quantized": InferenceSession(
            executor, config=SessionConfig(backend="quantized")),
    }
    return model, executor, sessions


def paper_batch(seed, seconds, trace, spans, *, profile="paper"):
    """See the module docstring."""
    size = build_model(MODEL, profile=profile).input_size
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((BATCH, 3, size, size)) for _ in range(2)]

    def setup():
        model, executor, sessions = _paper_sessions(profile)
        for session in sessions.values():
            session.predict_batch(inputs[0])  # warm-up: plans, workspaces
        return model, executor, sessions

    (model, executor, sessions), setup_s, _ = _median_setup(setup, lambda s: None)
    result = Result()
    outputs = []  # (backend, input index, output)

    def loop(duration, *, collect=None, with_stages=False):
        times = {b: [] for b in BACKENDS}
        cpu = {b: [] for b in BACKENDS}
        stage_ms = []
        ops = list(BACKENDS) + (["stages"] if with_stages else [])
        t_end = time.perf_counter() + duration
        k = 0
        while time.perf_counter() < t_end or k < len(ops):
            op = ops[k % len(ops)]
            idx = (k // len(ops)) % len(inputs)
            x = inputs[idx]
            if op == "stages":
                out, stages = layers.run_stages(PackedODENet(model), x, spans)
                stage_ms.append(stages)
                outputs.append(("fused", idx, out))
            else:
                session = sessions[op]
                c0 = time.process_time()
                t0 = time.perf_counter()
                if collect is None:
                    out = session.predict_batch(x)
                else:
                    with kernels.collect(collect[op]):
                        out = session.predict_batch(x)
                t1 = time.perf_counter()
                times[op].append(t1 - t0)
                cpu[op].append(time.process_time() - c0)
                outputs.append((op, idx, out))
                if spans is not None and collect is not None:
                    spans.add(f"session.predict_batch.{op}", t0, t1)
            k += 1
        return times, cpu, stage_ms

    times, cpu, _ = loop(seconds / 2 if trace else seconds)
    medians = {b: statistics.median(times[b]) for b in BACKENDS}
    m = result.metrics
    m["setup_s"] = setup_s
    m["cpu_ms_per_op"] = statistics.mean(
        statistics.median(cpu[b]) * 1e3 / BATCH for b in BACKENDS)
    result.info["batches"] = {b: len(times[b]) for b in BACKENDS}
    for b in BACKENDS:
        m[f"runtime.img_per_s.{b}"] = BATCH / medians[b]

    if trace:
        counters = {b: kernels.KernelCounters() for b in BACKENDS}
        ttimes, _, stage_ms = loop(seconds / 2, collect=counters, with_stages=True)
        for b in BACKENDS:
            for k, (ms, calls, mb) in layers.kernel_rows(
                    counters[b], len(ttimes[b])).items():
                m[f"kernels.{b}.{k}.ms"] = ms
                m[f"kernels.{b}.{k}.calls"] = calls
                m[f"kernels.{b}.{k}.mbytes"] = mb
        for stage, _ in layers.STAGES:
            m[f"runtime.stage_ms.fused.{stage}"] = statistics.median(
                s[stage] for s in stage_ms)
        m["trace.overhead_frac"] = statistics.mean(
            statistics.median(ttimes[b]) / medians[b] - 1 for b in BACKENDS)
        stage_total = sum(m[f"runtime.stage_ms.fused.{s}"] for s, _ in layers.STAGES)
        result.info["stage_sum_over_fused_batch"] = stage_total / (medians["fused"] * 1e3)
        result.info["blocks12_share_fused"] = (
            m["runtime.stage_ms.fused.block1"] + m["runtime.stage_ms.fused.block2"]
        ) / stage_total
        _static_rows(result, profile, model)
        macs = m["model.macs_per_img"]
        for b in BACKENDS:
            m[f"runtime.gmac_s.{b}"] = macs * BATCH / medians[b] / 1e9
            m[f"runtime.peak_frac.{b}"] = (
                m[f"runtime.gmac_s.{b}"] / m["kernels.gemm_peak_gmac_s.f64"])

    # output checks, after timing
    reference = InferenceSession(model, config=SessionConfig(backend="reference"))
    want = [reference.predict_batch(x) for x in inputs]
    first_q = {}
    bad = 0
    for backend, idx, out in outputs:
        if backend == "quantized":
            bad += not np.array_equal(out, first_q.setdefault(idx, out))
        else:
            bad += not checks.close(out, want[idx])
    result.check("fused/compiled within 1e-6 of reference, quantized repeats",
                 bad == 0, f"{bad} of {len(outputs)} outputs rejected")
    short = inputs[0][:2]
    with kernels.use_backend("reference"):
        scalar = executor.run(short)
    plan_ok = (np.array_equal(sessions["quantized"].predict_batch(short), scalar)
               and np.array_equal(first_q[0][:2], scalar))
    result.check("QuantizedPlan bit-identical to the scalar executor", plan_ok)
    bad += not plan_ok
    result.attempted = len(outputs) + 1
    result.failed = bad
    m["failed_share"] = bad / result.attempted
    m["ok_share"] = 1 - m["failed_share"]
    m["peak_rss_mb"] = layers.peak_rss_mb()
    _zero_layers(result)
    return result


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
TINY_PLAN = {
    "low": ("open", TINY_RATES["low"], None),
    "high": ("open", TINY_RATES["high"], None),
    "closed": ("closed", SERVE_WINDOW, None),
    "over": ("open", TINY_RATES["over"], OVER_DEADLINE_MS),
}
SWAP_PLAN = {
    "low": ("open", SWAP_RATES["low"], None),
    "high": ("open", SWAP_RATES["high"], None),
}


def _serve_samples(seed, size):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((SERVE_SAMPLES, 3, size, size))


def _warm(server, samples):
    """Compile every tier's plan, then send :data:`WARM_REQUESTS`
    through the server so the primaries (in-process or forked) are warm
    too.  Returns *server*."""
    for replica in server.pool:
        for session in replica.tier_sessions.values():
            session.predict_batch(samples[:BATCH])
    for start in range(0, WARM_REQUESTS, SERVE_WINDOW):
        futures = [server.submit(samples[i % len(samples)])
                   for i in range(start, start + SERVE_WINDOW)]
        for fut in futures:
            fut.result(timeout=60)
    return server


def _drive(server, plan, samples, seed, duration, probe=None):
    """Run *plan*'s phases back to back, *duration* seconds in all.

    *plan* maps a phase name to ``("open", rate_hz, deadline_ms)`` or
    ``("closed", window, None)``.  Returns the phases, the share of
    dispatched requests each tier served (from ``Server.metrics()``) and
    :func:`layers.cpu_s` at the start of each phase.
    """
    share = duration / len(plan)
    before = server.metrics()["scheduler"]["dispatched_by_tier"]
    phases, cpu_at = {}, {}
    for k, (name, (kind, load, deadline_ms)) in enumerate(plan.items()):
        run = run_open if kind == "open" else run_closed
        cpu_at[name] = layers.cpu_s()
        phases[name] = run(server, name, samples, load, share, seed * 10 + k + 1,
                           deadline_ms=deadline_ms, probe=probe)
    after = server.metrics()["scheduler"]["dispatched_by_tier"]
    served = {t: after.get(t, 0) - before.get(t, 0) for t in TIERS}
    total = max(1, sum(served.values()))
    return phases, {t: n / total for t, n in served.items()}, cpu_at


def _serve_untraced(result, phases, tiers):
    """Wall-clock rows of an untraced pass: latency per rate (with its
    sample count), capacity, driver lateness, overload and tiers."""
    m = result.metrics
    if "closed" in phases:
        m["serve.capacity_rps"] = phases["closed"].completed_per_s(window_s=0.5)
    for name in ("low", "high"):
        lat = phases[name].latencies_ms()
        m[f"serve.latency_p50_ms.{name}"] = _pct(lat, 50)
        m[f"serve.latency_p99_ms.{name}"] = _pct(lat, 99)
        result.info[f"latency_samples.{name}"] = int(lat.size)
    for name, phase in phases.items():
        if phase.kind == "open":
            m[f"driver.late_ms.p99.{name}"] = _pct(phase.late_ms(), 99)
    if "over" in phases:
        over = phases["over"]
        m["serve.goodput_rps.over"] = over.goodput_per_s(OVER_DEADLINE_MS)
        m["serve.shed_share.over"] = over.count("shed") / max(1, over.attempted)
    for t in TIERS:
        m[f"serve.tier_share.{t}"] = tiers[t]


def _queue_wait_ms(phase):
    """Each completed request's latency minus its batch's ``run`` time."""
    return np.asarray([
        (phase.t_done[i] - phase.t_due[i] - (b[1] - b[0])) * 1e3
        for i in phase.completed_index()
        if (b := phase.batch.get(i)) is not None
    ])


def _serve_traced(result, phases, probe):
    """Per-layer rows of a traced pass (wrappers from *probe*)."""
    m = result.metrics
    m["serve.submit_us.p50"] = _pct(probe.spans.durations_ms("serve.submit"), 50) * 1e3
    for name, phase in phases.items():
        if name == "closed":
            continue
        batches = sorted(set(phase.batch.values()))  # distinct (t0, t1, rows)
        m[f"serve.batch_size.mean.{name}"] = (
            float(np.mean([b[2] for b in batches])) if batches else 0.0)
        if name in ("low", "high"):
            wait = _queue_wait_ms(phase)
            m[f"serve.queue_wait_ms.p50.{name}"] = _pct(wait, 50)
            m[f"serve.queue_wait_ms.p99.{name}"] = _pct(wait, 99)
            m[f"serve.dispatch_ms.p50.{name}"] = _pct(
                [(b[1] - b[0]) * 1e3 for b in batches], 50)
    result.info["queue_wait_share_of_p50_low"] = (
        m["serve.queue_wait_ms.p50.low"] / _pct(phases["low"].latencies_ms(), 50))
    m["trace.overhead_frac"] = (
        _pct(phases["low"].latencies_ms(), 50) / m["serve.latency_p50_ms.low"] - 1)
    for backend, counters in probe.counters.items():
        for k, (ms, calls, mb) in layers.kernel_rows(
                counters, probe.batches[backend]).items():
            m[f"kernels.{backend}.{k}.ms"] = ms
            m[f"kernels.{backend}.{k}.calls"] = calls
            m[f"kernels.{backend}.{k}.mbytes"] = mb


def _tally(result, phases, bad, *, designed=()):
    """Fold phase outcomes into attempted/failed and the shares.

    Requests a phase in *designed* sheds or expires are the designed
    response to overload: they count in ``failed_share`` (every request
    that did not complete correctly) but not as failed operations.
    Anything else that did not complete, and every rejected output row,
    is a failure.
    """
    attempted = sum(p.attempted for p in phases)
    completed = sum(p.count("completed") for p in phases)
    unexpected = sum(
        n for p in phases for outcome, n in p.counts().items()
        if outcome != "completed"
        and not (p.name in designed and outcome in ("shed", "deadline"))
    )
    hung = sum(p.count("hung") for p in phases)
    result.check("no hung requests", hung == 0, f"{hung} hung")
    result.attempted += attempted
    result.failed += unexpected + bad
    result.metrics["ok_share"] = 1 - (unexpected + bad) / attempted
    result.metrics["failed_share"] = 1 - (completed - bad) / attempted
    result.info["outcomes"] = {}
    for p in phases:
        counts = {k: v for k, v in p.counts().items() if v}
        result.info["outcomes"].setdefault(p.name, []).append(
            {"attempted": p.attempted, **counts})


def _tier_expectations(samples, state, profile):
    """Every sample's output on the primary and on each ladder tier."""
    config = SessionConfig(backend="compiled")
    primary = InferenceSession(
        build_model(MODEL, profile=profile, pretrained_state=state, inference=True),
        config=config)
    outs = [primary.predict_batch(samples)]
    for spec in resolve_ladder(None):
        session = spec.build_session(MODEL, profile, state=state, config=config)
        outs.append(session.predict_batch(samples))
    return np.stack(outs)


def tiny_serve(seed, seconds, trace, spans, *, profile="tiny"):
    """See the module docstring."""
    size = build_model(MODEL, profile=profile).input_size
    samples = _serve_samples(seed, size)

    def setup():
        server = Server.build(MODEL, profile, 2,
                              config=SessionConfig(backend="compiled"),
                              shed_policy="degrade")
        return _warm(server, samples)

    server, setup_s, _ = _median_setup(setup, lambda s: s.close())
    result = Result()
    result.metrics["setup_s"] = setup_s
    all_phases = []
    try:
        phases, tiers, cpu_at = _drive(server, TINY_PLAN, samples, seed,
                                       seconds / 2 if trace else seconds)
        all_phases += phases.values()
        _serve_untraced(result, phases, tiers)
        done = phases["low"].count("completed") + phases["high"].count("completed")
        result.metrics["cpu_ms_per_op"] = (
            (cpu_at["closed"] - cpu_at["low"]) * 1e3 / done)
        if trace:
            probe = layers.ServeProbe(
                server, spans, collect_kernels=True,
                tier_backends={None: "compiled", "reduced": "compiled",
                               "int8": "quantized", "int4": "quantized"})
            try:
                phases, _, _ = _drive(server, TINY_PLAN, samples, seed,
                                      seconds / 2, probe)
            finally:
                probe.close()
            all_phases += phases.values()
            _serve_traced(result, phases, probe)
            _static_rows(result, profile, build_model(MODEL, profile=profile))
    finally:
        state = server.pool.reference_state
        server.close()

    expected = _tier_expectations(samples, state, profile)
    bad = sum(checks.bad_rows(p, expected) for p in all_phases)
    result.check("every row matches the primary or a ladder tier", bad == 0,
                 f"{bad} rows rejected")
    _tally(result, all_phases, bad, designed=("over",))
    result.metrics["peak_rss_mb"] = layers.peak_rss_mb()
    _zero_layers(result)
    return result


def _generation(base, seed, g):
    """Weight generation *g*: every float parameter of *base* scaled by
    a seeded ``1 + 0.02 * N(0, 1)`` factor (buffers unchanged)."""
    if g == 0:
        return base
    rng = np.random.default_rng([seed, g])
    state = {}
    for name, value in base.items():
        value = np.asarray(value)
        if value.dtype.kind == "f" and not str(name).startswith("buffer:"):
            value = value * (1.0 + 0.02 * rng.standard_normal(value.shape))
        state[name] = value
    return state


class _Publisher(threading.Thread):
    """Publishes generation 1, 2, ... every ``PUBLISH_PERIOD_S``,
    recording each publish call's window and the replicas' versions."""

    def __init__(self, pool, generations):
        super().__init__(name="perfbench-publisher", daemon=True)
        self.publisher = WeightPublisher(pool)
        self.pool = pool
        self.generations = generations
        self.windows = []
        self.versions = []  # per publish: every replica's weights_version
        self.error = None
        self._stop_event = threading.Event()

    def run(self):
        try:
            for state in self.generations[1:]:
                if self._stop_event.wait(PUBLISH_PERIOD_S):
                    return
                t0 = time.perf_counter()
                self.publisher.publish(state)
                self.windows.append((t0, time.perf_counter()))
                self.versions.append([r.weights_version for r in self.pool])
            raise RuntimeError("ran out of weight generations")
        except Exception as exc:  # reported as a failed check
            self.error = exc

    def stop(self):
        self._stop_event.set()
        self.join(timeout=30)


def _ipc_ms(runs, samples, state, profile):
    """Median ``ProcessReplica.run`` time minus an in-process
    ``predict_batch`` of the same batch size: the fork+pipe round trip."""
    session = InferenceSession(
        build_model(MODEL, profile=profile, pretrained_state=state, inference=True),
        config=SessionConfig(backend="compiled"))
    inproc = {}
    for n in sorted({attrs["rows"] for _, _, _, attrs in runs}):
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            session.predict_batch(samples[:n])
            reps.append(time.perf_counter() - t0)
        inproc[n] = statistics.median(reps)
    return _pct([((t1 - t0) - inproc[a["rows"]]) * 1e3 for _, t0, t1, a in runs], 50)


def process_swap(seed, seconds, trace, spans, *, profile="tiny"):
    """See the module docstring."""
    size = build_model(MODEL, profile=profile).input_size
    samples = _serve_samples(seed, size)
    base = build_model(MODEL, profile=profile, inference=True).state_dict()
    generations = [_generation(base, seed, g)
                   for g in range(int(seconds / PUBLISH_PERIOD_S) + 8)]

    def setup():
        server = Server.build(MODEL, profile, 2,
                              config=SessionConfig(backend="compiled"),
                              mode="process", shared_weights=True)
        return _warm(server, samples)

    server, setup_s, cpu0 = _median_setup(setup, lambda s: s.close())
    result = Result()
    m = result.metrics
    m["setup_s"] = setup_s
    thread = _Publisher(server.pool, generations)
    all_phases = []
    thread.start()
    try:
        phases, tiers, _ = _drive(server, SWAP_PLAN, samples, seed,
                                  seconds / 2 if trace else seconds)
        all_phases += phases.values()
        _serve_untraced(result, phases, tiers)
        if trace:
            probe = layers.ServeProbe(server, spans)
            try:
                phases, _, _ = _drive(server, SWAP_PLAN, samples, seed,
                                      seconds / 2, probe)
            finally:
                probe.close()
            all_phases += phases.values()
            _serve_traced(result, phases, probe)
    finally:
        thread.stop()
        store_version = server.pool.weight_store.version
        server.close()  # reaps the replica children: their CPU now counts
    done = WARM_REQUESTS + sum(p.count("completed") for p in all_phases)
    m["cpu_ms_per_op"] = (layers.cpu_s() - cpu0) * 1e3 / done

    windows = thread.windows
    n_pub = len(windows)
    pause = [(b - a) * 1e3 for a, b in windows]
    m["adapt.publish_ms.p50"] = _pct(pause, 50)
    m["adapt.publish_ms.max"] = max(pause, default=0.0)
    result.info["publishes"] = n_pub

    local = build_model(MODEL, profile=profile, inference=True)
    by_generation = []
    for state in generations[: n_pub + 1]:
        local.load_state_dict(state)
        session = InferenceSession(local, config=SessionConfig(backend="compiled"))
        by_generation.append(session.predict_batch(samples))
    bad = torn = 0
    for phase in all_phases:
        b, t = checks.generation_rows(phase, by_generation, windows)
        bad += b
        torn += t
    m["adapt.torn_rows"] = torn
    result.check("every row matches a generation in force while it was served",
                 bad == 0, f"{bad} rows rejected, {torn} torn rows inside "
                 "publish windows")
    per_replica = list(zip(*thread.versions))
    versions_ok = (
        thread.error is None
        and all(checks.monotone(v) and v[-1] == n_pub + 1 for v in per_replica)
        and store_version == n_pub + 1
    )
    result.check("weights_version monotone, ends at publishes + 1", versions_ok,
                 f"store {store_version}, publishes {n_pub}, error {thread.error!r}")
    _tally(result, all_phases, bad)

    if trace:
        m["pool.ipc_ms.p50"] = _ipc_ms(probe.spans.select("replica.run"), samples,
                                       base, profile)
        _static_rows(result, profile, local)
    m["peak_rss_mb"] = layers.peak_rss_mb()
    _zero_layers(result)
    return result


WORKLOADS = {
    "paper_batch": paper_batch,
    "tiny_serve": tiny_serve,
    "process_swap": process_swap,
}
