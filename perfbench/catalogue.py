"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` at the repository root lists the same names and
units; ``test_perfbench.py`` keeps the two in step.  Every workload
reports every metric.  An end-to-end metric is measured by each
workload in its own way (see ``workloads.py``); a per-layer metric
reads 0 on a workload that does not exercise that layer, the way a
cache-hit count reads 0 on traffic that bypasses the cache.
"""

from __future__ import annotations

from .layers import FPGA_LAYERS, LEDGER_KERNELS, STAGES

BACKENDS = ("fused", "compiled", "quantized")
TIERS = ("full", "reduced", "int8", "int4")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("cpu_ms_per_op", "ms"),
)


def _per_layer():
    rows = [(f"runtime.img_per_s.{b}", "1/s") for b in BACKENDS]
    rows += [(f"runtime.stage_ms.fused.{s}", "ms") for s, _ in STAGES]
    for b in BACKENDS:
        for k in LEDGER_KERNELS:
            rows += [
                (f"kernels.{b}.{k}.ms", "ms"),
                (f"kernels.{b}.{k}.calls", "count"),
                (f"kernels.{b}.{k}.mbytes", "MB"),
            ]
    rows += [("kernels.gemm_peak_gmac_s.f64", "GMAC/s"),
             ("kernels.gemm_peak_gmac_s.f32", "GMAC/s"),
             ("model.macs_per_img", "count")]
    rows += [(f"runtime.gmac_s.{b}", "GMAC/s") for b in BACKENDS]
    rows += [(f"runtime.peak_frac.{b}", "share") for b in BACKENDS]
    rows += [(f"fpga.cycles.{layer}", "count") for layer in FPGA_LAYERS]
    rows += [("fpga.latency_ms", "ms")]
    rows += [
        ("serve.latency_p50_ms.low", "ms"), ("serve.latency_p99_ms.low", "ms"),
        ("serve.latency_p50_ms.high", "ms"), ("serve.latency_p99_ms.high", "ms"),
        ("serve.capacity_rps", "1/s"), ("serve.goodput_rps.over", "1/s"),
        ("failed_share", "share"),
        ("serve.submit_us.p50", "us"),
    ]
    for stat in ("p50", "p99"):
        rows += [(f"serve.queue_wait_ms.{stat}.{p}", "ms") for p in ("low", "high")]
    rows += [(f"serve.batch_size.mean.{p}", "count") for p in ("low", "high", "over")]
    rows += [(f"serve.dispatch_ms.p50.{p}", "ms") for p in ("low", "high")]
    rows += [(f"serve.tier_share.{t}", "share") for t in TIERS]
    rows += [("serve.shed_share.over", "share"),
             ("pool.ipc_ms.p50", "ms"),
             ("adapt.publish_ms.p50", "ms"), ("adapt.publish_ms.max", "ms"),
             ("adapt.torn_rows", "count")]
    rows += [(f"driver.late_ms.p99.{p}", "ms") for p in ("low", "high", "over")]
    rows += [("trace.overhead_frac", "share")]
    return tuple(rows)


PER_LAYER = _per_layer()

UNITS = dict(END_TO_END + PER_LAYER)
