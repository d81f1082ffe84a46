"""repro.fixedpoint.plan: the scale-folded QuantizedPlan.

The plan is the quantized analogue of ``PackedODENet``: a one-time
pack of an ODENet's quantized weight set into a pipeline of closures
over a float-carried integer raw, chosen per site to be exact.  Its
contract, pinned here:

* **construction / supported()** — packs exactly the models the
  executor accepts *and* whose formats fit the float64 carry; every
  unsupported shape is named, not silently mis-packed;
* **bit-identity** — ``plan.run`` equals ``QuantizedODENetExecutor.run``
  bit-for-bit, including formats wide enough to force exact-int64
  sites;
* **saturation** — bit-identity holds with inputs large enough that
  every clip fires, so the folded time planes, the BN-ReLU
  ``clip(0, fmax)`` and the elided Euler clip are checked at the rails;
* **version / refresh** — the weight-derivation counter starts at 1
  and ticks on every :meth:`refresh`, and a refresh really re-reads
  mutated model weights, per-step time planes included;
* **threads** — two threads running one plan get the same outputs;
* **ledger** — under ``kernels.collect`` the plan records one
  ``conv2d`` per conv site executed, and an untraced run never reaches
  ``kernels.record_dispatch``;
* **session integration** — ``SessionConfig(backend="quantized")``
  reroutes an executor-backed session through a plan, and
  ``session.refresh()`` reaches it.
"""

import threading

import numpy as np
import pytest

from repro import kernels
from repro.fixedpoint import (
    QuantizedODENetExecutor,
    QuantizedPlan,
    parse_format_pair,
)
from repro.models import build_model
from repro.runtime import InferenceSession, SessionConfig


def _executor(name="ode_botnet", fmt="16(8)-12(4)", seed=0):
    model = build_model(name, profile="tiny", inference=True)
    ffmt, pfmt = parse_format_pair(fmt)
    return QuantizedODENetExecutor(model, ffmt, pfmt)


def _images(batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)


class TestConstruction:
    def test_from_executor_shares_weight_derivation(self):
        ex = _executor()
        plan = QuantizedPlan.from_executor(ex)
        assert plan.model is ex.model
        assert plan.ffmt is ex.ffmt and plan.pfmt is ex.pfmt

    def test_direct_construction_matches_from_executor(self):
        ex = _executor()
        x = _images()
        direct = QuantizedPlan(ex.model, ex.ffmt, ex.pfmt)
        shared = QuantizedPlan.from_executor(ex)
        np.testing.assert_array_equal(direct.run(x), shared.run(x))

    def test_supported_accepts_executor_and_model(self):
        ex = _executor()
        assert QuantizedPlan.supported(ex)
        assert QuantizedPlan.supported(ex.model, ex.ffmt, ex.pfmt)

    def test_rejects_non_odenet(self):
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        resnet = build_model("resnet50", profile="tiny", inference=True)
        assert not QuantizedPlan.supported(resnet, ffmt, pfmt)
        with pytest.raises(ValueError, match="cannot pack"):
            QuantizedPlan(resnet, ffmt, pfmt)

    def test_rejects_training_mode(self):
        model = build_model("odenet", profile="tiny")
        model.train()
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        assert not QuantizedPlan.supported(model, ffmt, pfmt)
        with pytest.raises(ValueError, match="eval"):
            QuantizedPlan(model, ffmt, pfmt)

    def test_rejects_formats_past_the_float_carry(self):
        """Formats wider than the carry bound are the executor's job."""
        model = build_model("odenet", profile="tiny", inference=True)
        ffmt, pfmt = parse_format_pair("48(24)-48(24)")
        assert not QuantizedPlan.supported(model, ffmt, pfmt)
        with pytest.raises(ValueError, match="float64 carry"):
            QuantizedPlan(model, ffmt, pfmt)

    def test_rejects_non_euler_solver(self):
        from repro.ode import get_solver

        model = build_model("odenet", profile="tiny", inference=True)
        model.block1.solver = get_solver("rk4")
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        assert not QuantizedPlan.supported(model, ffmt, pfmt)


class TestBitIdentity:
    @pytest.mark.parametrize("name", ("odenet", "ode_botnet"))
    def test_plan_matches_executor(self, name):
        ex = _executor(name)
        plan = QuantizedPlan.from_executor(ex)
        x = _images(batch=3)
        np.testing.assert_array_equal(plan.run(x), ex.run(x))

    @pytest.mark.parametrize(
        "fmt", ("16(8)-12(4)", "8(4)-8(4)", "4(2)-4(2)", "32(16)-24(8)")
    )
    def test_plan_matches_executor_per_format(self, fmt):
        """Including 32(16)-24(8), whose conv accumulators exceed the
        float64 mantissa and must run as exact int64 sites."""
        ex = _executor("ode_botnet", fmt)
        plan = QuantizedPlan.from_executor(ex)
        x = _images(batch=2, seed=5)
        np.testing.assert_array_equal(plan.run(x), ex.run(x))

    @pytest.mark.parametrize("name", ("odenet", "ode_botnet"))
    @pytest.mark.parametrize(
        "fmt", ("4(2)-4(2)", "8(4)-8(4)", "16(8)-12(4)", "32(16)-24(8)")
    )
    def test_plan_matches_executor_when_every_saturation_fires(self, name, fmt):
        ex = _executor(name, fmt)
        plan = QuantizedPlan.from_executor(ex)
        x = _images(batch=2, seed=7) * 1e3
        np.testing.assert_array_equal(plan.run(x), ex.run(x))

    @pytest.mark.parametrize("fmt", ("4(2)-4(2)", "16(8)-12(4)"))
    def test_dense_time_convs_fold_bit_identically(self, fmt):
        """conv="full": 3x3 dense time convs, the non-1x1 folded path."""
        model = build_model("odenet", profile="tiny", inference=True,
                            conv="full")
        ex = QuantizedODENetExecutor(model, *parse_format_pair(fmt))
        plan = QuantizedPlan.from_executor(ex)
        for scale in (1.0, 1e3):
            x = _images(batch=2, seed=4) * scale
            np.testing.assert_array_equal(plan.run(x), ex.run(x))

    def test_callable_alias(self):
        ex = _executor("odenet")
        plan = QuantizedPlan.from_executor(ex)
        x = _images()
        np.testing.assert_array_equal(plan(x), plan.run(x))


class TestVersionAndRefresh:
    def test_version_starts_at_one_and_ticks(self):
        plan = QuantizedPlan.from_executor(_executor("odenet"))
        assert plan.version == 1
        plan.refresh()
        plan.refresh()
        assert plan.version == 3

    def test_refresh_requantizes_mutated_weights(self):
        ex = _executor("odenet")
        plan = QuantizedPlan.from_executor(ex)
        x = _images()
        before = plan.run(x)
        ex.model.fc.weight.data[:] = -ex.model.fc.weight.data
        plan.refresh()
        after = plan.run(x)
        assert not np.array_equal(before, after)
        # the refreshed plan agrees with a freshly packed executor
        fresh = QuantizedODENetExecutor(ex.model, ex.ffmt, ex.pfmt)
        np.testing.assert_array_equal(after, fresh.run(x))

    def test_in_place_time_weight_write_then_refresh(self):
        """Writing only the time-channel weights changes nothing but the
        per-step planes; refresh() must rebuild them."""
        ex = _executor("ode_botnet")
        plan = QuantizedPlan.from_executor(ex)
        x = _images(seed=3)
        before = plan.run(x)  # builds the planes for this shape
        dsc = ex.model.block1.func.conv1.conv
        dsc.depthwise.weight.data[-1] += 0.75
        dsc.pointwise.weight.data[:, -1] *= -3.0
        ex.model.block3.func.up.conv.weight.data[:, -1] += 0.5
        plan.refresh()
        after = plan.run(x)
        assert not np.array_equal(before, after)
        fresh = QuantizedODENetExecutor(ex.model, ex.ffmt, ex.pfmt)
        np.testing.assert_array_equal(after, fresh.run(x))

    def test_repr_names_formats_and_version(self):
        plan = QuantizedPlan.from_executor(_executor("odenet"))
        text = repr(plan)
        assert "QuantizedPlan" in text and "version=1" in text


class TestSessionIntegration:
    def test_session_reroutes_executor_through_plan(self):
        ex = _executor("ode_botnet")
        session = InferenceSession(
            ex, config=SessionConfig(backend="quantized")
        )
        assert isinstance(session._plan, QuantizedPlan)
        x = _images(batch=2, seed=9)
        np.testing.assert_array_equal(session.predict_batch(x), ex.run(x))

    def test_session_without_quantized_backend_keeps_executor_path(self):
        ex = _executor("odenet")
        session = InferenceSession(ex)
        assert not isinstance(session._plan, QuantizedPlan)
        x = _images()
        np.testing.assert_array_equal(session.predict_batch(x), ex.run(x))

    def test_session_accepts_plan_directly(self):
        ex = _executor("odenet")
        plan = QuantizedPlan.from_executor(ex)
        session = InferenceSession(plan)
        assert session.backend == "quantized"
        x = _images()
        np.testing.assert_array_equal(session.predict_batch(x), ex.run(x))

    def test_session_refresh_reaches_the_plan(self):
        ex = _executor("odenet")
        session = InferenceSession(
            ex, config=SessionConfig(backend="quantized")
        )
        assert session._plan.version == 1
        session.refresh()
        assert session._plan.version == 2


class TestThreads:
    def test_two_threads_running_one_plan_agree(self):
        ex = _executor("ode_botnet")
        xs = [_images(batch=2, seed=s) for s in (1, 2)]
        want = [ex.run(x) for x in xs]
        plan = QuantizedPlan.from_executor(ex)  # planes not built yet
        barrier = threading.Barrier(2)
        results = {}

        def worker(k):
            barrier.wait()
            results[k] = [plan.run(xs[k]) for _ in range(4)]

        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in (0, 1):
            for out in results[k]:
                np.testing.assert_array_equal(out, want[k])


class TestKernelLedger:
    @pytest.mark.parametrize("fmt", ("16(8)-12(4)", "32(16)-24(8)"))
    def test_collect_records_one_conv2d_per_conv_site(self, fmt):
        ex = _executor("ode_botnet", fmt)
        plan = QuantizedPlan.from_executor(ex)
        m = ex.model
        steps = m.block1.steps + m.block2.steps + m.block3.steps
        with kernels.collect() as counters:
            traced = plan.run(_images())
        snap = counters.snapshot()
        # stem + two downsamples, then two time convs per Euler step
        assert snap["conv2d"]["calls"] == 3 + 2 * steps
        # stem, downsamples and head, then two per Euler step
        assert snap["batchnorm2d"]["calls"] == 4 + 2 * steps
        assert snap["add"]["calls"] == steps
        assert snap["maxpool2d"]["calls"] == 1
        np.testing.assert_array_equal(traced, plan.run(_images()))

    def test_untraced_run_never_records(self, monkeypatch):
        plan = QuantizedPlan.from_executor(_executor("ode_botnet"))

        def boom(*args, **kwargs):
            raise AssertionError("record_dispatch reached without collectors")

        monkeypatch.setattr(kernels, "record_dispatch", boom)
        plan.run(_images())
