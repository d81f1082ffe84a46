"""Tests for :mod:`repro.compile` — the fused-plan compiler.

Four contracts:

* **parity** — the ``compiled`` backend agrees with ``reference`` to
  ≤1e-6 on every packable registry model (BN/step-size folding may
  reassociate float ops, never change the math);
* **schedule cache** — hit/miss/invalidation round-trips through the
  on-disk cache keyed by graph hash × machine fingerprint, honouring
  ``$REPRO_COMPILE_CACHE`` and the compiler version;
* **aliasing safety** — the arena op program's build-time bookkeeping
  catches reordered and aliased buffers, including across solver
  iterations, with the Euler state exempt as loop-carried;
* **zero per-step allocation** — once bound, the Euler block bodies run
  with numpy's Python-level array constructors forbidden outright.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.compile import steps
from repro.compile import (
    COMPILE_VERSION,
    CompiledPlan,
    OpList,
    PlanValidationError,
    cache_path,
    compile_packed,
    default_schedule,
    graph_hash,
    load_schedule,
    machine_fingerprint,
    save_schedule,
    schedule_axes,
)
from repro.models import MODELS, build_model
from repro.runtime import InferenceSession, PackedODENet

RNG = np.random.default_rng(0)


def _packable_models():
    names = []
    for name in MODELS:
        model = build_model(name, profile="tiny", inference=True)
        if PackedODENet.supported(model):
            names.append(name)
    return names


PACKABLE = _packable_models()


@pytest.fixture
def schedule_cache(tmp_path, monkeypatch):
    """An isolated on-disk schedule cache."""
    monkeypatch.setenv("REPRO_COMPILE_CACHE", str(tmp_path))
    return tmp_path


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------
class TestCompiledParity:
    def test_registry_covers_the_paper_models(self):
        assert set(PACKABLE) == {"odenet", "ode_botnet"}

    @pytest.mark.parametrize("name", PACKABLE)
    def test_compiled_matches_reference_within_1e6(self, name):
        model = build_model(name, profile="tiny", inference=True)
        session = InferenceSession(model)
        x = RNG.standard_normal((4, 3, 32, 32)).astype(np.float32)
        with kernels.use_backend("reference"):
            ref = session.predict_batch(x)
        with kernels.use_backend("compiled"):
            out = session.predict_batch(x)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("name", PACKABLE)
    def test_every_schedule_point_matches_reference(self, name):
        """Parity is schedule-independent: the autotuner may pick any
        point of the search space, so every choice must agree."""
        model = build_model(name, profile="tiny", inference=True)
        packed = PackedODENet(model)
        x = RNG.standard_normal((2, 3, 32, 32)).astype(np.float32)
        with kernels.use_backend("reference"):
            ref = InferenceSession(model).predict_batch(x)
        base = default_schedule(packed)
        for key, choices in schedule_axes(packed):
            for choice in choices:
                schedule = dict(base)
                schedule[key] = choice
                out = CompiledPlan(packed, schedule)(x)
                np.testing.assert_allclose(
                    out, ref, rtol=0, atol=1e-6,
                    err_msg=f"{key}={choice}",
                )

    def test_mhsa_merge_means_are_np_mean_bit_for_bit(self):
        """The LayerNorm in ``steps.mhsa_merge`` takes its means as a
        reduce-add and a divide; that must be ``np.mean`` byte for byte."""
        # a width of 24, not a power of two: dividing by it is not
        # the same as multiplying by its reciprocal
        n, ntok, heads, dh = 2, 16, 3, 8
        inner, eps = heads * dh, 1e-5
        ph = RNG.standard_normal((n, heads, ntok, dh)) * 3 + 1
        ln_w, ln_b = RNG.standard_normal(inner), RNG.standard_normal(inner)
        b = SimpleNamespace(
            ph=ph, cat=np.empty((n, ntok, inner)), mu=np.empty((n, ntok, 1)),
            sq=np.empty((n, ntok, inner)),
        )
        out = np.empty((n, inner, ntok))
        b.ph_t = ph.transpose(0, 2, 1, 3)
        b.cat4 = b.cat.reshape(n, ntok, heads, dh)
        b.cat_t = b.cat.transpose(0, 2, 1)
        b.mdst = out
        steps.mhsa_merge(SimpleNamespace(ln=(ln_w, ln_b, eps)), b, out)

        cat = np.ascontiguousarray(b.ph_t).reshape(n, ntok, inner)
        cat = cat - np.mean(cat, axis=-1, keepdims=True)
        var = np.mean(cat * cat, axis=-1, keepdims=True)
        cat = cat * np.power(var + eps, -0.5) * ln_w + ln_b
        assert out.tobytes() == np.ascontiguousarray(
            cat.transpose(0, 2, 1)
        ).tobytes()

    def test_compiled_is_deterministic(self):
        model = build_model("odenet", profile="tiny", inference=True)
        plan = compile_packed(PackedODENet(model))
        x = RNG.standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(plan(x), plan(x))


# ----------------------------------------------------------------------
# schedule cache
# ----------------------------------------------------------------------
class TestScheduleCache:
    def _packed(self, name="odenet"):
        return PackedODENet(
            build_model(name, profile="tiny", inference=True)
        )

    def test_cache_dir_honours_env(self, schedule_cache):
        packed = self._packed()
        assert cache_path(packed).startswith(str(schedule_cache))

    def test_miss_then_hit_round_trip(self, schedule_cache):
        packed = self._packed()
        assert load_schedule(packed) is None  # cold cache: miss

        schedule = default_schedule(packed)
        schedule["time_planes"] = "runtime"
        path = save_schedule(packed, schedule, tuned=True, best_ms=1.5)
        assert path == cache_path(packed)

        entry = load_schedule(packed)
        assert entry is not None
        assert entry["schedule"] == schedule
        assert entry["tuned"] is True
        assert entry["graph_hash"] == graph_hash(packed)
        assert entry["machine"] == machine_fingerprint()

    def test_compile_packed_picks_up_cached_schedule(self, schedule_cache):
        packed = self._packed()
        schedule = default_schedule(packed)
        schedule["time_planes"] = "runtime"
        save_schedule(packed, schedule)
        assert compile_packed(packed).schedule == schedule

    def test_graph_change_is_a_miss(self, schedule_cache):
        odenet = self._packed("odenet")
        botnet = self._packed("ode_botnet")
        assert graph_hash(odenet) != graph_hash(botnet)
        save_schedule(odenet, default_schedule(odenet))
        # the other architecture keys a different file: still cold
        assert cache_path(botnet) != cache_path(odenet)
        assert load_schedule(botnet) is None

    def test_compiler_version_bump_invalidates(self, schedule_cache):
        packed = self._packed()
        path = save_schedule(packed, default_schedule(packed))
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        assert entry["compile_version"] == COMPILE_VERSION
        entry["compile_version"] = "0.0-stale"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        assert load_schedule(packed) is None
        # a version-2 schedule still carrying the retired depthwise axis
        # misses rather than binding its ``dw:`` choices
        entry["compile_version"] = 2
        entry["schedule"]["dw:block1.conv1"] = "patches"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        assert load_schedule(packed) is None
        assert compile_packed(packed).schedule == default_schedule(packed)
        assert not any(k.startswith("dw:") for k in default_schedule(packed))
        # a version-3 schedule carrying the retired dense-conv axis
        # misses too: every dense conv now runs the fused im2col GEMM
        del entry["schedule"]["dw:block1.conv1"]
        entry["compile_version"] = 3
        entry["schedule"]["conv:stem"] = "gemm"
        entry["schedule"]["conv:down1"] = "gemm"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        assert load_schedule(packed) is None
        assert compile_packed(packed).schedule == default_schedule(packed)
        for name in PACKABLE:
            axes = schedule_axes(self._packed(name))
            assert not any(key.startswith("conv:") for key, _ in axes)

    def test_corrupt_cache_file_is_a_miss(self, schedule_cache):
        packed = self._packed()
        path = save_schedule(packed, default_schedule(packed))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert load_schedule(packed) is None
        # and compile still works off the heuristic default
        assert compile_packed(packed).schedule == default_schedule(packed)

    def test_graph_hash_is_structural_not_weights(self):
        a = PackedODENet(
            build_model("odenet", profile="tiny", seed=0, inference=True)
        )
        b = PackedODENet(
            build_model("odenet", profile="tiny", seed=1, inference=True)
        )
        assert graph_hash(a) == graph_hash(b)


# ----------------------------------------------------------------------
# arena aliasing safety
# ----------------------------------------------------------------------
class TestAliasValidation:
    def _noop(self):
        return lambda: None

    def test_straight_line_program_validates(self):
        ops = OpList()
        ops.add("a", self._noop(), writes=("x",))
        ops.add("b", self._noop(), reads=("x",), writes=("y",))
        assert ops.validate()

    def test_clobbered_read_is_caught(self):
        """An op reading a buffer rewritten since its producer ran —
        the schedule aliased two logical tensors onto one buffer."""
        ops = OpList()
        ops.add("produce", self._noop(), writes=("x",))
        ops.add("clobber", self._noop(), writes=("x",))
        ops.add("consume", self._noop(), reads=("x",), writes=("y",))
        consume = ops.ops[2]
        # model the hazard: consume was built against write #0
        ops.ops[2] = type(consume)(
            consume.kernel, consume.fn, (("x", 0),), consume.writes,
            consume.tag,
        )
        with pytest.raises(PlanValidationError, match="'x'"):
            ops.validate()

    def test_cross_iteration_reuse_is_caught(self):
        """A buffer read before its (only) writer is clean on pass one
        (it reads external input) but dirty on pass two — exactly the
        consecutive-solver-iteration hazard validate() replays for."""
        ops = OpList()
        ops.add("consume", self._noop(), reads=("scratch",))
        ops.add("produce", self._noop(), writes=("scratch",))
        with pytest.raises(PlanValidationError, match="scratch"):
            ops.validate()

    def test_loop_carried_state_is_exempt(self):
        """The Euler ``z`` legitimately flows between iterations."""
        ops = OpList()
        ops.add("step", self._noop(), reads=("z",), writes=("z",))
        assert ops.validate(loop_carried=("z",))
        with pytest.raises(PlanValidationError):
            ops.validate()

    @pytest.mark.parametrize("name", PACKABLE)
    def test_bound_plans_validate(self, name):
        model = build_model(name, profile="tiny", inference=True)
        plan = compile_packed(PackedODENet(model))
        x = RNG.standard_normal((2, 3, 32, 32)).astype(np.float32)
        plan(x)  # bind
        bound = plan._bound(x.shape, x.dtype)
        assert bound.validate()
        assert bound.block_ops, "plan bound no ODE block programs"


# ----------------------------------------------------------------------
# zero per-step allocation
# ----------------------------------------------------------------------
#: the Python-level numpy constructors a step body could reach for
_CONSTRUCTORS = (
    "empty", "zeros", "ones", "full", "array", "concatenate", "stack",
    "pad", "ascontiguousarray", "empty_like", "zeros_like", "ones_like",
)


class _AllocationForbidden(AssertionError):
    pass


class _forbid_numpy_allocation:
    """Monkeypatch numpy's constructors to raise (restores on exit)."""

    def __enter__(self):
        self._saved = {name: getattr(np, name) for name in _CONSTRUCTORS}

        def _make(name):
            def _raise(*args, **kwargs):
                raise _AllocationForbidden(
                    f"np.{name} called inside a compiled Euler step"
                )
            return _raise

        for name in self._saved:
            setattr(np, name, _make(name))
        return self

    def __exit__(self, exc_type, exc, tb):
        for name, fn in self._saved.items():
            setattr(np, name, fn)
        return False


class TestZeroStepAllocation:
    def test_guard_actually_guards(self):
        with pytest.raises(_AllocationForbidden):
            with _forbid_numpy_allocation():
                np.zeros(3)

    @pytest.mark.parametrize("name", PACKABLE)
    def test_euler_blocks_run_allocation_free(self, name):
        """After the warm-up bind, the ODE block stages — the Euler
        loop, the hot path the arena exists for — execute with every
        numpy constructor replaced by a tripwire."""
        model = build_model(name, profile="tiny", inference=True)
        plan = compile_packed(PackedODENet(model))
        x = RNG.standard_normal((2, 3, 32, 32)).astype(np.float32)
        ref = plan(x)  # warm-up: bind geometry, allocate the arena

        bound = plan._bound(x.shape, x.dtype)
        block_stages = [s for s in bound.stages if s[2]]
        assert block_stages, "no ODE block stages bound"
        h = x
        ran = 0
        for kernel, fn, is_block in bound.stages:
            if is_block:
                with _forbid_numpy_allocation():
                    h = fn(h)
                ran += 1
            else:
                h = fn(h)
        assert ran == len(block_stages)
        np.testing.assert_array_equal(h, ref)
