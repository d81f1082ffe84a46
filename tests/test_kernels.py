"""repro.kernels: registry semantics, shape helpers, backend parity.

The kernel layer's contract has three parts, each pinned here:

* **registry / selection** — backends register by name, `use_backend`
  is thread-local and restores on exit, the env default resolves, and
  unknown names fail loudly;
* **shapes** — the deduplicated NCHW geometry helpers agree with the
  layers that used to own private copies of the formulas;
* **parity** — for every registry model the ``fused`` backend agrees
  with ``reference`` to float rounding (≤1e-6 relative) and the
  ``reference`` backend is *bit-identical* to the model's own eval
  forward; integer fixed-point results are exactly backend-invariant;
  gradcheck passes routed through the dispatch layer under both
  backends.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro import kernels
from repro.fixedpoint import QFormat, QuantizedMHSA2d
from repro.kernels import shapes
from repro.models import MODELS, build_model
from repro.nn import MHSA2d, functional
from repro.runtime import InferenceSession
from repro.tensor import Tensor, gradcheck


def _relative_close(ref, out, tol=1e-6):
    """≤ *tol* relative to the reference's magnitude (floor 1.0)."""
    scale = max(1.0, float(np.abs(ref).max()))
    return float(np.abs(np.asarray(ref) - np.asarray(out)).max()) <= tol * scale


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = kernels.available_backends()
        assert "reference" in names and "fused" in names

    def test_default_backend_matches_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert kernels.default_backend_name() == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "fused")
        assert kernels.default_backend_name() == "fused"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("cuda")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with kernels.use_backend("nope"):
                pass

    def test_use_backend_applies_and_restores(self):
        before = kernels.backend_name()
        with kernels.use_backend("fused"):
            assert kernels.backend_name() == "fused"
            with kernels.use_backend("reference"):
                assert kernels.backend_name() == "reference"
            assert kernels.backend_name() == "fused"
        assert kernels.backend_name() == before

    def test_use_backend_is_scoped_to_enter(self):
        """`use_backend` validates eagerly but applies only at
        __enter__ — constructing one must not leak a backend switch
        (imperative switching is `set_backend`, which warns)."""
        before = kernels.backend_name()
        switch = kernels.use_backend("fused")
        assert kernels.backend_name() == before
        with switch as backend:
            assert backend is kernels.get_backend("fused")
            assert kernels.backend_name() == "fused"
        assert kernels.backend_name() == before

    def test_set_backend_switches_and_warns_once(self):
        """The deprecated imperative path still works, returns the
        previous name, and warns exactly once per process."""
        kernels.registry._warned_once.discard("set_backend")
        before = kernels.backend_name()
        with pytest.warns(DeprecationWarning, match="set_backend"):
            prev = kernels.set_backend("fused")
        try:
            assert prev == before
            assert kernels.backend_name() == "fused"
        finally:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                kernels.set_backend(before)  # second call: no warning

    def test_resolve_backend_precedence(self, monkeypatch):
        """explicit arg > ambient context > $REPRO_BACKEND default."""
        explicit = kernels.resolve_backend("fused")
        assert explicit is kernels.get_backend("fused")
        with kernels.use_backend("fused"):
            assert kernels.resolve_backend() is kernels.get_backend("fused")
            # explicit still wins inside an ambient scope
            assert kernels.resolve_backend("reference") is kernels.get_backend(
                "reference"
            )
        assert kernels.resolve_backend() is kernels.get_backend(
            kernels.backend_name()
        )

    def test_thread_locality(self):
        import threading

        seen = {}

        def probe():
            seen["worker"] = kernels.backend_name()

        with kernels.use_backend("fused"):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["worker"] == kernels.default_backend_name()

    def test_every_kernel_is_dispatchable(self):
        for name in kernels.KERNELS:
            fn = getattr(kernels, name)
            assert callable(fn)
            for backend in ("reference", "fused"):
                assert callable(getattr(kernels.get_backend(backend), name))


class TestShapes:
    """The deduplicated geometry helpers (satellite: one formula, one home)."""

    @pytest.mark.parametrize(
        "h,w,kh,kw,sh,sw,ph,pw",
        [
            (32, 32, 3, 3, 1, 1, 1, 1),
            (32, 32, 7, 7, 2, 2, 3, 3),
            (9, 7, 2, 2, 2, 2, 0, 0),
            (8, 8, 3, 3, 2, 2, 1, 1),
            (5, 5, 5, 5, 1, 1, 0, 0),
        ],
    )
    def test_conv_out_size_matches_brute_force(self, h, w, kh, kw, sh, sw, ph, pw):
        oh, ow = shapes.conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
        # brute force: count valid anchor positions on the padded canvas
        assert oh == len(range(0, h + 2 * ph - kh + 1, sh))
        assert ow == len(range(0, w + 2 * pw - kw + 1, sw))

    def test_conv_out_size_rejects_empty_output(self):
        with pytest.raises(ValueError, match="empty"):
            shapes.conv_out_size(2, 2, 5, 5, 1, 1, 0, 0)

    def test_out_size_agrees_with_actual_conv_and_pool(self, rng):
        """The formula's one home must agree with what the kernels
        actually produce (this is what the dedup must not break)."""
        x = rng.normal(size=(2, 3, 11, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        out = kernels.conv2d(x, w, stride=(2, 2), padding=(1, 1))
        assert out.shape[2:] == shapes.conv_out_size(11, 9, 3, 3, 2, 2, 1, 1)
        pooled = kernels.maxpool2d(x, (2, 2), (2, 2), (1, 1))
        assert pooled.shape[2:] == shapes.conv_out_size(11, 9, 2, 2, 2, 2, 1, 1)

    def test_pad_nchw(self, rng):
        x = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        xp = shapes.pad_nchw(x, 1, 2)
        assert xp.shape == (1, 2, 5, 7)
        np.testing.assert_array_equal(xp[:, :, 1:4, 2:5], x)
        assert xp[0, 0, 0, 0] == 0.0
        assert shapes.pad_nchw(x, 0, 0) is x

    def test_pool_pad_value(self):
        assert shapes.pool_pad_value(np.dtype(np.float32)) == -np.inf
        assert shapes.pool_pad_value(np.dtype(np.int64)) == np.iinfo(np.int64).min

    def test_fixedpoint_maxpool_padding_identity_preserved(self, rng):
        """int-min padding can never win a max — the property the
        fixed-point layer's private copy used to guarantee."""
        from repro.fixedpoint.quantized_layers import fixed_maxpool2d

        x = (rng.normal(size=(1, 2, 4, 4)) * 100).astype(np.int64)
        out = fixed_maxpool2d(x, (3, 3), (1, 1), (1, 1))
        assert out.shape == (1, 2, 4, 4)
        assert out.max() == x.max()


def _model_input(batch=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)


class TestBackendParity:
    @pytest.mark.parametrize("name", MODELS)
    def test_reference_bit_exact_and_fused_close(self, name):
        model = build_model(name, profile="tiny", inference=True)
        x = _model_input()
        with kernels.use_backend("reference"):
            eval_fwd = model(Tensor(x, _copy=False)).data
            ref = InferenceSession(model).predict_batch(x)
        assert np.array_equal(ref, eval_fwd)  # reference == autograd eval, bitwise
        with kernels.use_backend("fused"):
            fused = InferenceSession(model).predict_batch(x)
        assert _relative_close(ref, fused), (
            f"{name}: fused deviates by "
            f"{np.abs(ref - fused).max():.3g} (>1e-6 relative)"
        )

    def test_session_backend_kwarg_matches_use_backend(self):
        model = build_model("ode_botnet", profile="tiny", inference=True)
        x = _model_input(batch=2, seed=7)
        with kernels.use_backend("fused"):
            via_ctx = InferenceSession(model).predict_batch(x)
        via_kwarg = InferenceSession(model, backend="fused").predict_batch(x)
        assert np.array_equal(via_ctx, via_kwarg)

    def test_session_rejects_unknown_backend(self):
        model = build_model("odenet", profile="tiny", inference=True)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            InferenceSession(model, backend="tpu")

    def test_eval_fast_path_parity_both_backends(self, rng):
        """functional.mhsa2d_eval vs the module forward, per backend."""
        m = MHSA2d(8, 3, 3, heads=2, attention_activation="relu",
                   out_layernorm=True, rng=rng)
        m.eval()
        x = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
        for backend in ("reference", "fused"):
            with kernels.use_backend(backend):
                from repro.tensor import no_grad

                with no_grad():
                    t_out = m(Tensor(x)).data
                np.testing.assert_allclose(
                    t_out, functional.mhsa2d_eval(m, x), rtol=1e-5, atol=1e-6
                )

    def test_fixedpoint_exact_across_backends(self, rng):
        """Integer accumulation is associative: quantised outputs must be
        *identical* whichever backend runs the integer GEMMs."""
        m = MHSA2d(8, 3, 3, heads=2, attention_activation="relu",
                   out_layernorm=True, rng=rng)
        x = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
        q = QuantizedMHSA2d(m, QFormat(32, 16), QFormat(24, 8))
        with kernels.use_backend("reference"):
            ref = q(x)
        with kernels.use_backend("fused"):
            fused = q(x)
        np.testing.assert_array_equal(ref, fused)

    @pytest.mark.parametrize("backend", ("reference", "fused"))
    def test_gradcheck_through_dispatch(self, backend, rng):
        """Autograd ops route forwards through the kernel seam; analytic
        gradients must match finite differences under both backends."""
        from repro import nn

        conv = nn.Conv2d(3, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 7, 7))
        with kernels.use_backend(backend):
            assert gradcheck(lambda t: conv(t).relu(), [x])
            w = rng.normal(size=(5, 4))
            assert gradcheck(
                lambda a, b: (a @ b).mean(axis=0).max(), [x.reshape(2, -1)[:, :5], w]
            )

    @pytest.mark.parametrize("backend", ("reference", "fused"))
    def test_kernel_level_parity(self, backend, rng):
        """Spot-check each kernel family directly at the dispatch layer."""
        ref = kernels.get_backend("reference")
        b = kernels.get_backend(backend)
        x = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        w_dense = rng.normal(size=(4, 6, 3, 3)).astype(np.float32)
        w_pw = rng.normal(size=(4, 6, 1, 1)).astype(np.float32)
        w_dw = rng.normal(size=(6, 1, 3, 3)).astype(np.float32)
        cases = [
            (ref.conv2d(x, w_dense, (1, 1), (1, 1), 1),
             b.conv2d(x, w_dense, (1, 1), (1, 1), 1)),
            (ref.conv2d(x, w_pw, (1, 1), (0, 0), 1),
             b.conv2d(x, w_pw, (1, 1), (0, 0), 1)),
            (ref.conv2d(x, w_dw, (1, 1), (1, 1), 6),
             b.conv2d(x, w_dw, (1, 1), (1, 1), 6)),
            (ref.maxpool2d(x, (2, 2), (2, 2), (1, 1)),
             b.maxpool2d(x, (2, 2), (2, 2), (1, 1))),
            (ref.softmax(x, axis=-1), b.softmax(x, axis=-1)),
            (ref.batchnorm2d(x, x.mean(axis=(0, 2, 3), keepdims=True), 0.5),
             b.batchnorm2d(x, x.mean(axis=(0, 2, 3), keepdims=True), 0.5)),
        ]
        for got_ref, got_b in cases:
            assert _relative_close(got_ref, got_b)


# (N, C, H, W, k): odd k in {1, 3, 5}, H or W smaller than k, N = 1, C = 1
BANDED_GEOMETRIES = (
    (2, 6, 8, 8, 1),
    (2, 6, 8, 8, 3),
    (2, 6, 8, 9, 5),
    (2, 3, 2, 7, 5),
    (2, 3, 7, 1, 3),
    (1, 4, 5, 5, 3),
    (3, 1, 6, 4, 3),
    (1, 1, 1, 1, 5),
)


class TestBandedDepthwise:
    """Same-padded depthwise convs run as one banded multiply-accumulate
    (repro.kernels.banded) under fused, compiled and quantized."""

    @staticmethod
    def _conv(backend, x, w):
        k = w.shape[2]
        return kernels.get_backend(backend).conv2d(
            x, w, (1, 1), (k // 2, k // 2), x.shape[1]
        )

    @pytest.mark.parametrize("geom", BANDED_GEOMETRIES)
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_float_parity(self, geom, dtype, rng):
        n, c, h, w, k = geom
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        wt = rng.normal(size=(c, 1, k, k)).astype(dtype)
        ref = self._conv("reference", x, wt)
        got = self._conv("fused", x, wt)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert _relative_close(ref, got)

    @pytest.mark.parametrize("geom", BANDED_GEOMETRIES)
    @pytest.mark.parametrize("backend", ("fused", "quantized"))
    def test_integer_raws_exact(self, geom, backend, rng):
        n, c, h, w, k = geom
        x = rng.integers(-2**12, 2**12, size=(n, c, h, w))
        wt = rng.integers(-2**8, 2**8, size=(c, 1, k, k))
        ref = self._conv("reference", x, wt)
        np.testing.assert_array_equal(self._conv(backend, x, wt), ref)
        # integer-valued float raws (the quantized plan's carry)
        np.testing.assert_array_equal(
            self._conv(backend, x.astype(np.float64), wt.astype(np.float64)),
            ref,
        )

    def test_in_place_weight_write_is_not_served_stale(self, rng):
        """A hot swap writes new values into the served weight array in
        place (``SharedWeightStore.write_arrays``); the next conv must
        use them, not diagonals cached from the old values."""
        x = rng.normal(size=(2, 4, 6, 6))
        wt = rng.normal(size=(4, 1, 3, 3))
        ref = kernels.get_backend("reference")
        with kernels.use_backend("fused"):
            kernels.conv2d(x, wt, padding=(1, 1), groups=4)
            wt[...] = rng.normal(size=wt.shape)
            got = kernels.conv2d(x, wt, padding=(1, 1), groups=4)
        assert _relative_close(ref.conv2d(x, wt, (1, 1), (1, 1), 4), got)

    def test_diagonal_cache_is_bounded(self, rng):
        from repro.kernels.fused import DIAGONAL_CACHE_ENTRIES

        fused = kernels.get_backend("fused")
        x = rng.normal(size=(1, 3, 5, 5))
        for _ in range(3 * DIAGONAL_CACHE_ENTRIES):
            self._conv("fused", x, rng.normal(size=(3, 1, 3, 3)))
        assert 0 < len(fused._ws.diags) <= DIAGONAL_CACHE_ENTRIES

    def test_import_footprint_has_no_scipy_sparse(self):
        """The kernel binds scipy's compiled loop without importing the
        ``scipy.sparse`` package (about 20 MB of resident memory)."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import repro.kernels as k\n"
            "k.get_backend('fused').conv2d(\n"
            "    np.ones((1, 2, 4, 4)), np.ones((2, 1, 3, 3)), (1, 1), (1, 1), 2)\n"
            "print('scipy.sparse' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_unbindable_routine_raises_import_error(self, tmp_path):
        with pytest.raises(ImportError, match="scipy"):
            kernels.banded._bind_dia_matvec(str(tmp_path))


# ODE-family registry models — the ones QuantizedODENetExecutor accepts.
ODE_MODELS = ("odenet", "ode_botnet")

# Q-format pairs spanning the degrade ladder (8/4-bit rungs), the
# paper's headline deployment format, and one pair wide enough to force
# the backend's exact-int64 fallback (accumulators > 53 bits).
QUANT_FORMATS = ("16(8)-12(4)", "8(4)-8(4)", "4(2)-4(2)", "32(16)-24(8)")


class TestFusedPassKernels:
    """The ``fused`` pool, ReLU and batch norm: the shifted-slice pool is
    exact, and the per-thread canvases never leak between paddings."""

    @pytest.mark.parametrize("dtype", (np.float64, np.float32, np.int64))
    @pytest.mark.parametrize("k", (2, 3))
    @pytest.mark.parametrize("stride", (1, 2))
    @pytest.mark.parametrize("pad", (0, 1))
    def test_maxpool_equals_reference_exactly(self, dtype, k, stride, pad, rng):
        ref = kernels.get_backend("reference")
        fb = kernels.FusedBackend()
        x = (rng.normal(size=(2, 3, 9, 8)) * 100).astype(dtype)
        args = ((k, k), (stride, stride), (pad, pad))
        for case in (x, -np.abs(x) - 1):  # mixed signs, all negative
            got = fb.maxpool2d(case, *args)
            assert got.dtype == case.dtype
            np.testing.assert_array_equal(got, ref.maxpool2d(case, *args))

    @pytest.mark.parametrize("k", (2, 3))
    @pytest.mark.parametrize("stride", (1, 2))
    @pytest.mark.parametrize("pad", (0, 1))
    def test_maxpool_propagates_nan_like_reference(self, k, stride, pad, rng):
        ref = kernels.get_backend("reference")
        fb = kernels.FusedBackend()
        x = rng.normal(size=(2, 3, 9, 8))
        x[0, 1, 3, 3] = np.nan
        x[1, 2, 0, 7] = np.nan
        args = ((k, k), (stride, stride), (pad, pad))
        got = fb.maxpool2d(x, *args)
        assert np.isnan(got).any()
        np.testing.assert_array_equal(got, ref.maxpool2d(x, *args))

    def test_conv_canvas_keyed_by_padding(self, rng):
        """Same padded shape (1, 2, 12, 12), different padding: the second
        call must not read the first call's interior as its border."""
        ref = kernels.get_backend("reference")
        fb = kernels.FusedBackend()
        a = rng.normal(size=(1, 2, 10, 10))
        b = rng.normal(size=(1, 2, 8, 8))
        w3 = rng.normal(size=(3, 2, 3, 3))
        w5 = rng.normal(size=(3, 2, 5, 5))
        fb.conv2d(a, w3, padding=(1, 1))
        got = fb.conv2d(b, w5, padding=(2, 2))
        # dense convs contract via BLAS: equal up to summation order
        np.testing.assert_allclose(got, ref.conv2d(b, w5, padding=(2, 2)),
                                   rtol=0, atol=1e-12)
        ai = (a * 100).astype(np.int64)
        bi = (b * 100).astype(np.int64)
        w3i = (w3 * 10).astype(np.int64)
        w5i = (w5 * 10).astype(np.int64)
        fb.conv2d(ai, w3i, padding=(1, 1))
        np.testing.assert_array_equal(fb.conv2d(bi, w5i, padding=(2, 2)),
                                      ref.conv2d(bi, w5i, padding=(2, 2)))

    def test_pool_canvas_keyed_by_padding(self, rng):
        ref = kernels.get_backend("reference")
        fb = kernels.FusedBackend()
        a = rng.normal(size=(1, 2, 10, 10))
        b = rng.normal(size=(1, 2, 8, 8))
        fb.maxpool2d(a, (3, 3), (1, 1), (1, 1))
        got = fb.maxpool2d(b, (5, 5), (1, 1), (2, 2))
        np.testing.assert_array_equal(
            got, ref.maxpool2d(b, (5, 5), (1, 1), (2, 2)))

    def test_relu_keeps_integer_dtype_and_honours_out(self, rng):
        fb = kernels.FusedBackend()
        ref = kernels.get_backend("reference")
        xi = (rng.normal(size=(2, 3, 4, 4)) * 50).astype(np.int64)
        got = fb.relu(xi)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref.relu(xi))
        xf = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = np.empty_like(xf)
        assert fb.relu(xf, out=out) is out
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, ref.relu(xf))

    @pytest.mark.parametrize("affine", (False, True))
    def test_batchnorm_folded_close(self, affine, rng):
        ref = kernels.get_backend("reference")
        fb = kernels.FusedBackend()
        x = rng.normal(size=(2, 5, 6, 6)) * 3 + 1
        mean = rng.normal(size=(1, 5, 1, 1))
        inv_std = rng.uniform(0.5, 2.0, size=(1, 5, 1, 1))
        extra = ((rng.normal(size=(1, 5, 1, 1)), rng.normal(size=(1, 5, 1, 1)))
                 if affine else ())
        want = ref.batchnorm2d(x, mean, inv_std, *extra)
        got = fb.batchnorm2d(x, mean, inv_std, *extra)
        assert got.dtype == want.dtype
        assert _relative_close(want, got)


class TestFusedDenseConv:
    """Every dense conv the 1×1 and banded branches leave is one im2col
    GEMM on a per-thread canvas: close to ``reference`` in float, exact
    on integer raws, and never stale across calls or threads."""

    @pytest.mark.parametrize("k", (1, 3, 5, 7))
    @pytest.mark.parametrize("stride", (1, 2))
    @pytest.mark.parametrize("pad", (0, 1, 3))
    @pytest.mark.parametrize("n", (1, 3))
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_float_parity(self, k, stride, pad, n, dtype, rng):
        ref = kernels.get_backend("reference")
        fb = kernels.FusedBackend()
        x = rng.normal(size=(n, 3, 11, 10)).astype(dtype)
        wt = rng.normal(size=(4, 3, k, k)).astype(dtype)
        args = ((stride, stride), (pad, pad), 1)
        want = ref.conv2d(x, wt, *args)
        got = fb.conv2d(x, wt, *args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert _relative_close(want, got)

    @pytest.mark.parametrize("k,stride,pad", ((3, 1, 1), (7, 2, 3), (3, 2, 0)))
    def test_integer_raws_exact(self, k, stride, pad, rng):
        ref = kernels.get_backend("reference")
        fb = kernels.FusedBackend()
        x = rng.integers(-2**20, 2**20, size=(2, 3, 11, 10), dtype=np.int64)
        wt = rng.integers(-2**12, 2**12, size=(4, 3, k, k), dtype=np.int64)
        args = ((stride, stride), (pad, pad), 1)
        got = fb.conv2d(x, wt, *args)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref.conv2d(x, wt, *args))

    def test_canvas_interior_rewritten_each_call(self, rng):
        ref = kernels.get_backend("reference")
        fb = kernels.FusedBackend()
        wt = rng.normal(size=(4, 3, 3, 3))
        for _ in range(2):
            x = rng.normal(size=(2, 3, 9, 9))
            assert _relative_close(ref.conv2d(x, wt, (2, 2), (1, 1), 1),
                                   fb.conv2d(x, wt, (2, 2), (1, 1), 1))

    def test_output_is_fresh(self, rng):
        """Callers add a bias into the output in place; that must not
        reach the next call's result, nor the next call overwrite it."""
        fb = kernels.FusedBackend()
        x = rng.normal(size=(2, 3, 9, 9))
        wt = rng.normal(size=(4, 3, 3, 3))
        first = fb.conv2d(x, wt, (1, 1), (1, 1), 1)
        want = first.copy()
        first += 100.0
        np.testing.assert_array_equal(fb.conv2d(x, wt, (1, 1), (1, 1), 1), want)
        np.testing.assert_array_equal(first, want + 100.0)

    def test_threads_on_one_geometry_agree(self, rng):
        fb = kernels.FusedBackend()
        x = rng.normal(size=(2, 3, 16, 16))
        wt = rng.normal(size=(8, 3, 7, 7))
        want = fb.conv2d(x, wt, (2, 2), (3, 3), 1)
        results, errors = [], []

        def work():
            try:
                for _ in range(50):
                    results.append(fb.conv2d(x, wt, (2, 2), (3, 3), 1))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(results) == 200
        for got in results:
            np.testing.assert_array_equal(got, want)


def _quantized_executor(name, fmt="16(8)-12(4)"):
    from repro.fixedpoint import QuantizedODENetExecutor, parse_format_pair

    model = build_model(name, profile="tiny", inference=True)
    ffmt, pfmt = parse_format_pair(fmt)
    return QuantizedODENetExecutor(model, ffmt, pfmt)


class TestQuantizedBackend:
    """The fourth backend: exact integer GEMMs rerouted through float
    BLAS.  Its whole contract is *bit-identity* with the scalar
    reference path — any deviation means the mantissa bound is wrong."""

    def test_quantized_backend_registered(self):
        assert "quantized" in kernels.available_backends()

    @pytest.mark.parametrize("name", ODE_MODELS)
    def test_executor_bit_identical_per_model(self, name):
        """Per registry model: executor.run under the quantized backend
        is bit-identical to the scalar reference path."""
        q = _quantized_executor(name)
        x = _model_input(batch=2)
        with kernels.use_backend("reference"):
            ref = q.run(x)
        with kernels.use_backend("quantized"):
            out = q.run(x)
        np.testing.assert_array_equal(ref, out)

    @pytest.mark.parametrize("fmt", QUANT_FORMATS)
    def test_executor_bit_identical_per_format(self, fmt):
        """Per Q-format profile — including a pair wide enough that the
        backend must fall back to exact int64 accumulation."""
        q = _quantized_executor("ode_botnet", fmt)
        x = _model_input(batch=2, seed=3)
        with kernels.use_backend("reference"):
            ref = q.run(x)
        with kernels.use_backend("quantized"):
            out = q.run(x)
        np.testing.assert_array_equal(ref, out)

    @pytest.mark.parametrize("name", ODE_MODELS)
    def test_session_quantized_backend_bit_identical(self, name):
        """SessionConfig(backend='quantized') packs a QuantizedPlan and
        must reproduce the executor's reference output bit-for-bit."""
        from repro.runtime import SessionConfig

        q = _quantized_executor(name)
        x = _model_input(batch=2, seed=11)
        with kernels.use_backend("reference"):
            ref = q.run(x)
        session = InferenceSession(q, config=SessionConfig(backend="quantized"))
        np.testing.assert_array_equal(ref, session.predict_batch(x))

    def test_quantized_mhsa_exact_under_quantized_backend(self, rng):
        """The existing backend-invariance contract extends to the new
        backend: identical integers whichever backend runs the GEMMs."""
        m = MHSA2d(8, 3, 3, heads=2, attention_activation="relu",
                   out_layernorm=True, rng=rng)
        x = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
        q = QuantizedMHSA2d(m, QFormat(16, 8), QFormat(12, 4))
        with kernels.use_backend("reference"):
            ref = q(x)
        with kernels.use_backend("quantized"):
            out = q(x)
        np.testing.assert_array_equal(ref, out)

    def test_integer_gemm_kernels_exact(self, rng):
        """Kernel-level: int64 operands through matmul/linear/conv2d
        come back as exact int64 results."""
        b = kernels.get_backend("quantized")
        ref = kernels.get_backend("reference")
        a = rng.integers(-(1 << 15), 1 << 15, size=(4, 64)).astype(np.int64)
        w = rng.integers(-(1 << 11), 1 << 11, size=(64, 8)).astype(np.int64)
        got = b.matmul(a, w)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref.matmul(a, w))
        x = rng.integers(-(1 << 15), 1 << 15, size=(2, 6, 8, 8)).astype(np.int64)
        k = rng.integers(-(1 << 11), 1 << 11, size=(4, 6, 3, 3)).astype(np.int64)
        np.testing.assert_array_equal(
            b.conv2d(x, k, (1, 1), (1, 1), 1), ref.conv2d(x, k, (1, 1), (1, 1), 1)
        )

    def test_float_inputs_fall_through_to_fused(self, rng):
        """Float work is untouched: the quantized backend inherits the
        fused float paths verbatim."""
        b = kernels.get_backend("quantized")
        fused = kernels.get_backend("fused")
        x = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 6, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            b.conv2d(x, w, (1, 1), (1, 1), 1),
            fused.conv2d(x, w, (1, 1), (1, 1), 1),
        )


class TestInstrumentation:
    def test_collect_counts_calls_seconds_bytes(self, rng):
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        counters = kernels.KernelCounters()
        with kernels.collect(counters):
            kernels.conv2d(x, w, padding=(1, 1))
            kernels.conv2d(x, w, padding=(1, 1))
            kernels.relu(x)
        assert counters.calls["conv2d"] == 2
        assert counters.calls["relu"] == 1
        assert counters.seconds["conv2d"] > 0
        assert counters.bytes["relu"] >= x.nbytes
        top = counters.snapshot()
        assert set(top) == {"conv2d", "relu"}

    def test_collect_is_scoped(self, rng):
        x = rng.normal(size=(2, 2)).astype(np.float32)
        counters = kernels.KernelCounters()
        with kernels.collect(counters):
            kernels.relu(x)
        kernels.relu(x)  # outside the block: not recorded
        assert counters.calls["relu"] == 1

    def test_nested_dispatch_is_not_recorded_twice(self, rng):
        x = rng.normal(size=(2, 2))

        def site(a):
            return kernels.relu(kernels.relu(a))

        with kernels.collect() as counters:
            kernels.record_dispatch("conv2d", site, (x,), {})
            kernels.relu(x)  # the flag is cleared after the outer call
        assert counters.calls == {"conv2d": 1, "relu": 1}

    def test_session_stats_kernel_breakdown(self):
        model = build_model("ode_botnet", profile="tiny", inference=True)
        session = InferenceSession(model, instrument=True)
        session.predict_batch(_model_input(batch=2, seed=4))
        snap = session.stats.snapshot()
        assert "kernels" in snap
        conv = snap["kernels"]["conv2d"]
        assert conv["calls"] > 0 and conv["seconds"] > 0 and conv["bytes"] > 0
        # the packed ODE plan's hot loop: matmul (attention) + conv
        assert "matmul" in snap["kernels"]

    def test_uninstrumented_session_has_no_kernel_entry(self):
        model = build_model("odenet", profile="tiny", inference=True)
        session = InferenceSession(model)
        session.predict_batch(_model_input(batch=2, seed=4))
        assert "kernels" not in session.stats.snapshot()

    def test_stats_reset_clears_kernels(self):
        model = build_model("odenet", profile="tiny", inference=True)
        session = InferenceSession(model, instrument=True)
        session.predict_batch(_model_input(batch=2, seed=4))
        session.stats.reset()
        assert "kernels" not in session.stats.snapshot()
