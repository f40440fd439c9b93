import dataclasses
import math

import numpy as np
import pytest

from occreid.dataset import generate_synthetic_dataset
from occreid.errors import (
    CorruptData,
    LabelOutOfRange,
    NonFiniteGradient,
    NonFiniteParameter,
    ShapeMismatch,
    UnsupportedFormat,
)
from occreid.imaging import Image, resize
from occreid.model import (
    FORWARD_CHUNK,
    ArchSpec,
    ConvSpec,
    ForwardTrace,
    ModelParams,
    TrainConfig,
    _cast,
    _col2im,
    _im2col,
    _mean_losses,
    _param_shapes,
    _softmax,
    backward,
    extract_features,
    forward,
    init_params,
    load_checkpoint,
    multi_task_loss,
    preprocess_image,
    preprocess_images,
    save_checkpoint,
    sgd_step,
    train,
)
from occreid.rng import SplitMix64, derive_seed

TINY = ArchSpec(input_side=8, resize_side=8, in_channels=3, convs=(ConvSpec(2, 3, 2), ConvSpec(3, 3, 1)))


def tiny_params(seed=0, num_classes=3):
    return init_params(TINY, num_classes, seed)


def rand_batch(b=2, seed=0, side=8):
    gen = np.random.Generator(np.random.PCG64(seed))
    return gen.uniform(0, 1, (b, 3, side, side))


def conv_oracle(x, w, bias, stride, pad):
    """Direct triple-loop convolution, independent of the im2col path."""
    c_out, c_in, k, _ = w.shape
    h, wd = x.shape[1:]
    xp = np.zeros((c_in, h + 2 * pad, wd + 2 * pad))
    xp[:, pad : pad + h, pad : pad + wd] = x
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for f in range(c_out):
        for i in range(oh):
            for j in range(ow):
                window = xp[:, i * stride : i * stride + k, j * stride : j * stride + k]
                out[f, i, j] = (window * w[f]).sum() + bias[f]
    return out


def nchw(a):
    """A trunk array of ForwardTrace, (C, H, W, B), viewed as (B, C, H, W)."""
    return a.transpose(3, 0, 1, 2)


def reference_init(arch, num_classes, seed):
    """init_params written out layer by layer: every conv weight in order,
    then id.w and obc.w, uniform in +-sqrt(6 / fan_in) from one PCG64
    stream and rounded through float32; biases zero."""
    gen = np.random.Generator(np.random.PCG64(seed))

    def draw(bound, shape):
        return gen.uniform(-bound, bound, shape).astype(np.float32).astype(np.float64)

    out, c_in = {}, arch.in_channels
    for i, spec in enumerate(arch.convs):
        bound = np.sqrt(6.0 / (c_in * spec.kernel * spec.kernel))
        shape = (spec.out_channels, c_in, spec.kernel, spec.kernel)
        out[f"conv{i}.w"] = draw(bound, shape)
        out[f"conv{i}.b"] = np.zeros(spec.out_channels)
        c_in = spec.out_channels
    d = arch.feature_dim
    bound = np.sqrt(6.0 / d)
    out["id.w"] = draw(bound, (num_classes, d))
    out["id.b"] = np.zeros(num_classes)
    out["obc.w"] = draw(bound, (2, d))
    out["obc.b"] = np.zeros(2)
    return out


class TestParamLayout:
    ARCHS = [
        TINY,
        ArchSpec(),
        ArchSpec(20, 24, 3, (ConvSpec(6, 5, 1), ConvSpec(5, 1, 3), ConvSpec(7, 3, 2), ConvSpec(9, 3, 2))),
    ]

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_params_gradients_and_checkpoint_follow_the_layout(self, tmp_path, arch, channels):
        arch = dataclasses.replace(arch, in_channels=channels)
        layout = _param_shapes(arch, 5)
        params = init_params(arch, 5, 1)
        assert [(name, arr.shape) for name, arr in params.tensors.items()] == layout
        x = np.random.Generator(np.random.PCG64(2)).uniform(
            0, 1, (2, channels, arch.input_side, arch.input_side)
        )
        grads = backward(forward(params, x), params, [0, 4], [0, 1], 0.5)
        assert [(name, g.shape) for name, g in grads.items()] == layout
        path = tmp_path / "m.bin"
        save_checkpoint(params, path)
        header = 8 + 16 + 12 * len(arch.convs) + 4  # magic, geometry, convs, class count
        assert path.stat().st_size == header + 4 * sum(math.prod(shape) for _, shape in layout)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_every_builder_keys_tensors_in_layout_order(self, tmp_path, arch):
        names = [name for name, _ in _param_shapes(arch, 5)]
        params = init_params(arch, 5, 1)
        grads = {name: np.ones_like(arr) for name, arr in params.tensors.items()}
        path = tmp_path / "m.bin"
        save_checkpoint(params, path)
        built = {
            "init_params": params,
            "_cast": _cast(params, np.float32),
            "sgd_step": sgd_step(params, grads, 0.1),
            "load_checkpoint": load_checkpoint(path),
        }
        for builder, result in built.items():
            assert list(result.tensors) == names, builder

    @pytest.mark.parametrize("arch", ARCHS)
    def test_dict_order_does_not_decide_the_checkpoint(self, tmp_path, arch):
        params = init_params(arch, 5, 1)
        reordered = ModelParams(arch, dict(reversed(params.tensors.items())))
        assert list(reordered.tensors) != list(params.tensors)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params, a)
        save_checkpoint(reordered, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_init_matches_per_layer_reference(self, arch, channels):
        arch = dataclasses.replace(arch, in_channels=channels)
        for seed in (0, 1, 2**63 + 5):
            want = reference_init(arch, 7, seed)
            got = init_params(arch, 7, seed).tensors.items()
            assert [name for name, _ in got] == list(want)
            for name, arr in got:
                assert arr.dtype == want[name].dtype and arr.tobytes() == want[name].tobytes(), name


class TestForward:
    def test_shapes(self):
        params = tiny_params()
        trace = forward(params, rand_batch(4))
        assert trace.id_logits.shape == (4, 3)
        assert trace.obc_logits.shape == (4, 2)
        assert trace.feature.shape == (4, TINY.feature_dim)
        assert trace.last_maps.shape[0] == 4

    def test_zero_params_give_uniform_softmax(self):
        params = tiny_params()
        zeros = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
        params0 = ModelParams(TINY, zeros)
        trace = forward(params0, rand_batch(2))
        assert np.allclose(trace.id_logits, 0.0)
        assert losses_of(trace.id_logits[0], 0)[0] == pytest.approx(math.log(3))

    def test_single_conv_matches_direct_convolution(self):
        arch = ArchSpec(input_side=8, resize_side=8, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        params = init_params(arch, 2, 5)
        x = rand_batch(1, seed=3)
        trace = forward(params, x)
        expected = conv_oracle(x[0], params.tensors["conv0.w"], params.tensors["conv0.b"], 2, 1)
        assert np.allclose(nchw(trace.preacts[0])[0], expected, atol=1e-12)
        assert np.allclose(trace.last_maps[0], np.maximum(expected, 0.0), atol=1e-12)

    def test_stride_one_kernel_one(self):
        arch = ArchSpec(input_side=4, resize_side=4, in_channels=1, convs=(ConvSpec(2, 1, 1),))
        params = init_params(arch, 2, 1)
        gen = np.random.Generator(np.random.PCG64(0))
        x = gen.uniform(0, 1, (1, 1, 4, 4))
        trace = forward(params, x)
        expected = conv_oracle(x[0], params.tensors["conv0.w"], params.tensors["conv0.b"], 1, 0)
        assert np.allclose(nchw(trace.preacts[0])[0], expected, atol=1e-12)

    def test_last_maps_match_chained_oracle_on_acceptance_arch(self):
        arch = ArchSpec(32, 36, 3, (ConvSpec(16, 3, 2), ConvSpec(32, 3, 2), ConvSpec(64, 3, 2)))
        params = shift_biases(arch, init_params(arch, 4, 7), seed=8)
        x = rand_batch(3, seed=9, side=32)
        maps = forward(params, x).last_maps
        assert maps.shape == (3, 64, 4, 4)
        for sample, got in zip(x, maps):
            a = sample
            for i, spec in enumerate(arch.convs):
                w, bias = params.tensors[f"conv{i}.w"], params.tensors[f"conv{i}.b"]
                a = np.maximum(conv_oracle(a, w, bias, spec.stride, spec.kernel // 2), 0.0)
            assert np.abs(got - a).max() <= 1e-12

    def test_shape_mismatch(self):
        params = tiny_params()
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((1, 3, 7, 7)))
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((1, 1, 8, 8)))
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((3, 8, 8)))

    def test_deterministic(self):
        params = tiny_params()
        x = rand_batch(2)
        a = forward(params, x)
        b = forward(params, x)
        assert np.array_equal(a.feature, b.feature)


def losses_of(id_logits, label, obc_logits=(0.0, 0.0), flag=0):
    """_mean_losses on a batch of one: (identity loss, OBC loss)."""
    trace = ForwardTrace(
        (), (), np.zeros((1, 1)), np.array([id_logits], float), np.array([obc_logits], float)
    )
    return _mean_losses(trace, np.array([label]), np.array([flag]))


class TestLosses:
    def test_id_loss_uniform(self):
        assert losses_of(np.zeros(4), 2)[0] == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_id_loss_saturated(self):
        assert losses_of([1000.0, 0.0, 0.0], 0)[0] == pytest.approx(0.0, abs=1e-9)

    def test_id_loss_log_sum_exp_oracle(self):
        # -log softmax([1,2,3])[1] = log(e + e^2 + e^3) - 2, frozen below
        val = losses_of([1.0, 2.0, 3.0], 1)[0]
        assert val == pytest.approx(1.4076059644443801, abs=1e-12)
        assert val == pytest.approx(
            math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 2.0, abs=1e-12
        )

    def test_id_loss_label_out_of_range(self):
        # the gradient refuses a label outside the K classes, on a batch of one
        params = tiny_params()
        trace = forward(params, rand_batch(1))
        for label in (3, -1):
            with pytest.raises(LabelOutOfRange):
                backward(trace, params, np.array([label]), np.array([0]), 0.8)

    def test_id_loss_positive_unless_point_mass(self):
        gen = np.random.Generator(np.random.PCG64(4))
        for _ in range(50):
            logits = gen.normal(0, 3, 5)
            assert losses_of(logits, int(gen.integers(0, 5)))[0] > 0.0

    def test_obc_loss_uniform(self):
        assert losses_of([0.0], 0, (0.0, 0.0), 0)[1] == pytest.approx(
            0.6931471805599453, abs=1e-12
        )

    def test_obc_loss_oracle(self):
        # -log softmax([0.5, -0.5])[0] = log(1 + e^-1), frozen below
        val = losses_of([0.0], 0, (0.5, -0.5), 0)[1]
        assert val == pytest.approx(0.31326168751822286, abs=1e-12)
        assert val == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-12)

    def test_multi_task_boundaries(self):
        assert multi_task_loss(1.7, 0.3, 1.0) == 1.7
        assert multi_task_loss(1.7, 0.3, 0.0) == 0.3
        assert multi_task_loss(1.0, 0.5, 0.8) == pytest.approx(0.9, abs=1e-15)
        assert multi_task_loss(1.0, 0.5, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_multi_task_alpha_range(self):
        with pytest.raises(ValueError):
            multi_task_loss(1.0, 1.0, 1.2)

    def test_softmax_probabilities_normalize(self):
        from occreid.model import _softmax

        gen = np.random.Generator(np.random.PCG64(9))
        logits = gen.normal(0, 10, (30, 7))
        assert np.abs(_softmax(logits).sum(axis=1) - 1.0).max() < 1e-9


def fd_gradients(arch, params, x, labels, flags, alpha, eps=1e-3):
    def loss_at(p):
        tr = forward(p, x)
        lp, lo = _mean_losses(tr, labels, flags)
        return multi_task_loss(lp, lo, alpha)

    grads = {}
    for name, arr in params.tensors.items():
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            plus = {k: v.copy() for k, v in params.tensors.items()}
            plus[name].reshape(-1)[i] += eps
            minus = {k: v.copy() for k, v in params.tensors.items()}
            minus[name].reshape(-1)[i] -= eps
            gflat[i] = (
                loss_at(ModelParams(arch, plus)) - loss_at(ModelParams(arch, minus))
            ) / (2 * eps)
        grads[name] = g
    return grads


def shift_biases(arch, params, seed):
    """Random conv biases keep preactivations away from the ReLU kink,
    where a finite difference would straddle the nondifferentiable point."""
    gen = np.random.Generator(np.random.PCG64(seed))
    tensors = {k: v.copy() for k, v in params.tensors.items()}
    for k in tensors:
        if k.startswith("conv") and k.endswith(".b"):
            tensors[k] = gen.uniform(-0.6, 0.6, tensors[k].shape)
    return ModelParams(arch, tensors)


def einsum_conv_grads(trace, params, labels, flags, alpha):
    """Conv weight gradients with dW contracted over positions and batch by
    one einsum on the (C, H, W, B) trunk arrays."""
    b = len(labels)
    g_id = _softmax(trace.id_logits)
    g_id[np.arange(b), labels] -= 1.0
    g_id *= alpha / b
    g_obc = _softmax(trace.obc_logits)
    g_obc[np.arange(b), flags] -= 1.0
    g_obc *= (1.0 - alpha) / b
    last = trace.preacts[-1]
    t = params.tensors
    d_act = (g_id @ t["id.w"] + g_obc @ t["obc.w"]).T[:, None, None, :]
    d_act = np.broadcast_to(d_act / (last.shape[1] * last.shape[2]), last.shape)
    grads = {}
    for layer in reversed(range(len(params.arch.convs))):
        spec, w = params.arch.convs[layer], params.tensors[f"conv{layer}.w"]
        dz = np.where(trace.preacts[layer] > 0.0, d_act, 0.0).reshape(spec.out_channels, -1, b)
        cols = trace.cols[layer].reshape(w[0].size, -1, b)
        grads[f"conv{layer}.w"] = np.einsum("fsb,csb->fc", dz, cols).reshape(w.shape)
        if layer:
            dcols = w.reshape(spec.out_channels, -1).T @ dz.reshape(spec.out_channels, -1)
            shape = trace.preacts[layer - 1].shape
            d_act = _col2im(dcols, shape, spec.kernel, spec.stride, spec.kernel // 2)
    return grads


def pad_im2col(x, k, stride, pad):
    """im2col of (C, H, W, B) x over an np.pad copy, one slice per kernel
    offset: (C*k*k, oh*ow*B) columns."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    c, hp, wp, b = xp.shape
    oh = (hp - k) // stride + 1
    ow = (wp - k) // stride + 1
    blocks = [
        xp[:, i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride]
        for i in range(k)
        for j in range(k)
    ]
    return np.stack(blocks, axis=1).reshape(c * k * k, oh * ow * b), oh, ow


IM2COL_GEOMETRIES = [
    (20, 3, 32, 32, 3, 2), (20, 16, 16, 16, 3, 2), (20, 32, 8, 8, 3, 2), (2, 3, 7, 5, 3, 1),
    (3, 2, 9, 9, 5, 2), (1, 4, 6, 6, 1, 1), (2, 1, 4, 4, 7, 3), (1, 2, 1, 1, 3, 2),
]


class TestIm2col:
    @pytest.mark.parametrize("b, c, h, w, k, stride", IM2COL_GEOMETRIES)
    def test_matches_np_pad_reference(self, b, c, h, w, k, stride):
        x = np.random.Generator(np.random.PCG64(k * stride)).uniform(-1, 1, (b, c, h, w))
        x = x.transpose(1, 2, 3, 0)
        cols, oh, ow = _im2col(x, k, stride, k // 2)
        ref, ref_oh, ref_ow = pad_im2col(x, k, stride, k // 2)
        assert (oh, ow) == (ref_oh, ref_ow)
        assert cols.shape == ref.shape and np.array_equal(cols, ref)

    @pytest.mark.parametrize("b, c, h, w, k, stride", IM2COL_GEOMETRIES)
    def test_col2im_is_the_adjoint(self, b, c, h, w, k, stride):
        # <im2col(x), y> == <x, col2im(y)> for every x and y
        gen = np.random.Generator(np.random.PCG64(k + 10 * stride))
        x = gen.uniform(-1, 1, (c, h, w, b))
        cols, _, _ = _im2col(x, k, stride, k // 2)
        y = gen.uniform(-1, 1, cols.shape)
        lhs = (cols * y).sum()
        rhs = (x * _col2im(y, x.shape, k, stride, k // 2)).sum()
        assert abs(lhs - rhs) <= 1e-12 * np.abs(cols * y).sum()


class TestBackward:
    @pytest.mark.parametrize(
        "convs, b",
        [(((16, 3, 2), (32, 3, 2), (64, 3, 2)), 20), (((4, 3, 1), (6, 5, 2), (8, 3, 3)), 5)],
    )
    def test_conv_grads_match_einsum_reference(self, convs, b):
        arch = ArchSpec(32, 36, 3, tuple(ConvSpec(*c) for c in convs))
        params = shift_biases(arch, init_params(arch, 4, 3), seed=5)
        gen = np.random.Generator(np.random.PCG64(b))
        labels, flags = gen.integers(0, 4, b), gen.integers(0, 2, b)
        trace = forward(params, rand_batch(b, seed=b, side=32))
        grads = backward(trace, params, labels, flags, 0.7)
        for name, ref in einsum_conv_grads(trace, params, labels, flags, 0.7).items():
            rel = np.abs(grads[name] - ref).max() / np.abs(ref).max()
            assert rel <= 1e-12, f"{name}: rel={rel}"

    def test_matches_finite_differences_tiny_spec(self):
        # seeds chosen so every preactivation clears the ReLU kink by more
        # than the finite-difference step can move it
        params = shift_biases(TINY, tiny_params(seed=4), seed=13)
        x = rand_batch(2, seed=2)
        labels, flags = np.array([0, 2]), np.array([1, 0])
        trace = forward(params, x)
        assert min(np.abs(z).min() for z in trace.preacts) > 0.02
        analytic = backward(trace, params, labels, flags, 0.7)
        numeric = fd_gradients(TINY, params, x, labels, flags, 0.7)
        for name, a in analytic.items():
            f = numeric[name]
            rel = np.abs(a - f).max() / max(np.abs(a).max(), np.abs(f).max(), 1e-12)
            assert rel <= 1e-4, f"{name}: rel={rel}"

    def test_alpha_one_zeroes_obc_gradients(self):
        params = tiny_params()
        x = rand_batch(3)
        trace = forward(params, x)
        grads = backward(trace, params, np.array([0, 1, 2]), np.array([1, 0, 1]), 1.0)
        assert np.all(grads["obc.w"] == 0.0)
        assert np.all(grads["obc.b"] == 0.0)
        assert np.any(grads["id.w"] != 0.0)

    def test_alpha_zero_zeroes_id_gradients(self):
        params = tiny_params()
        x = rand_batch(3)
        trace = forward(params, x)
        grads = backward(trace, params, np.array([0, 1, 2]), np.array([1, 0, 1]), 0.0)
        assert np.all(grads["id.w"] == 0.0)
        assert np.any(grads["obc.w"] != 0.0)

    def test_batch_mean_linearity(self):
        params = tiny_params()
        xa, xb = rand_batch(1, seed=5), rand_batch(1, seed=6)
        ga = backward(forward(params, xa), params, np.array([1]), np.array([0]), 0.8)
        gb = backward(forward(params, xb), params, np.array([2]), np.array([1]), 0.8)
        both = np.concatenate([xa, xb])
        gab = backward(forward(params, both), params, np.array([1, 2]), np.array([0, 1]), 0.8)
        for name in gab:
            assert np.allclose(gab[name], (ga[name] + gb[name]) / 2.0, atol=1e-12)

    def test_duplicated_sample_doubles_contribution(self):
        params = tiny_params()
        x = rand_batch(1, seed=7)
        single = backward(forward(params, x), params, np.array([1]), np.array([0]), 0.8)
        dup = np.concatenate([x, x])
        doubled = backward(forward(params, dup), params, np.array([1, 1]), np.array([0, 0]), 0.8)
        # batch mean of two identical samples equals the single-sample grad;
        # the unnormalized contribution of the sample therefore doubled
        for name in single:
            assert np.allclose(single[name], doubled[name], atol=1e-12)

    def test_label_validation(self):
        params = tiny_params()
        x = rand_batch(2)
        trace = forward(params, x)
        with pytest.raises(LabelOutOfRange):
            backward(trace, params, np.array([0, 3]), np.array([0, 1]), 0.8)
        with pytest.raises(ShapeMismatch):
            backward(trace, params, np.array([0]), np.array([0, 1]), 0.8)


class TestSgdStep:
    def test_zero_gradients_leave_params_bitwise_unchanged(self):
        params = tiny_params()
        grads = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
        updated = sgd_step(params, grads, 0.5)
        for a, b in zip(params.tensors.values(), updated.tensors.values()):
            assert np.array_equal(a, b)

    def test_zero_learning_rate(self):
        params = tiny_params()
        grads = {name: np.ones_like(arr) for name, arr in params.tensors.items()}
        updated = sgd_step(params, grads, 0.0)
        for a, b in zip(params.tensors.values(), updated.tensors.values()):
            assert np.array_equal(a, b)

    def test_elementwise_update_rule(self):
        # the scalar case p=1, g=2, lr=0.1 -> 0.8, applied across a tensor
        params = tiny_params()
        grads = {name: np.full_like(arr, 2.0) for name, arr in params.tensors.items()}
        updated = sgd_step(params, grads, 0.1)
        for a, b in zip(params.tensors.values(), updated.tensors.values()):
            assert np.allclose(b, a - 0.2, atol=1e-15)

    def test_non_finite_gradient(self):
        params = tiny_params()
        grads = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
        grads["id.w"][0, 0] = np.nan
        with pytest.raises(NonFiniteGradient, match="id.w gradient is not finite in float64"):
            sgd_step(params, grads, 0.1)

    def test_update_overflowing_float32_names_the_tensor(self):
        # a finite weight and a finite gradient whose update leaves the float32 range
        params = _cast(tiny_params(), np.float32)
        params.tensors["id.w"][0, 0] = 3e38
        grads = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
        grads["id.w"][0, 0] = -1.0
        with pytest.raises(NonFiniteParameter, match="id.w is not finite in float32"):
            sgd_step(params, grads, 1e38)
        # the same update in float64 stays finite
        wide = tiny_params()
        wide.tensors["id.w"][0, 0] = 3e38
        wide_grads = {name: g.astype(np.float64) for name, g in grads.items()}
        assert sgd_step(wide, wide_grads, 1e38).tensors["id.w"][0, 0] == 4e38


class TestTrainConfig:
    def test_alpha_default(self):
        assert TrainConfig().alpha == 0.8

    def test_alpha_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=1.5)

    def test_construction_is_silent(self):
        # a config is plain data: the advisory for an alpha of 0 or 1 comes
        # from the run that trains with it, not from building or copying it
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TrainConfig(alpha=1.0)
            TrainConfig(alpha=0.0)
            dataclasses.replace(TrainConfig(), alpha=1.0)

    def test_config_broken_after_construction_refused_before_any_work(self):
        # both configs are plain dataclasses, so a field set after
        # construction is checked again before a sample is read
        from occreid.occsim import OcclusionConfig, build_occlusion_set

        def unread():
            raise AssertionError("a sample was read before the config was checked")
            yield

        cfg = TrainConfig()
        cfg.batch_size = 0
        with pytest.raises(ValueError, match="batch_size"):
            train(unread(), cfg, 0)
        occ = OcclusionConfig()
        occ.ratio_lo, occ.ratio_hi = 0.5, 0.2
        with pytest.raises(ValueError, match="ratio_lo"):
            build_occlusion_set(unread(), occ, 0)


SEED = 3  # the train seed of small_train_setup's runs


def small_train_setup(iterations, alpha=0.8, ids=4):
    samples = generate_synthetic_dataset(ids, 4, 16, 24, SplitMix64(2))
    cfg = TrainConfig(
        alpha=alpha,
        learning_rate=0.02,
        batch_size=8,
        iterations=iterations,
        input_side=12,
        resize_side=14,
        conv_channels=(4, 8),
    )
    return samples, cfg


class TestTrain:
    def test_loss_decreases_on_toy_run(self):
        samples, cfg = small_train_setup(200)
        _, history = train(samples, cfg, SEED)
        first = np.mean([h[1] for h in history[:10]])
        last = np.mean([h[1] for h in history[-10:]])
        assert last < first

    def test_history_length_and_decomposition(self):
        samples, cfg = small_train_setup(50)
        _, history = train(samples, cfg, SEED)
        assert len(history) == 50
        for _, total, lp, lo in history:
            assert total == cfg.alpha * lp + (1.0 - cfg.alpha) * lo

    def test_deterministic_end_to_end(self):
        samples, cfg = small_train_setup(40)
        pa, ha = train(samples, cfg, SEED)
        pb, hb = train(samples, cfg, SEED)
        assert ha == hb
        for a, b in zip(pa.tensors.values(), pb.tensors.values()):
            assert np.array_equal(a, b)

    def test_alpha_one_keeps_obc_head_bit_identical(self):
        samples, cfg = small_train_setup(30)
        cfg1 = dataclasses.replace(cfg, alpha=1.0)
        from occreid.rng import derive_seed

        initial = init_params(cfg.arch, 4, derive_seed(SEED, 0))
        final, _ = train(samples, cfg1, SEED)
        assert np.array_equal(initial.tensors["obc.w"], final.tensors["obc.w"])
        assert np.array_equal(initial.tensors["obc.b"], final.tensors["obc.b"])
        assert not np.array_equal(initial.tensors["id.w"], final.tensors["id.w"])

    def test_alpha_zero_keeps_id_head_bit_identical(self):
        samples, cfg = small_train_setup(30)
        cfg0 = dataclasses.replace(cfg, alpha=0.0)
        from occreid.rng import derive_seed

        initial = init_params(cfg.arch, 4, derive_seed(SEED, 0))
        final, _ = train(samples, cfg0, SEED)
        assert np.array_equal(initial.tensors["id.w"], final.tensors["id.w"])
        assert np.array_equal(initial.tensors["id.b"], final.tensors["id.b"])
        assert not np.array_equal(initial.tensors["obc.w"], final.tensors["obc.w"])

    def test_empty_set_rejected(self):
        _, cfg = small_train_setup(5)
        with pytest.raises(ValueError):
            train([], cfg, SEED)

    def test_mixed_channels_name_the_sample(self):
        # a gray image among colour ones, in the full-body set or in an
        # epoch's occluded half, is a data error naming it
        samples, cfg = small_train_setup(5)
        gray = dataclasses.replace(samples[2], id="gray", image=Image(np.zeros((24, 16), np.uint8)))
        with pytest.raises(ShapeMismatch, match="gray has 1 channels"):
            train(samples[:2] + [gray] + samples[3:], cfg, SEED)
        with pytest.raises(ShapeMismatch, match="gray has 1 channels"):
            train(samples, cfg, SEED, occlusions=lambda e: [gray] + samples[1:])


def train_crop(img, side, max_jitter=0, rng=None):
    """The train crop's pixels: a side x side window around the center of
    img, moved by an x then a y offset drawn from [-max_jitter, max_jitter]."""
    x, y = (img.width - side) // 2, (img.height - side) // 2
    if max_jitter:
        x += rng.randint(-max_jitter, max_jitter)
        y += rng.randint(-max_jitter, max_jitter)
    return img.pixels[y : y + side, x : x + side]


def replay_train_inputs(samples, cfg, seed, occlusions=None):
    """The float64 network inputs train should build, with their identity
    labels and occlusion flags: one (inputs, labels, flags) triple per
    iteration, rebuilt epoch by epoch from the replayed order and jitter
    streams with train_crop on resized Images. Without occlusions the run
    is one epoch."""
    arch = cfg.arch
    side = arch.resize_side
    label_of = {ident: i for i, ident in enumerate(sorted({s.identity for s in samples}))}
    full = [resize(s.image, side, side) for s in samples]
    epoch_len = cfg.iterations
    if occlusions is not None:
        epoch_len = max(1, math.ceil(2 * len(samples) / cfg.batch_size))
    inputs = []
    for epoch, start in enumerate(range(0, cfg.iterations, epoch_len)):
        resized, members = list(full), list(samples)
        if occlusions is not None:
            occluded = list(occlusions(epoch))
            resized += [resize(z.image, side, side) for z in occluded]
            members += occluded
        order_rng = SplitMix64(derive_seed(derive_seed(seed, 1), start))
        jitter_rng = SplitMix64(derive_seed(derive_seed(seed, 2), start))
        queue = []
        for _ in range(min(epoch_len, cfg.iterations - start)):
            while len(queue) < cfg.batch_size:
                block = list(range(len(resized)))
                order_rng.shuffle(block)
                queue.extend(block)
            batch, queue = queue[: cfg.batch_size], queue[cfg.batch_size :]
            crops = [
                train_crop(resized[i], arch.input_side, cfg.max_jitter, jitter_rng) for i in batch
            ]
            x = np.stack([(c / 255.0).transpose(2, 0, 1) for c in crops])
            labels = np.array([label_of[members[i].identity] for i in batch])
            flags = np.array([members[i].occlusion.obc_target for i in batch])
            inputs.append((x, labels, flags))
    return inputs


class TestTrainBatchAssembly:
    @pytest.mark.parametrize(
        "jitter, presized, occluded",
        [(3, False, True), (3, True, False), (0, False, False), (0, True, True)],
    )
    def test_forward_inputs_match_image_crops(self, monkeypatch, jitter, presized, occluded):
        import dataclasses

        import occreid.model as model
        from occreid.occsim import OcclusionConfig, build_occlusion_set

        sources = generate_synthetic_dataset(2, 3, 16, 24, SplitMix64(2))
        # 6 samples: with occlusions an epoch is ceil(12 / 5) = 3 iterations, so
        # 8 iterations run epochs of 3, 3 and 2, and each epoch wraps the shuffle
        geometry = dict(input_side=12, resize_side=18, conv_channels=(4,))
        cfg = TrainConfig(batch_size=5, iterations=8, max_jitter=jitter, **geometry)
        side = cfg.resize_side
        samples = list(sources)
        if presized:  # every other sample arrives already at resize_side
            samples[::2] = [
                dataclasses.replace(s, image=resize(s.image, side, side)) for s in samples[::2]
            ]
        epochs = []

        def occlusions(epoch):  # drawn from the unresized sources, one stream per epoch
            epochs.append(epoch)
            return build_occlusion_set(sources, OcclusionConfig(patch_side=6), epoch)[0]

        seen, targets, resized = [], [], []

        def spy_forward(params, batch):
            seen.append(np.array(batch, copy=True))
            return forward(params, batch)

        def spy_backward(trace, params, labels, flags, alpha):
            targets.append((labels.tolist(), flags.tolist()))
            return backward(trace, params, labels, flags, alpha)

        def spy_resize(img, w, h):
            out = resize(img, w, h)
            resized.append((img, out))
            return out

        monkeypatch.setattr(model, "forward", spy_forward)
        monkeypatch.setattr(model, "backward", spy_backward)
        monkeypatch.setattr(model, "resize", spy_resize)
        train(samples, cfg, 11, occlusions if occluded else None)
        built = list(epochs)
        assert built == ([0, 1, 2] if occluded else [])
        want = replay_train_inputs(samples, cfg, 11, occlusions if occluded else None)
        assert len(seen) == len(targets) == len(want) == cfg.iterations
        for got, got_targets, (ref, labels, flags) in zip(seen, targets, want):
            # training runs in float32; v / 255 rounds to the same float32 either way
            assert got.dtype == np.float32 and got.shape == ref.shape
            assert np.array_equal(got, ref.astype(np.float32))
            assert got_targets == (labels.tolist(), flags.tolist())
        # each full-body sample is resized once, each epoch's occluded set once
        n = len(samples)
        assert len(resized) == n * (1 + len(built))
        # a sample already at resize_side is used as it is, not resampled
        kept = [img is out for img, out in resized]
        assert kept == [presized and i % 2 == 0 for i in range(n)] + [False] * (n * len(built))

    @pytest.mark.parametrize("jitter", [-2, 4])
    def test_jitter_outside_crop_margin_rejected(self, jitter):
        # -1 is the crop margin, 3 here; any other value outside [0, 3] is refused
        samples = generate_synthetic_dataset(2, 2, 16, 24, SplitMix64(2))
        with pytest.raises(ValueError, match="max_jitter"):
            cfg = TrainConfig(iterations=1, input_side=12, resize_side=18, max_jitter=jitter)
            train(samples, cfg, 0)


class TestFloat32Training:
    def test_steps_run_in_float32_and_return_float32_exact_float64(self, monkeypatch):
        import occreid.model as model

        samples, cfg = small_train_setup(5)
        seen = []

        def dtypes(arrays):
            return {a.dtype for a in arrays}

        def spy_forward(params, batch):
            seen.append(("forward", batch.dtype, dtypes(params.tensors.values())))
            return forward(params, batch)

        def spy_backward(trace, params, labels, flags, alpha):
            grads = backward(trace, params, labels, flags, alpha)
            seen.append(("backward", dtypes(params.tensors.values()), dtypes(grads.values())))
            return grads

        monkeypatch.setattr(model, "forward", spy_forward)
        monkeypatch.setattr(model, "backward", spy_backward)
        params, _ = train(samples, cfg, SEED)
        f32 = np.dtype(np.float32)
        assert seen == [("forward", f32, {f32}), ("backward", {f32}, {f32})] * cfg.iterations
        for name, arr in params.tensors.items():
            assert arr.dtype == np.float64 and np.array_equal(arr, arr.astype(np.float32)), name

    def test_loss_history_tracks_a_float64_reference_loop(self):
        # the same forward/backward/sgd_step in float64 over the replayed
        # batches, through eight epochs of regenerated occlusions; the
        # float32 run stays within 1e-5 of it (about 2e-7 measured)
        from occreid.occsim import OcclusionConfig, build_occlusion_set

        samples, cfg = small_train_setup(30)
        cfg = dataclasses.replace(cfg, max_jitter=cfg.arch.default_jitter)

        def occlusions(epoch):
            return build_occlusion_set(samples, OcclusionConfig(patch_side=6), epoch)[0]

        _, history = train(samples, cfg, SEED, occlusions)
        params = init_params(cfg.arch, 4, derive_seed(SEED, 0))
        reference = []
        replayed = replay_train_inputs(samples, cfg, SEED, occlusions)
        for it, (x, labels, flags) in enumerate(replayed):
            trace = forward(params, x)
            lp, lo = _mean_losses(trace, labels, flags)
            reference.append((it, multi_task_loss(lp, lo, cfg.alpha), lp, lo))
            grads = backward(trace, params, labels, flags, cfg.alpha)
            params = sgd_step(params, grads, cfg.learning_rate)
        assert params.tensors["id.w"].dtype == np.float64
        assert len(history) == len(reference) == 30
        assert [row[0] for row in history] == list(range(30))
        np.testing.assert_allclose(np.array(history), np.array(reference), rtol=0, atol=1e-5)


class TestFeatureExtraction:
    def test_length_and_consistency_with_trace(self):
        params = tiny_params()
        gen = np.random.Generator(np.random.PCG64(12))
        img = Image(gen.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        feats = extract_features(params, [img])
        assert feats.shape == (1, TINY.feature_dim)
        x = (img.pixels / 255.0).transpose(2, 0, 1)[None]
        assert np.array_equal(feats[0], forward(params, x).feature[0])
        assert np.array_equal(feats, extract_features(params, [img]))

    def test_batched_matches_single(self):
        params = tiny_params()
        gen = np.random.Generator(np.random.PCG64(13))
        # more images than one forward chunk, so the chunk boundary is crossed
        shape = (8, 8, 3)
        imgs = [Image(gen.integers(0, 256, shape, dtype=np.uint8)) for _ in range(FORWARD_CHUNK + 5)]
        stacked = extract_features(params, imgs)
        assert stacked.shape == (len(imgs), TINY.feature_dim)
        for i, im in enumerate(imgs):
            assert np.allclose(stacked[i], extract_features(params, [im])[0], atol=1e-12)

    def test_dims_must_match(self):
        params = tiny_params()
        with pytest.raises(ShapeMismatch):
            extract_features(params, [Image(np.zeros((4, 4, 3), dtype=np.uint8))])

    def test_array_and_image_list_give_identical_results(self):
        from occreid.saliency import saliency_maps

        params = tiny_params()
        gen = np.random.Generator(np.random.PCG64(14))
        pixels = gen.integers(0, 256, (FORWARD_CHUNK + 5, 8, 8, 3), dtype=np.uint8)
        images = [Image(p) for p in pixels]
        assert np.array_equal(extract_features(params, pixels), extract_features(params, images))
        by_array = np.concatenate(list(saliency_maps(params, pixels)))
        by_list = np.concatenate(list(saliency_maps(params, images)))
        assert len(by_array) == len(by_list) == len(images)
        for a, b in zip(by_array, by_list):
            assert np.array_equal(a, b)

    def test_preprocess_produces_network_input(self):
        arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        gen = np.random.Generator(np.random.PCG64(3))
        img = Image(gen.integers(0, 256, (40, 20, 3), dtype=np.uint8))
        out = preprocess_image(img, arch)
        assert (out.width, out.height) == (12, 12)


class TestPreprocessImages:
    ARCH = ArchSpec(input_side=12, resize_side=15, in_channels=3, convs=(ConvSpec(4, 3, 2),))

    @pytest.mark.parametrize("channels", [1, 3])
    def test_rows_match_resize_then_center_crop(self, channels):
        # sizes below, at and above resize_side, square and not
        arch = self.ARCH
        gen = np.random.Generator(np.random.PCG64(5))
        sizes = [(40, 20), (15, 15), (12, 12), (9, 30), (3, 2), (15, 40)]
        images = [Image(gen.integers(0, 256, (h, w, channels), dtype=np.uint8)) for h, w in sizes]
        batch = preprocess_images(images, arch)
        assert batch.shape == (len(images), 12, 12, channels) and batch.dtype == np.uint8
        for row, img in zip(batch, images):
            resized = resize(img, arch.resize_side, arch.resize_side)
            assert np.array_equal(row, train_crop(resized, arch.input_side))
            assert np.array_equal(row, preprocess_image(img, arch).pixels)

    def test_empty_and_mixed_channels(self):
        assert preprocess_images([], self.ARCH).shape == (0, 12, 12, 3)
        gray, color = Image(np.zeros((20, 10, 1), np.uint8)), Image(np.zeros((20, 10, 3), np.uint8))
        with pytest.raises(ShapeMismatch, match="channels"):
            preprocess_images([color, gray], self.ARCH)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        samples, cfg = small_train_setup(10)
        params, _ = train(samples, cfg, SEED)
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == params.arch
        assert loaded.num_classes == params.num_classes
        for (na, a), (nb, b) in zip(params.tensors.items(), loaded.tensors.items()):
            assert na == nb
            assert a.dtype == b.dtype == np.float64 and np.array_equal(a, b), na

    def test_resave_byte_identical(self, tmp_path):
        params = tiny_params(seed=8)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e39, -4e38])
    def test_non_finite_or_float32_overflow_rejected(self, tmp_path, value):
        params = tiny_params(seed=8)
        params.tensors["id.b"][1] = value
        path = tmp_path / "bad.bin"
        with pytest.raises(NonFiniteParameter, match="id.b"):
            save_checkpoint(params, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["conv0.w", "conv1.b", "obc.b"])
    def test_non_finite_tensor_rejected_on_load(self, tmp_path, name, value):
        params = tiny_params(seed=8)
        path = tmp_path / "bad.bin"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        sizes = [arr.size for arr in params.tensors.values()]
        names = list(params.tensors)
        pos = len(data) - 4 * sum(sizes) + 4 * sum(sizes[: names.index(name)])
        data[pos : pos + 4] = np.array([value], "<f4").tobytes()  # first value of the tensor
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptData, match=f"tensor {name}"):
            load_checkpoint(path)

    def test_float32_max_is_kept(self, tmp_path):
        params = tiny_params(seed=8)
        params.tensors["id.b"][1] = float(np.finfo(np.float32).max)
        path = tmp_path / "edge.bin"
        save_checkpoint(params, path)
        assert load_checkpoint(path).tensors["id.b"][1] == params.tensors["id.b"][1]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"NOTMAGIC" + bytes(64))
        with pytest.raises(UnsupportedFormat):
            load_checkpoint(p)

    def test_truncated(self, tmp_path):
        params = tiny_params()
        p = tmp_path / "t.bin"
        save_checkpoint(params, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) - 10])
        with pytest.raises(CorruptData):
            load_checkpoint(p)
