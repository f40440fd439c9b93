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
from occreid.imaging import Image, jittered_center_crop, resize
from occreid.model import (
    FORWARD_CHUNK,
    ArchSpec,
    ConvSpec,
    TrainConfig,
    _mean_losses,
    _params_from_dict,
    backward,
    extract_features,
    forward,
    id_loss,
    init_params,
    load_checkpoint,
    multi_task_loss,
    obc_loss,
    preprocess_image,
    save_checkpoint,
    sgd_step,
    to_checkpoint_precision,
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
        zeros = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        params0 = _params_from_dict(TINY, zeros)
        trace = forward(params0, rand_batch(2))
        assert np.allclose(trace.id_logits, 0.0)
        assert id_loss(trace.id_logits[0], 0) == pytest.approx(math.log(3))

    def test_single_conv_matches_direct_convolution(self):
        arch = ArchSpec(input_side=8, resize_side=8, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        params = init_params(arch, 2, 5)
        x = rand_batch(1, seed=3)
        trace = forward(params, x)
        expected = conv_oracle(x[0], params.conv_w[0], params.conv_b[0], 2, 1)
        assert np.allclose(trace.preacts[0][0], expected, atol=1e-12)
        assert np.allclose(trace.acts[0][0], np.maximum(expected, 0.0), atol=1e-12)

    def test_stride_one_kernel_one(self):
        arch = ArchSpec(input_side=4, resize_side=4, in_channels=1, convs=(ConvSpec(2, 1, 1),))
        params = init_params(arch, 2, 1)
        gen = np.random.Generator(np.random.PCG64(0))
        x = gen.uniform(0, 1, (1, 1, 4, 4))
        trace = forward(params, x)
        expected = conv_oracle(x[0], params.conv_w[0], params.conv_b[0], 1, 0)
        assert np.allclose(trace.preacts[0][0], expected, atol=1e-12)

    def test_shape_mismatch(self):
        params = tiny_params()
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((1, 3, 7, 7)))
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((1, 1, 8, 8)))

    def test_deterministic(self):
        params = tiny_params()
        x = rand_batch(2)
        a = forward(params, x)
        b = forward(params, x)
        assert np.array_equal(a.feature, b.feature)


class TestLosses:
    def test_id_loss_uniform(self):
        assert id_loss(np.zeros(4), 2) == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_id_loss_saturated(self):
        assert id_loss(np.array([1000.0, 0.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-9)

    def test_id_loss_log_sum_exp_oracle(self):
        # -log softmax([1,2,3])[1] = log(e + e^2 + e^3) - 2, frozen below
        val = id_loss(np.array([1.0, 2.0, 3.0]), 1)
        assert val == pytest.approx(1.4076059644443801, abs=1e-12)
        assert val == pytest.approx(
            math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 2.0, abs=1e-12
        )

    def test_id_loss_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            id_loss(np.zeros(3), 3)
        with pytest.raises(LabelOutOfRange):
            id_loss(np.zeros(3), -1)

    def test_id_loss_positive_unless_point_mass(self):
        gen = np.random.Generator(np.random.PCG64(4))
        for _ in range(50):
            logits = gen.normal(0, 3, 5)
            assert id_loss(logits, int(gen.integers(0, 5))) > 0.0

    def test_obc_loss_uniform(self):
        assert obc_loss(np.zeros(2), 0) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_obc_loss_oracle(self):
        # -log softmax([0.5, -0.5])[0] = log(1 + e^-1), frozen below
        val = obc_loss(np.array([0.5, -0.5]), 0)
        assert val == pytest.approx(0.31326168751822286, abs=1e-12)
        assert val == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-12)

    def test_obc_flag_validation(self):
        with pytest.raises(ValueError):
            obc_loss(np.zeros(2), 2)
        with pytest.raises(ShapeMismatch):
            obc_loss(np.zeros(3), 0)

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
    for name, arr in params.tensors():
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            plus = {k: v.copy() for k, v in dict(params.tensors()).items()}
            plus[name].reshape(-1)[i] += eps
            minus = {k: v.copy() for k, v in dict(params.tensors()).items()}
            minus[name].reshape(-1)[i] -= eps
            gflat[i] = (
                loss_at(_params_from_dict(arch, plus)) - loss_at(_params_from_dict(arch, minus))
            ) / (2 * eps)
        grads[name] = g
    return grads


def shift_biases(arch, params, seed):
    """Random conv biases keep preactivations away from the ReLU kink,
    where a finite difference would straddle the nondifferentiable point."""
    gen = np.random.Generator(np.random.PCG64(seed))
    tensors = {k: v.copy() for k, v in params.tensors()}
    for k in tensors:
        if k.startswith("conv") and k.endswith(".b"):
            tensors[k] = gen.uniform(-0.6, 0.6, tensors[k].shape)
    return _params_from_dict(arch, tensors)


class TestBackward:
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
        grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        updated = sgd_step(params, grads, 0.5)
        for (_, a), (_, b) in zip(params.tensors(), updated.tensors()):
            assert np.array_equal(a, b)

    def test_zero_learning_rate(self):
        params = tiny_params()
        grads = {name: np.ones_like(arr) for name, arr in params.tensors()}
        updated = sgd_step(params, grads, 0.0)
        for (_, a), (_, b) in zip(params.tensors(), updated.tensors()):
            assert np.array_equal(a, b)

    def test_elementwise_update_rule(self):
        # the scalar case p=1, g=2, lr=0.1 -> 0.8, applied across a tensor
        params = tiny_params()
        grads = {name: np.full_like(arr, 2.0) for name, arr in params.tensors()}
        updated = sgd_step(params, grads, 0.1)
        for (_, a), (_, b) in zip(params.tensors(), updated.tensors()):
            assert np.allclose(b, a - 0.2, atol=1e-15)

    def test_non_finite_gradient(self):
        params = tiny_params()
        grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        grads["id.w"][0, 0] = np.nan
        with pytest.raises(NonFiniteGradient):
            sgd_step(params, grads, 0.1)


class TestTrainConfig:
    def test_alpha_default(self):
        assert TrainConfig().alpha == 0.8

    def test_alpha_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=1.5)

    def test_alpha_boundary_warns(self):
        with pytest.warns(UserWarning):
            TrainConfig(alpha=1.0)
        with pytest.warns(UserWarning):
            TrainConfig(alpha=0.0)


def small_train_setup(iterations, seed=3, alpha=0.8, ids=4):
    samples = generate_synthetic_dataset(ids, 4, 16, 24, SplitMix64(2))
    arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2), ConvSpec(8, 3, 2)))
    cfg = TrainConfig(
        alpha=alpha,
        learning_rate=0.02,
        batch_size=8,
        iterations=iterations,
        seed=seed,
        arch=arch,
    )
    return samples, cfg


class TestTrain:
    def test_loss_decreases_on_toy_run(self):
        samples, cfg = small_train_setup(200)
        _, history = train(samples, cfg)
        first = np.mean([h[1] for h in history[:10]])
        last = np.mean([h[1] for h in history[-10:]])
        assert last < first

    def test_history_length_and_decomposition(self):
        samples, cfg = small_train_setup(50)
        _, history = train(samples, cfg)
        assert len(history) == 50
        for _, total, lp, lo in history:
            assert total == cfg.alpha * lp + (1.0 - cfg.alpha) * lo

    def test_deterministic_end_to_end(self):
        samples, cfg = small_train_setup(40)
        pa, ha = train(samples, cfg)
        pb, hb = train(samples, cfg)
        assert ha == hb
        for (_, a), (_, b) in zip(pa.tensors(), pb.tensors()):
            assert np.array_equal(a, b)

    def test_alpha_one_keeps_obc_head_bit_identical(self):
        samples, cfg = small_train_setup(30)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg1 = TrainConfig(
                alpha=1.0,
                learning_rate=cfg.learning_rate,
                batch_size=cfg.batch_size,
                iterations=30,
                seed=cfg.seed,
                arch=cfg.arch,
            )
        from occreid.rng import derive_seed

        initial = init_params(cfg.arch, 4, derive_seed(cfg1.seed, 0))
        final, _ = train(samples, cfg1)
        assert np.array_equal(initial.obc_w, final.obc_w)
        assert np.array_equal(initial.obc_b, final.obc_b)
        assert not np.array_equal(initial.id_w, final.id_w)

    def test_alpha_zero_keeps_id_head_bit_identical(self):
        samples, cfg = small_train_setup(30)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg0 = TrainConfig(
                alpha=0.0,
                learning_rate=cfg.learning_rate,
                batch_size=cfg.batch_size,
                iterations=30,
                seed=cfg.seed,
                arch=cfg.arch,
            )
        from occreid.rng import derive_seed

        initial = init_params(cfg.arch, 4, derive_seed(cfg0.seed, 0))
        final, _ = train(samples, cfg0)
        assert np.array_equal(initial.id_w, final.id_w)
        assert np.array_equal(initial.id_b, final.id_b)
        assert not np.array_equal(initial.obc_w, final.obc_w)

    def test_empty_set_rejected(self):
        _, cfg = small_train_setup(5)
        with pytest.raises(ValueError):
            train([], cfg)

    def test_continuation_matches_class_count(self):
        samples, cfg = small_train_setup(5)
        params, _ = train(samples, cfg)
        other = generate_synthetic_dataset(3, 4, 16, 24, SplitMix64(4))
        with pytest.raises(ShapeMismatch):
            train(other, cfg, params=params)


def replay_train_inputs(samples, cfg, start_iteration=0):
    """The network inputs train should build, rebuilt from the replayed order
    and jitter streams with jittered_center_crop on resized Images."""
    arch = cfg.arch
    order_rng = SplitMix64(derive_seed(derive_seed(cfg.seed, 1), start_iteration))
    jitter_rng = SplitMix64(derive_seed(derive_seed(cfg.seed, 2), start_iteration))
    resized = [resize(s.image, arch.resize_side, arch.resize_side) for s in samples]
    queue, inputs = [], []
    for _ in range(cfg.iterations):
        while len(queue) < cfg.batch_size:
            block = list(range(len(samples)))
            order_rng.shuffle(block)
            queue.extend(block)
        batch, queue = queue[: cfg.batch_size], queue[cfg.batch_size :]
        crops = [
            jittered_center_crop(resized[i], arch.input_side, cfg.max_jitter, jitter_rng)
            for i in batch
        ]
        inputs.append(np.stack([im.to_float().transpose(2, 0, 1) for im in crops]))
    return inputs


class TestTrainBatchAssembly:
    @pytest.mark.parametrize(
        "jitter, cached, start", [(3, False, 0), (3, True, 7), (0, False, 0), (0, True, 2)]
    )
    def test_forward_inputs_match_image_crops(self, monkeypatch, jitter, cached, start):
        import occreid.model as model

        samples = generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(2))
        arch = ArchSpec(input_side=12, resize_side=18, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        cfg = TrainConfig(batch_size=6, iterations=7, seed=11, arch=arch, max_jitter=jitter)
        cache = None
        if cached:
            cache = {s.id: resize(s.image, arch.resize_side, arch.resize_side) for s in samples[::2]}
        seen, resized = [], []

        def spy_forward(params, batch):
            seen.append(np.array(batch, copy=True))
            return forward(params, batch)

        def spy_resize(img, w, h):
            resized.append(img)
            return resize(img, w, h)

        monkeypatch.setattr(model, "forward", spy_forward)
        monkeypatch.setattr(model, "resize", spy_resize)
        train(samples, cfg, start_iteration=start, resize_cache=cache)
        want = replay_train_inputs(samples, cfg, start)
        assert len(seen) == len(want) == cfg.iterations
        for got, ref in zip(seen, want):
            assert got.shape == ref.shape and np.array_equal(got, ref)
        assert len(resized) == len(samples) - len(cache or {})

    @pytest.mark.parametrize("jitter", [-1, 4])
    def test_jitter_outside_crop_margin_rejected(self, jitter):
        samples = generate_synthetic_dataset(2, 2, 16, 24, SplitMix64(2))
        arch = ArchSpec(input_side=12, resize_side=18, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        with pytest.raises(ValueError, match="max_jitter"):
            train(samples, TrainConfig(iterations=1, arch=arch, max_jitter=jitter))


class TestFeatureExtraction:
    def test_length_and_consistency_with_trace(self):
        params = tiny_params()
        gen = np.random.Generator(np.random.PCG64(12))
        img = Image(gen.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        feats = extract_features(params, [img])
        assert feats.shape == (1, TINY.feature_dim)
        x = img.to_float().transpose(2, 0, 1)[None]
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

    def test_preprocess_produces_network_input(self):
        arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        gen = np.random.Generator(np.random.PCG64(3))
        img = Image(gen.integers(0, 256, (40, 20, 3), dtype=np.uint8))
        out = preprocess_image(img, arch)
        assert (out.width, out.height) == (12, 12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        samples, cfg = small_train_setup(10)
        params, _ = train(samples, cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == params.arch
        assert loaded.num_classes == params.num_classes
        for (na, a), (nb, b) in zip(params.tensors(), loaded.tensors()):
            assert na == nb
            assert np.array_equal(a.astype(np.float32), b.astype(np.float32))

    def test_resave_byte_identical(self, tmp_path):
        params = tiny_params(seed=8)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e39, -4e38])
    def test_non_finite_or_float32_overflow_rejected(self, tmp_path, value):
        params = tiny_params(seed=8)
        params.id_b[1] = value
        path = tmp_path / "bad.bin"
        with pytest.raises(NonFiniteParameter, match="id.b"):
            save_checkpoint(params, path)
        assert not path.exists()
        with pytest.raises(NonFiniteParameter, match="id.b"):
            to_checkpoint_precision(params)

    def test_float32_max_is_kept(self, tmp_path):
        params = tiny_params(seed=8)
        params.id_b[1] = float(np.finfo(np.float32).max)
        path = tmp_path / "edge.bin"
        save_checkpoint(params, path)
        assert load_checkpoint(path).id_b[1] == params.id_b[1]
        assert to_checkpoint_precision(params).id_b[1] == params.id_b[1]

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
