import numpy as np
import pytest

from occreid.errors import EmptySalientRegionWarning, ShapeMismatch
from occreid.imaging import Image, bilinear_resize_array
from occreid.model import FORWARD_CHUNK, ArchSpec, ConvSpec, ModelParams, forward, init_params
from occreid.saliency import binarize, detection_precision, saliency_maps

ARCH = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))


def random_images(n, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    return gen.integers(0, 256, (n, 12, 12, 3), dtype=np.uint8)


def all_maps(params, images):
    return np.concatenate(list(saliency_maps(params, images)))


def reference_map(maps, side):
    """One image's map from its (F, h, w) last maps, step by step."""
    upsampled = bilinear_resize_array(maps.mean(axis=0), side, side)
    lo, hi = upsampled.min(), upsampled.max()
    return np.zeros_like(upsampled) if hi == lo else (upsampled - lo) / (hi - lo)


def reference_binarize(values):
    flat = sorted(values.ravel().tolist())
    if flat[0] == flat[-1]:
        return np.zeros(values.shape, dtype=bool)
    threshold = flat[len(flat) // 2]
    return np.array([[v >= threshold for v in row] for row in values.tolist()])


def reference_precision(salient, body):
    total = sum(bool(s) for s in salient.ravel())
    hits = sum(bool(s) and bool(a) for s, a in zip(salient.ravel(), body.ravel()))
    return hits / total if total else 0.0


class TestMapFromFeatureMaps:
    """The channel mean, upsample and min-max steps of saliency_maps."""

    def test_constant_maps_normalize_to_zero(self):
        params = init_params(ARCH, 2, 3)
        zeros = np.zeros_like(params.tensors["conv0.w"])
        params = ModelParams(ARCH, {**params.tensors, "conv0.w": zeros})
        maps = all_maps(params, random_images(3, 1))
        assert maps.shape == (3, 12, 12)
        assert np.all(maps == 0.0)

    def test_channel_mean_before_upsampling(self):
        # every map equals the per-image formula applied to its own last maps
        params = init_params(ARCH, 2, 3)
        images = random_images(FORWARD_CHUNK + 5, 2)
        last = forward(params, images.transpose(0, 3, 1, 2) / 255).last_maps
        maps = all_maps(params, images)
        for got, feature_maps in zip(maps, last, strict=True):
            assert np.array_equal(got, reference_map(feature_maps, 12))

    def test_normalization_range(self):
        for got in all_maps(init_params(ARCH, 2, 3), random_images(5, 3)):
            assert got.min() == 0.0
            assert got.max() == 1.0

    def test_offset_invariance(self):
        # biases large enough that no last activation is clipped by the ReLU
        params = init_params(ARCH, 2, 3)
        t, b = params.tensors, params.tensors["conv0.b"]
        a = all_maps(ModelParams(ARCH, {**t, "conv0.b": b + 100.0}), random_images(4, 4))
        c = all_maps(ModelParams(ARCH, {**t, "conv0.b": b + 113.7}), random_images(4, 4))
        assert np.allclose(a, c, atol=1e-10)

    def test_bad_shape(self):
        with pytest.raises(ShapeMismatch):
            all_maps(init_params(ARCH, 2, 3), np.zeros((2, 10, 10, 3), dtype=np.uint8))


class TestSaliencyMapFromModel:
    def test_dims_and_range(self):
        params = init_params(ARCH, 2, 3)
        (smap,) = all_maps(params, [Image(random_images(1, 5)[0])])
        assert smap.shape == (12, 12)
        assert smap.min() >= 0.0 and smap.max() <= 1.0

    def test_one_array_per_forward_chunk(self):
        chunks = list(saliency_maps(init_params(ARCH, 2, 3), random_images(FORWARD_CHUNK + 5, 6)))
        assert [c.shape for c in chunks] == [(FORWARD_CHUNK, 12, 12), (5, 12, 12)]
        assert all(c.dtype == np.float64 for c in chunks)

    def test_to_image_is_single_channel(self):
        # run_saliency writes each map through Image.from_float
        (smap,) = all_maps(init_params(ARCH, 2, 3), random_images(1, 7))
        img = Image.from_float(smap)
        assert img.channels == 1 and (img.width, img.height) == (12, 12)


class TestBinarize:
    def test_half_split_map(self):
        values = np.zeros((4, 4))
        values[:, :2] = 1.0
        mask = binarize(values)
        assert mask.dtype == bool
        assert np.all(mask[:, :2])
        assert not np.any(mask[:, 2:])

    def test_constant_zero_map_gives_empty_mask(self):
        assert not np.any(binarize(np.zeros((3, 3))))

    def test_marked_count_for_distinct_values(self):
        # P distinct values -> ceil(P / 2) marked
        gen = np.random.Generator(np.random.PCG64(3))
        for rows, cols in ((6, 6), (5, 7)):
            p = rows * cols
            values = gen.permutation(np.linspace(0, 1, p)).reshape(rows, cols)
            assert int(binarize(values).sum()) == int(np.ceil(p / 2))

    def test_stack_matches_per_map_reference(self):
        # ties, a constant map and a map of one nonzero pixel among zeros
        gen = np.random.Generator(np.random.PCG64(7))
        stack = gen.integers(0, 5, (6, 5, 7)).astype(np.float64) / 4
        stack[2] = 0.5
        stack[4] = 0.0
        stack[4, 1, 3] = 1.0
        got = binarize(stack)
        assert got.shape == stack.shape and got.dtype == bool
        for g, values in zip(got, stack):
            assert np.array_equal(g, reference_binarize(values))
        assert not got[2].any()
        grid = binarize(stack.reshape(2, 3, 5, 7))
        assert np.array_equal(grid.reshape(stack.shape), got)


class TestDetectionPrecision:
    def test_subset_gives_one(self):
        salient = np.array([[1, 0], [0, 0]], dtype=bool)
        annotation = np.array([[1, 1], [1, 0]], dtype=bool)
        assert detection_precision(salient, annotation) == 1.0

    def test_half_overlap(self):
        salient = np.array([[1, 1, 0, 0]], dtype=bool)
        annotation = np.array([[1, 0, 1, 0]], dtype=bool)
        assert detection_precision(salient, annotation) == 0.5

    def test_pixel_count_oracle(self):
        gen = np.random.Generator(np.random.PCG64(4))
        s = gen.integers(0, 2, (8, 8)).astype(bool)
        a = gen.integers(0, 2, (8, 8)).astype(bool)
        s[0, 0] = True  # never empty
        expected = (s & a).sum() / s.sum()
        assert detection_precision(s, a) == pytest.approx(expected)

    def test_empty_salient_region_warns_and_returns_zero(self):
        salient = np.zeros((3, 3), dtype=bool)
        annotation = np.ones((3, 3), dtype=bool)
        with pytest.warns(EmptySalientRegionWarning):
            assert detection_precision(salient, annotation) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            detection_precision(np.ones((1, 1), bool), np.ones((1, 2), bool))

    def test_range(self):
        gen = np.random.Generator(np.random.PCG64(6))
        for _ in range(20):
            s = gen.integers(0, 2, (5, 5)).astype(bool)
            a = gen.integers(0, 2, (5, 5)).astype(bool)
            if not s.any():
                continue
            assert 0.0 <= detection_precision(s, a) <= 1.0

    def test_stack_matches_per_map_pixel_counts(self):
        gen = np.random.Generator(np.random.PCG64(8))
        salient = gen.integers(0, 2, (7, 6, 5)).astype(bool)
        body = gen.integers(0, 2, (7, 6, 5)).astype(bool)
        salient[3] = False  # an empty salient region scores 0
        with pytest.warns(EmptySalientRegionWarning):
            got = detection_precision(salient, body)
        assert got.shape == (7,)
        for g, s, a in zip(got, salient, body):
            assert g == reference_precision(s, a)
        assert got[3] == 0.0
        with pytest.warns(EmptySalientRegionWarning):
            grid = detection_precision(salient[:6].reshape(2, 3, 6, 5), body[:6].reshape(2, 3, 6, 5))
        assert np.array_equal(grid.ravel(), got[:6])

    def test_no_warning_without_an_empty_region(self, recwarn):
        salient = np.ones((2, 3, 3), dtype=bool)
        assert np.array_equal(detection_precision(salient, salient), [1.0, 1.0])
        assert not [w for w in recwarn if issubclass(w.category, EmptySalientRegionWarning)]
