import numpy as np
import pytest

from occreid.errors import DimMismatch, EmptySalientRegionWarning
from occreid.imaging import Image
from occreid.model import ArchSpec, ConvSpec, init_params
from occreid.saliency import (
    SaliencyMap,
    binarize,
    detection_precision,
    map_from_feature_maps,
    saliency_maps,
)


def mask_image(bools):
    arr = np.where(np.asarray(bools), 255, 0).astype(np.uint8)
    return Image(arr[:, :, None])


class TestMapFromFeatureMaps:
    def test_constant_maps_normalize_to_zero(self):
        maps = np.full((3, 4, 4), 2.5)
        smap = map_from_feature_maps(maps, 8)
        assert smap.values.shape == (8, 8)
        assert np.all(smap.values == 0.0)

    def test_channel_mean_before_upsampling(self):
        # two 2x2 maps; cell (0,0) holds 2 in one map and 0 in the other,
        # mean map is [[1, 0], [0, 0]] and the peak must stay at the corner
        maps = np.zeros((2, 2, 2))
        maps[0, 0, 0] = 2.0
        smap = map_from_feature_maps(maps, 4)
        mean_map = maps.mean(axis=0)
        assert mean_map[0, 0] == 1.0 and mean_map.sum() == 1.0
        assert smap.values[0, 0] == 1.0  # normalized peak
        assert smap.values[3, 3] == 0.0

    def test_normalization_range(self):
        gen = np.random.Generator(np.random.PCG64(1))
        maps = gen.normal(0, 3, (5, 3, 3))
        smap = map_from_feature_maps(maps, 6)
        assert smap.values.min() == 0.0
        assert smap.values.max() == 1.0

    def test_offset_invariance(self):
        gen = np.random.Generator(np.random.PCG64(2))
        maps = gen.normal(0, 1, (4, 3, 3))
        a = map_from_feature_maps(maps, 6)
        b = map_from_feature_maps(maps + 13.7, 6)
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_bad_shape(self):
        with pytest.raises(DimMismatch):
            map_from_feature_maps(np.zeros((3, 3)), 6)


class TestSaliencyMapFromModel:
    def test_dims_and_range(self):
        arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        params = init_params(arch, 2, 3)
        gen = np.random.Generator(np.random.PCG64(5))
        img = Image(gen.integers(0, 256, (12, 12, 3), dtype=np.uint8))
        (smap,) = saliency_maps(params, [img])
        assert smap.values.shape == (12, 12)
        assert smap.values.min() >= 0.0 and smap.values.max() <= 1.0

    def test_to_image_is_single_channel(self):
        smap = SaliencyMap(np.linspace(0, 1, 16).reshape(4, 4))
        img = smap.to_image()
        assert img.channels == 1 and (img.width, img.height) == (4, 4)


class TestBinarize:
    def test_small_quantile_marks_everything(self):
        smap = SaliencyMap(np.linspace(0, 1, 25).reshape(5, 5))
        mask = binarize(smap, 1e-9)
        assert np.all(mask.pixels == 255)

    def test_half_split_map(self):
        values = np.zeros((4, 4))
        values[:, :2] = 1.0
        mask = binarize(SaliencyMap(values), 0.5)
        assert np.all(mask.pixels[:, :2] == 255)
        assert np.all(mask.pixels[:, 2:] == 0)

    def test_constant_zero_map_gives_empty_mask(self):
        mask = binarize(SaliencyMap(np.zeros((3, 3))), 0.5)
        assert np.all(mask.pixels == 0)

    def test_marked_count_for_distinct_values(self):
        # P distinct values -> ceil((1 - q) * P) marked
        gen = np.random.Generator(np.random.PCG64(3))
        values = gen.permutation(np.linspace(0, 1, 36)).reshape(6, 6)
        for q in (0.25, 0.5, 0.9):
            marked = int((binarize(SaliencyMap(values), q).pixels > 0).sum())
            assert marked == int(np.ceil((1 - q) * 36))

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            binarize(SaliencyMap(np.zeros((2, 2))), 0.0)
        with pytest.raises(ValueError):
            binarize(SaliencyMap(np.zeros((2, 2))), 1.0)


class TestDetectionPrecision:
    def test_subset_gives_one(self):
        salient = mask_image([[1, 0], [0, 0]])
        annotation = mask_image([[1, 1], [1, 0]])
        assert detection_precision(salient, annotation) == 1.0

    def test_half_overlap(self):
        salient = mask_image([[1, 1, 0, 0]])
        annotation = mask_image([[1, 0, 1, 0]])
        assert detection_precision(salient, annotation) == 0.5

    def test_pixel_count_oracle(self):
        gen = np.random.Generator(np.random.PCG64(4))
        s = gen.integers(0, 2, (8, 8)).astype(bool)
        a = gen.integers(0, 2, (8, 8)).astype(bool)
        s[0, 0] = True  # never empty
        expected = (s & a).sum() / s.sum()
        assert detection_precision(mask_image(s), mask_image(a)) == pytest.approx(expected)

    def test_empty_salient_region_warns_and_returns_zero(self):
        salient = mask_image(np.zeros((3, 3), dtype=bool))
        annotation = mask_image(np.ones((3, 3), dtype=bool))
        with pytest.warns(EmptySalientRegionWarning):
            assert detection_precision(salient, annotation) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            detection_precision(mask_image([[1]]), mask_image([[1, 0]]))

    def test_range(self):
        gen = np.random.Generator(np.random.PCG64(6))
        for _ in range(20):
            s = gen.integers(0, 2, (5, 5)).astype(bool)
            a = gen.integers(0, 2, (5, 5)).astype(bool)
            if not s.any():
                continue
            assert 0.0 <= detection_precision(mask_image(s), mask_image(a)) <= 1.0
