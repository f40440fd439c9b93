import numpy as np
import pytest

from occreid.dataset import Occlusion, generate_synthetic_dataset
from occreid.errors import InfeasibleGeometry
from occreid.imaging import Image, resize
from occreid.occsim import (
    OcclusionConfig,
    build_occlusion_set,
    check_target_fits,
    sample_occluded_rect,
    simulate_occlusion,
)
from occreid.rng import SplitMix64, derive_seed


def noise_image(w, h, seed=0):
    gen = np.random.Generator(np.random.PCG64(seed))
    return Image(gen.integers(0, 256, (h, w, 3), dtype=np.uint8))


def area_tolerance(rect, total):
    # one pixel of rounding per rectangle side
    return (rect.w + rect.h + 1) / total


class TestConfig:
    def test_ratio_bounds_enforced(self):
        with pytest.raises(ValueError):
            OcclusionConfig(patch_side=8, ratio_lo=1.0, ratio_hi=1.0)
        with pytest.raises(ValueError):
            OcclusionConfig(patch_side=8, ratio_lo=0.0, ratio_hi=0.3)
        with pytest.raises(ValueError):
            OcclusionConfig(patch_side=8, ratio_lo=0.4, ratio_hi=0.2)

    def test_other_invariants(self):
        with pytest.raises(ValueError):
            OcclusionConfig(patch_side=0)
        with pytest.raises(ValueError):
            OcclusionConfig(patch_side=8, aspect_lo=0.0)
        with pytest.raises(ValueError):
            OcclusionConfig(patch_side=8, background_band=0.0)


class TestSampleOccludedRect:
    def test_area_within_band_over_many_draws(self):
        cfg = OcclusionConfig(patch_side=8, ratio_lo=0.1, ratio_hi=0.3)
        rng = SplitMix64(7)
        total = 64 * 32
        for _ in range(2000):
            r = sample_occluded_rect(64, 32, cfg, rng)
            eps = area_tolerance(r, total)
            assert 0.1 - eps <= r.area / total <= 0.3 + eps
            assert r.x + r.w <= 64 and r.y + r.h <= 32

    def test_square_when_aspect_pinned(self):
        cfg = OcclusionConfig(patch_side=8, aspect_lo=1.0, aspect_hi=1.0)
        rng = SplitMix64(3)
        for _ in range(200):
            r = sample_occluded_rect(64, 32, cfg, rng)
            assert r.w == r.h

    def test_aspect_within_band_up_to_rounding(self):
        cfg = OcclusionConfig(patch_side=8, ratio_lo=0.2, ratio_hi=0.3)
        rng = SplitMix64(5)
        for _ in range(500):
            r = sample_occluded_rect(64, 64, cfg, rng)
            assert 0.5 * 0.75 <= r.w / r.h <= 2.0 * 1.25

    def test_position_covers_the_image(self):
        cfg = OcclusionConfig(patch_side=8, ratio_lo=0.1, ratio_hi=0.11)
        rng = SplitMix64(11)
        xs, ys = set(), set()
        for _ in range(800):
            r = sample_occluded_rect(64, 32, cfg, rng)
            xs.add(r.x)
            ys.add(r.y)
        assert min(xs) == 0 and max(xs) > 40
        assert min(ys) == 0 and max(ys) > 15

    def test_infeasible_aspect(self):
        cfg = OcclusionConfig(patch_side=8, ratio_lo=0.8, ratio_hi=0.9, aspect_lo=8.0, aspect_hi=8.0)
        with pytest.raises(InfeasibleGeometry):
            sample_occluded_rect(64, 32, cfg, SplitMix64(0))


class TestCheckTargetFits:
    @pytest.mark.parametrize("w, h", [(16, 24), (32, 64), (64, 32)])
    def test_agrees_with_the_sampler_on_one_area_and_aspect(self, w, h):
        # pinned area and aspect: the sampler draws exactly the rectangle
        # the check rounds, so it fits exactly when the check passes
        for ratio in (0.05, 0.1, 0.3, 0.6, 0.9):
            for aspect in (0.05, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 20.0):
                cfg = OcclusionConfig(8, ratio, ratio, aspect, aspect)
                try:
                    check_target_fits(cfg, w, h)
                    fits = True
                except InfeasibleGeometry:
                    fits = False
                try:
                    sample_occluded_rect(w, h, cfg, SplitMix64(0))
                    drawn = True
                except InfeasibleGeometry:
                    drawn = False
                assert fits == drawn, (ratio, aspect)


class TestBackgroundPatch:
    def test_band_quarter_forces_top_row(self):
        # 32 px tall, band 0.25 -> 8 px band; an 8 px patch can only sit at y=0
        img = noise_image(64, 32)
        cfg = OcclusionConfig(patch_side=8, background_band=0.25)
        for i in range(100):
            _, rec = simulate_occlusion(img, cfg, SplitMix64(i))
            assert (rec.patch_rect.w, rec.patch_rect.h) == (8, 8)
            assert rec.patch_rect.y == 0

    def test_full_band_reaches_lower_rows(self):
        img = noise_image(64, 32)
        cfg = OcclusionConfig(patch_side=8, background_band=1.0)
        ys = {simulate_occlusion(img, cfg, SplitMix64(i))[1].patch_rect.y for i in range(200)}
        assert max(ys) > 8

    def test_patch_taller_than_image(self):
        img = noise_image(64, 32)
        cfg = OcclusionConfig(patch_side=33, background_band=1.0)
        with pytest.raises(InfeasibleGeometry, match="patch_side 33"):
            simulate_occlusion(img, cfg, SplitMix64(0))


class TestSimulateOcclusion:
    def test_outside_target_bit_identical(self):
        img = noise_image(64, 32, seed=5)
        cfg = OcclusionConfig(patch_side=8)
        for i in range(50):
            out, rec = simulate_occlusion(img, cfg, SplitMix64(i))
            t = rec.target_rect
            mask = np.ones((32, 64), dtype=bool)
            mask[t.y : t.y + t.h, t.x : t.x + t.w] = False
            assert np.array_equal(out.pixels[mask], img.pixels[mask])

    def test_area_ratio_matches_pixel_count(self):
        img = noise_image(64, 32, seed=6)
        cfg = OcclusionConfig(patch_side=8, ratio_lo=0.1, ratio_hi=0.3)
        for i in range(50):
            out, rec = simulate_occlusion(img, cfg, SplitMix64(i))
            t = rec.target_rect
            assert rec.area_ratio == t.area / (64 * 32)
            eps = area_tolerance(t, 64 * 32)
            assert 0.1 - eps <= rec.area_ratio <= 0.3 + eps

    def test_pasted_region_replayable_from_record(self):
        img = noise_image(64, 32, seed=7)
        cfg = OcclusionConfig(patch_side=8)
        out, rec = simulate_occlusion(img, cfg, SplitMix64(42))
        p, t = rec.patch_rect, rec.target_rect
        replay = resize(Image(img.pixels[p.y : p.y + p.h, p.x : p.x + p.w]), t.w, t.h)
        assert np.array_equal(out.pixels[t.y : t.y + t.h, t.x : t.x + t.w], replay.pixels)

    def test_deterministic(self):
        img = noise_image(64, 32, seed=8)
        cfg = OcclusionConfig(patch_side=8)
        a, rec_a = simulate_occlusion(img, cfg, SplitMix64(9))
        b, rec_b = simulate_occlusion(img, cfg, SplitMix64(9))
        assert a == b and rec_a == rec_b


@pytest.fixture(scope="module")
def source():
    return generate_synthetic_dataset(5, 2, 32, 64, SplitMix64(1))


class TestBuildOcclusionSet:
    def test_cardinality_and_labels(self, source):
        cfg = OcclusionConfig(patch_side=16, seed=4)
        z, records = build_occlusion_set(source, cfg)
        assert len(z) == len(source) == len(records)
        assert [s.identity for s in z] == [s.identity for s in source]
        assert all(s.occlusion is Occlusion.ARTIFICIAL for s in z)
        # label histogram preserved
        hist = lambda ss: {i: sum(1 for s in ss if s.identity == i) for i in range(1, 6)}
        assert hist(z) == hist(source)

    def test_empty_input(self):
        z, records = build_occlusion_set([], OcclusionConfig(patch_side=8, seed=0))
        assert z == [] and records == []

    def test_per_sample_seed_derivation(self, source):
        cfg = OcclusionConfig(patch_side=16, seed=4)
        z, _ = build_occlusion_set(source, cfg)
        redo, rec = [], None
        for i, s in enumerate(source):
            img, rec = __import__("occreid.occsim", fromlist=["simulate_occlusion"]).simulate_occlusion(
                s.image, cfg, SplitMix64(derive_seed(cfg.seed, i)), s.id
            )
            redo.append(img)
        assert all(a.image == b for a, b in zip(z, redo))

    def test_deterministic_across_calls(self, source):
        cfg = OcclusionConfig(patch_side=16, seed=77)
        z1, r1 = build_occlusion_set(source, cfg)
        z2, r2 = build_occlusion_set(source, cfg)
        assert all(a.image == b.image for a, b in zip(z1, z2))
        assert r1 == r2

    def test_error_carries_sample_id(self, source):
        cfg = OcclusionConfig(patch_side=60, seed=0)  # cannot fit the band
        with pytest.raises(InfeasibleGeometry, match=source[0].id):
            build_occlusion_set(source, cfg)

    def test_every_sample_traceable_by_id(self):
        x = generate_synthetic_dataset(3, 2, 16, 32, SplitMix64(3))
        z, _ = build_occlusion_set(x, OcclusionConfig(patch_side=8, seed=1))
        ids = [s.id for s in x + z]
        assert len(set(ids)) == len(ids)
        x_ids, z_ids = {s.id for s in x}, {s.id for s in z}
        for sid in ids:
            assert (sid in x_ids) != (sid in z_ids)
