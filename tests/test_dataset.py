import numpy as np
import pytest

from occreid import dataset
from occreid.dataset import (
    Occlusion,
    generate_synthetic_dataset,
    make_probe_gallery,
    scan_dataset,
    split_identities,
)
from occreid.errors import (
    InsufficientShots,
    MissingBranch,
    OccReidError,
    TooFewIdentities,
    UnparsableIdentity,
)
from occreid.imaging import Image, save_image
from occreid.rng import SplitMix64


def write_tree(root, identities, occluded=5, whole=5, size=(8, 12)):
    gen = np.random.Generator(np.random.PCG64(0))
    w, h = size
    for ident in identities:
        for branch, count in (("occluded", occluded), ("whole", whole)):
            d = root / branch / ident
            d.mkdir(parents=True, exist_ok=True)
            for j in range(count):
                img = Image(gen.integers(0, 256, (h, w, 3), dtype=np.uint8))
                save_image(img, d / f"img{j}.ppm")


class TestScan:
    def test_counts_and_flags(self, tmp_path):
        write_tree(tmp_path, ["001", "002"])
        samples = scan_dataset(tmp_path)
        assert len(samples) == 20
        assert {s.identity for s in samples} == {1, 2}
        occluded = [s for s in samples if s.occlusion is Occlusion.REAL]
        whole = [s for s in samples if s.occlusion is Occlusion.FULL_BODY]
        assert len(occluded) == len(whole) == 10

    def test_empty_root(self, tmp_path):
        with pytest.raises(MissingBranch):
            scan_dataset(tmp_path)

    def test_missing_whole_branch(self, tmp_path):
        (tmp_path / "occluded").mkdir()
        with pytest.raises(MissingBranch, match="whole"):
            scan_dataset(tmp_path)

    def test_leading_zero_identity(self, tmp_path):
        write_tree(tmp_path, ["007", "010"], occluded=1, whole=1)
        samples = scan_dataset(tmp_path)
        assert {s.identity for s in samples} == {7, 10}

    def test_unparsable_identity(self, tmp_path):
        write_tree(tmp_path, ["001"], occluded=1, whole=1)
        (tmp_path / "whole" / "personA").mkdir()
        with pytest.raises(UnparsableIdentity):
            scan_dataset(tmp_path)

    @pytest.mark.parametrize("data", [b"P6", b"P7\n8 12\n255\n", b"P6\n8 12\n255\n\0"])
    def test_bad_file_named_once(self, tmp_path, data):
        write_tree(tmp_path, ["001"], occluded=1, whole=1)
        bad = tmp_path / "whole" / "001" / "img0.ppm"
        bad.write_bytes(data)
        with pytest.raises(OccReidError) as info:
            scan_dataset(tmp_path)
        assert str(info.value).count("img0.ppm") == 1
        assert str(info.value).startswith(str(bad))

    def test_stable_ordering_and_rescan(self, tmp_path):
        write_tree(tmp_path, ["002", "001"], occluded=2, whole=2)
        first = scan_dataset(tmp_path)
        second = scan_dataset(tmp_path)
        assert [s.id for s in first] == sorted(s.id for s in first)
        assert [(s.id, s.identity, s.occlusion) for s in first] == [
            (s.id, s.identity, s.occlusion) for s in second
        ]

    def test_mask_files_skipped(self, tmp_path):
        write_tree(tmp_path, ["001"], occluded=1, whole=1)
        mask = Image(np.zeros((12, 8, 1), dtype=np.uint8))
        save_image(mask, tmp_path / "occluded" / "001" / "img0.mask.pgm")
        samples = scan_dataset(tmp_path)
        assert len(samples) == 2
        assert not any("mask" in s.id for s in samples)

    def test_obc_target_convention(self, tmp_path):
        write_tree(tmp_path, ["001"], occluded=1, whole=1)
        samples = scan_dataset(tmp_path)
        by_flag = {s.occlusion: s for s in samples}
        assert by_flag[Occlusion.FULL_BODY].occlusion.obc_target == 1
        assert by_flag[Occlusion.REAL].occlusion.obc_target == 0
        assert Occlusion.ARTIFICIAL.obc_target == 0


class TestSplit:
    @staticmethod
    def fake_samples(m, per=2):
        samples = generate_synthetic_dataset(m, per, 8, 16, SplitMix64(0))
        return samples

    def test_even_half_split(self):
        samples = self.fake_samples(200, per=2)
        split = split_identities(samples, 0.5, SplitMix64(1))
        assert len(split.train_identities) == len(split.test_identities) == 100

    def test_odd_rounds_half_up(self):
        samples = self.fake_samples(3)
        split = split_identities(samples, 0.5, SplitMix64(1))
        assert len(split.train_identities) == 2
        assert len(split.test_identities) == 1

    def test_same_seed_same_split(self):
        samples = self.fake_samples(10)
        a = split_identities(samples, 0.5, SplitMix64(9))
        b = split_identities(samples, 0.5, SplitMix64(9))
        assert a == b

    def test_disjoint_and_exhaustive_for_any_seed(self):
        samples = self.fake_samples(7)
        all_ids = {s.identity for s in samples}
        for seed in range(30):
            split = split_identities(samples, 0.4, SplitMix64(seed))
            assert not split.train_identities & split.test_identities
            assert split.train_identities | split.test_identities == all_ids

    def test_too_few_identities(self):
        samples = self.fake_samples(2)
        only_one = [s for s in samples if s.identity == 1]
        with pytest.raises(TooFewIdentities):
            split_identities(only_one, 0.5, SplitMix64(0))

    def test_fraction_validation(self):
        samples = self.fake_samples(4)
        with pytest.raises(ValueError):
            split_identities(samples, 0.0, SplitMix64(0))
        with pytest.raises(ValueError):
            split_identities(samples, 1.0, SplitMix64(0))


class TestProbeGallery:
    @staticmethod
    def tree_samples(tmp_path, identities=("001", "002", "003"), occluded=2, whole=5):
        write_tree(tmp_path, list(identities), occluded=occluded, whole=whole)
        return scan_dataset(tmp_path)

    def test_single_shot(self, tmp_path):
        samples = self.tree_samples(tmp_path)
        pg = make_probe_gallery(samples, 1, SplitMix64(0))
        assert pg.shots == 1
        assert all(len(v) == 1 for v in pg.gallery.values())
        assert set(pg.gallery) == {1, 2, 3}

    def test_five_shot_uses_all(self, tmp_path):
        samples = self.tree_samples(tmp_path)
        pg = make_probe_gallery(samples, 5, SplitMix64(0))
        for ident, members in pg.gallery.items():
            assert len(members) == 5
            assert len({m.id for m in members}) == 5

    def test_insufficient_shots(self, tmp_path):
        samples = self.tree_samples(tmp_path)
        with pytest.raises(InsufficientShots):
            make_probe_gallery(samples, 6, SplitMix64(0))

    def test_probes_are_all_occluded_samples(self, tmp_path):
        samples = self.tree_samples(tmp_path)
        pg = make_probe_gallery(samples, 2, SplitMix64(0))
        assert len(pg.probes) == 6
        assert all(s.occlusion is Occlusion.REAL for s in pg.probes)

    def test_artificial_probes_used_when_no_real(self):
        samples = generate_synthetic_dataset(3, 4, 8, 16, SplitMix64(5))
        from occreid.occsim import OcclusionConfig, build_occlusion_set

        z, _ = build_occlusion_set(samples, OcclusionConfig(patch_side=4, seed=2))
        pg = make_probe_gallery(samples + z, 2, SplitMix64(0))
        assert all(s.occlusion is Occlusion.ARTIFICIAL for s in pg.probes)
        assert len(pg.probes) == len(z)

    def test_no_sample_in_both_roles(self, tmp_path):
        samples = self.tree_samples(tmp_path)
        pg = make_probe_gallery(samples, 3, SplitMix64(4))
        gallery_ids = {m.id for members in pg.gallery.values() for m in members}
        assert not gallery_ids & {p.id for p in pg.probes}

    def test_every_probe_identity_in_gallery(self, tmp_path):
        samples = self.tree_samples(tmp_path)
        pg = make_probe_gallery(samples, 2, SplitMix64(8))
        assert {p.identity for p in pg.probes} <= set(pg.gallery)

    def test_draws_match_per_identity_scan_on_interleaved_samples(self):
        # identities interleaved and out of order: each draw must still see
        # that identity's full-body samples in their original order
        from occreid.occsim import OcclusionConfig, build_occlusion_set

        samples = generate_synthetic_dataset(4, 5, 8, 16, SplitMix64(6))
        z, _ = build_occlusion_set(samples, OcclusionConfig(patch_side=4, seed=1))
        both = samples + z
        mixed = both[::-2] + both[::2]
        for seed in range(5):
            rng = SplitMix64(seed)
            want = {}
            for ident in sorted({s.identity for s in mixed}):
                fulls = [
                    s for s in mixed if s.identity == ident and s.occlusion is Occlusion.FULL_BODY
                ]
                want[ident] = tuple(rng.sample(fulls, 2))
            assert make_probe_gallery(mixed, 2, SplitMix64(seed)).gallery == want


def float_render_person(width, height, torso_rgb, legs_rgb, geo, noise):
    """Reference renderer: the float64 canvas, np.kron texture and final
    clip that the uint8 renderer replaced, kept to pin its pixels."""
    gray = noise.integers(110, 145, size=(height, width, 1), endpoint=True)
    canvas = np.repeat(gray, 3, axis=2).astype(np.float64)
    band_h = max(1, int(np.floor(0.25 * height + 0.5)))
    for _ in range(geo.randint(3, 6)):
        cw = geo.randint(max(2, width // 6), max(3, width // 2))
        ch = geo.randint(max(1, band_h // 3), band_h)
        cx = geo.randint(0, max(0, width - cw))
        cy = geo.randint(0, max(0, band_h - ch))
        tint = np.array(dataset._saturated_color(geo)[1], dtype=np.float64)
        if geo.randint(0, 1) == 0:
            canvas[cy : cy + ch, cx : cx + cw] = tint
        else:
            cell = geo.randint(3, 4)
            grid = noise.integers(0, 1, size=(ch // cell + 1, cw // cell + 1), endpoint=True)
            mask = np.kron(grid, np.ones((cell, cell)))[:ch, :cw]
            canvas[cy : cy + ch, cx : cx + cw] = np.where(
                mask[:, :, None] > 0, tint, tint * 0.15
            )

    dx = geo.randint(-2, 2)
    dy = geo.randint(-1, 1)
    cx = width // 2 + dx
    skin = np.array([205, 168, 142], dtype=np.float64)
    fill = dataset._fill

    head_h = max(2, height // 9)
    head_w = max(2, width // 5)
    head_top = band_h + max(1, height // 32) + dy
    fill(canvas, cx - head_w // 2, head_top, cx + (head_w + 1) // 2,
         head_top + head_h, skin + geo.randint(-10, 10))

    torso_top = head_top + head_h
    torso_bot = int(0.62 * height) + dy
    torso_hw = max(2, int(0.34 * width)) + geo.randint(-1, 1)
    fill(canvas, cx - torso_hw, torso_top, cx + torso_hw, torso_bot, torso_rgb)

    legs_bot = int(0.95 * height) + dy
    leg_w = max(1, int(0.15 * width))
    gap = max(1, width // 16)
    fill(canvas, cx - gap // 2 - leg_w, torso_bot, cx - gap // 2, legs_bot, legs_rgb)
    fill(canvas, cx + (gap + 1) // 2, torso_bot, cx + (gap + 1) // 2 + leg_w, legs_bot, legs_rgb)

    return Image(np.clip(canvas, 0, 255).astype(np.uint8))


class TestSyntheticGenerator:
    @pytest.mark.parametrize("size", [(8, 16), (16, 24), (32, 64), (48, 96)])
    def test_uint8_renderer_matches_float_reference(self, size, monkeypatch):
        for seed in range(4):
            got = generate_synthetic_dataset(5, 4, *size, SplitMix64(seed))
            with monkeypatch.context() as m:
                m.setattr(dataset, "_render_person", float_render_person)
                want = generate_synthetic_dataset(5, 4, *size, SplitMix64(seed))
            assert [s.id for s in got] == [s.id for s in want]
            for a, b in zip(got, want):
                assert a.image.pixels.tobytes() == b.image.pixels.tobytes(), (size, seed, a.id)

    def test_cardinality_and_flags(self):
        samples = generate_synthetic_dataset(10, 10, 16, 32, SplitMix64(3))
        assert len(samples) == 100
        assert len({s.identity for s in samples}) == 10
        assert all(s.occlusion is Occlusion.FULL_BODY for s in samples)

    def test_bit_identical_for_same_seed(self):
        a = generate_synthetic_dataset(3, 3, 16, 32, SplitMix64(21))
        b = generate_synthetic_dataset(3, 3, 16, 32, SplitMix64(21))
        assert all(x.image == y.image and x.id == y.id for x, y in zip(a, b))

    def test_different_seed_different_images(self):
        a = generate_synthetic_dataset(2, 2, 16, 32, SplitMix64(1))
        b = generate_synthetic_dataset(2, 2, 16, 32, SplitMix64(2))
        assert any(x.image != y.image for x, y in zip(a, b))

    def test_inter_identity_exceeds_intra_identity_distance(self):
        samples = generate_synthetic_dataset(8, 6, 32, 64, SplitMix64(13))
        feats = {s.id: s.image.to_float().reshape(-1) for s in samples}
        intra, inter = [], []
        for i, a in enumerate(samples):
            for b in samples[i + 1 :]:
                d = float(np.linalg.norm(feats[a.id] - feats[b.id]))
                (intra if a.identity == b.identity else inter).append(d)
        assert np.mean(inter) > np.mean(intra)

    def test_minimum_sizes_enforced(self):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(1, 5, 16, 32, SplitMix64(0))
        with pytest.raises(ValueError):
            generate_synthetic_dataset(3, 1, 16, 32, SplitMix64(0))
