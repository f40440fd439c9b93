import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occreid.errors import CorruptData, InsufficientSize, ShapeMismatch, UnsupportedFormat
from occreid.imaging import (
    Image,
    Rect,
    bilinear_resize_array,
    jittered_center_crop,
    load_image,
    resize,
    save_image,
)
from occreid.rng import SplitMix64


def ramp(w, h, channels=1):
    vals = (np.arange(w * h * channels) % 256).astype(np.uint8)
    return Image(vals.reshape(h, w, channels))


def bilinear_oracle(src, w_out):
    """Independent closed-form bilinear for a single row, edge clamped."""
    w_in = len(src)
    out = []
    for x in range(w_out):
        sx = (x + 0.5) * w_in / w_out - 0.5
        x0 = int(np.floor(sx))
        f = sx - x0
        lo = min(max(x0, 0), w_in - 1)
        hi = min(max(x0 + 1, 0), w_in - 1)
        out.append(int(np.floor(src[lo] * (1 - f) + src[hi] * f + 0.5)))
    return out


class TestImageType:
    def test_invariants(self):
        img = Image(np.zeros((4, 3, 3), dtype=np.uint8))
        assert (img.width, img.height, img.channels) == (3, 4, 3)
        assert img.pixels.size == 3 * 4 * 3

    def test_two_dim_input_becomes_single_channel(self):
        img = Image(np.zeros((2, 5), dtype=np.uint8))
        assert img.channels == 1 and img.width == 5

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ShapeMismatch):
            Image(np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(ShapeMismatch):
            Image(np.zeros((0, 3, 3), dtype=np.uint8))
        with pytest.raises(TypeError):
            Image(np.zeros((2, 2, 1), dtype=np.float64))
        with pytest.raises(ValueError):
            Image(np.full((2, 2, 1), 300, dtype=np.int32))

    def test_immutable(self):
        img = ramp(3, 3)
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 9

    def test_float_round_trip_half_away(self):
        # 0.5/255 scaled: floor(x*255 + 0.5) rounds halves up, clamped
        img = Image.from_float(np.array([[[0.0], [1.0], [0.5 / 255], [2.0], [-1.0]]]))
        assert img.pixels.reshape(-1).tolist() == [0, 255, 1, 255, 0]


class TestCodec:
    def test_ppm_identity_decode(self, tmp_path):
        payload = bytes(range(12))
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + payload)
        img = load_image(p)
        assert (img.width, img.height, img.channels) == (2, 2, 3)
        assert img.pixels.tobytes() == payload

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "missing.ppm")

    def test_pgm_single_channel(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n3 1\n255\n\x00\x7f\xff")
        img = load_image(p)
        assert img.channels == 1
        assert img.pixels.reshape(-1).tolist() == [0, 127, 255]

    def test_comments_and_whitespace_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 # comment\n# another\n 2\t1 \n255\n\x01\x02")
        img = load_image(p)
        assert img.pixels.reshape(-1).tolist() == [1, 2]

    def test_maxval_one_reads_as_zero_and_255(self, tmp_path):
        p = tmp_path / "m.mask.pgm"
        p.write_bytes(b"P5\n4 1\n1\n\x00\x01\x01\x00")
        assert load_image(p).pixels.reshape(-1).tolist() == [0, 255, 255, 0]

    def test_samples_scale_half_up_from_maxval(self, tmp_path):
        # v * 255 / maxval rounded half up; 255 / 2 = 127.5 -> 128
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n3 1\n2\n\x00\x01\x02")
        assert load_image(p).pixels.reshape(-1).tolist() == [0, 128, 255]
        p.write_bytes(b"P6\n1 1\n100\n\x00\x32\x64")
        assert load_image(p).pixels.reshape(-1).tolist() == [0, 128, 255]

    @pytest.mark.parametrize(
        "header, payload",
        [
            pytest.param(b"P5\n2 1\n1\n", b"\x01\x02", id="2 in a maxval-1 PGM"),
            pytest.param(b"P6\n1 1\n200\n", b"\x00\xc9\x00", id="201 in a maxval-200 PPM"),
        ],
    )
    def test_sample_above_maxval(self, tmp_path, header, payload):
        p = tmp_path / "x.pnm"
        p.write_bytes(header + payload)
        with pytest.raises(CorruptData, match=f"{re.escape(str(p))}: sample {max(payload)} above"):
            load_image(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P3\n1 1\n255\n000")
        with pytest.raises(UnsupportedFormat):
            load_image(p)

    def test_sixteen_bit_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(UnsupportedFormat):
            load_image(p)

    def test_short_payload(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n2 2\n255\nabc")
        with pytest.raises(CorruptData):
            load_image(p)

    @pytest.mark.parametrize(
        "header, tail, extra",
        [
            pytest.param(b"P6\n8 24\n255\n", b"", 16 * 24 * 3 - 8 * 24 * 3, id="width 16 edited to 8"),
            pytest.param(b"P6\n16 24\n255\n", b"\x00", 1, id="one appended byte"),
        ],
    )
    def test_bytes_after_payload(self, tmp_path, header, tail, extra):
        # a damaged size token must not decode as a smaller image
        p = tmp_path / "x.ppm"
        p.write_bytes(header + bytes(range(256)) * 4 + bytes(16 * 24 * 3 - 1024) + tail)
        with pytest.raises(CorruptData, match=f"{re.escape(str(p))}: {extra} trailing bytes"):
            load_image(p)

    def test_garbage_header(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n2 two\n255\n" + bytes(12))
        with pytest.raises(CorruptData):
            load_image(p)

    def test_save_load_round_trip(self, tmp_path):
        gen = np.random.Generator(np.random.PCG64(0))
        for case in range(40):
            w, h = int(gen.integers(1, 9)), int(gen.integers(1, 9))
            c = 1 if gen.uniform() < 0.5 else 3
            img = Image(gen.integers(0, 256, (h, w, c), dtype=np.uint8))
            p = tmp_path / f"r{case}.img"
            save_image(img, p)
            assert load_image(p) == img


class TestCrop:
    def test_rect_validation(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 2)
        with pytest.raises(ValueError):
            Rect(-1, 0, 2, 2)


def four_neighbour_resize(values, w, h):
    """The direct bilinear formula: gather the four neighbours of every
    output pixel and blend them, x first, then y. The separable resize
    must reproduce it bit for bit."""
    arr = np.asarray(values, dtype=np.float64)
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[:, :, None]
    in_h, in_w = arr.shape[:2]
    sx = (np.arange(w) + 0.5) * (in_w / w) - 0.5
    sy = (np.arange(h) + 0.5) * (in_h / h) - 0.5
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    x1 = np.clip(x0 + 1, 0, in_w - 1)
    y1 = np.clip(y0 + 1, 0, in_h - 1)
    x0 = np.clip(x0, 0, in_w - 1)
    y0 = np.clip(y0, 0, in_h - 1)
    top = arr[np.ix_(y0, x0)] * (1.0 - fx)[None, :, None] + arr[np.ix_(y0, x1)] * fx[None, :, None]
    bot = arr[np.ix_(y1, x0)] * (1.0 - fx)[None, :, None] + arr[np.ix_(y1, x1)] * fx[None, :, None]
    out = top * (1.0 - fy)[:, None, None] + bot * fy[:, None, None]
    return out[:, :, 0] if squeeze else out


class TestResize:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_separable_matches_four_neighbour_formula(self, channels):
        gen = np.random.Generator(np.random.PCG64(channels))
        # 1-pixel sides, same size, pure up/down and mixed scaling, then random
        dims = [(1, 1, 1, 1), (1, 1, 5, 3), (7, 1, 1, 4), (1, 9, 6, 1), (6, 4, 6, 4)]
        dims += [(64, 32, 36, 36), (36, 36, 12, 12), (5, 3, 40, 17), (40, 17, 5, 3)]
        dims += [tuple(int(v) for v in gen.integers(1, 50, 4)) for _ in range(100)]
        for in_h, in_w, h, w in dims:
            img = Image(gen.integers(0, 256, (in_h, in_w, channels), dtype=np.uint8))
            ref = four_neighbour_resize(img.pixels, w, h)
            out = bilinear_resize_array(img.pixels.astype(np.float64), w, h)
            assert out.shape == ref.shape and np.array_equal(out, ref), (in_h, in_w, h, w)
            want = np.clip(np.floor(ref + 0.5), 0.0, 255.0).astype(np.uint8)
            assert np.array_equal(resize(img, w, h).pixels, want)
        # single-channel maps come in as 2-d float arrays (saliency upsampling)
        values = gen.uniform(-3.0, 3.0, (4, 4))
        for side in (1, 4, 32):
            out = bilinear_resize_array(values, side, side)
            assert np.array_equal(out, four_neighbour_resize(values, side, side))

    def test_same_dims_identity(self):
        img = ramp(6, 3, 3)
        assert resize(img, 6, 3) == img

    def test_one_pixel_to_constant(self):
        img = Image(np.full((1, 1, 3), 77, dtype=np.uint8))
        out = resize(img, 3, 3)
        assert np.all(out.pixels == 77)

    def test_two_to_four_matches_closed_form(self):
        img = Image(np.array([[[0], [255]]], dtype=np.uint8))
        out = resize(img, 4, 1)
        expected = bilinear_oracle([0, 255], 4)
        assert expected == [0, 64, 191, 255]  # frozen from the oracle
        assert out.pixels.reshape(-1).tolist() == expected

    def test_downscale_matches_closed_form(self):
        row = [10, 50, 200, 250, 90]
        img = Image(np.array([row], dtype=np.uint8)[:, :, None])
        out = resize(img, 3, 1)
        assert out.pixels.reshape(-1).tolist() == bilinear_oracle(row, 3)

    @settings(max_examples=25, derandomize=True)
    @given(
        seed=st.integers(0, 10**6),
        w=st.integers(1, 9),
        h=st.integers(1, 9),
        tw=st.integers(1, 12),
        th=st.integers(1, 12),
    )
    def test_range_preserved(self, seed, w, h, tw, th):
        gen = np.random.Generator(np.random.PCG64(seed))
        img = Image(gen.integers(0, 256, (h, w, 3), dtype=np.uint8))
        out = resize(img, tw, th)
        assert out.pixels.min() >= img.pixels.min()
        assert out.pixels.max() <= img.pixels.max()


class TestJitteredCenterCrop:
    @staticmethod
    def position_image(side):
        # channel 0 encodes x, channel 1 encodes y, so the crop origin can
        # be read back from pixel (0, 0)
        xs = np.arange(side, dtype=np.uint8)
        arr = np.zeros((side, side, 3), dtype=np.uint8)
        arr[:, :, 0] = xs[None, :]
        arr[:, :, 1] = xs[:, None]
        return Image(arr)

    def test_zero_jitter_exact_center(self):
        img = self.position_image(240)
        out = jittered_center_crop(img, 224, 0)
        assert (out.pixels[0, 0, 0], out.pixels[0, 0, 1]) == (8, 8)
        assert out.width == out.height == 224

    def test_origin_within_jitter_box(self):
        img = self.position_image(240)
        origins = set()
        for seed in range(200):
            out = jittered_center_crop(img, 224, 8, SplitMix64(seed))
            origin = (int(out.pixels[0, 0, 0]), int(out.pixels[0, 0, 1]))
            assert 0 <= origin[0] <= 16 and 0 <= origin[1] <= 16
            origins.add(origin)
        xs = {o[0] for o in origins}
        assert min(xs) < 4 and max(xs) > 12  # jitter actually spreads

    def test_insufficient_size(self):
        img = self.position_image(240)
        with pytest.raises(InsufficientSize):
            jittered_center_crop(img, 240, 8, SplitMix64(0))

    def test_same_seed_same_crop(self):
        img = self.position_image(64)
        a = jittered_center_crop(img, 48, 4, SplitMix64(5))
        b = jittered_center_crop(img, 48, 4, SplitMix64(5))
        assert a == b

    def test_jitter_without_rng_rejected(self):
        with pytest.raises(ValueError):
            jittered_center_crop(self.position_image(64), 48, 4, None)
