"""Occlusion simulator.

Manufactures artificially occluded person images from full-body ones: a
square patch is cropped from the background band of the source image,
resized to a randomly sized and placed rectangle covering a configured
fraction of the image area, and pasted over the person. Each source
sample yields exactly one occluded sample carrying the same identity
label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import Occlusion, PersonSample
from .errors import InfeasibleGeometry
from .imaging import Image, Rect, resize
from .rng import SplitMix64, derive_seed

_MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class OcclusionConfig:
    """Geometry bounds for the simulator.

    patch_side is the side of the square background patch; the occluded
    rectangle's area is drawn uniformly from [area * ratio_lo, area *
    ratio_hi] and its width/height ratio uniformly from [aspect_lo,
    aspect_hi]. background_band is the fraction of image height (from the
    top) the patch may be cropped from; 1.0 allows the whole image.
    """

    patch_side: int
    ratio_lo: float = 0.1
    ratio_hi: float = 0.3
    aspect_lo: float = 0.5
    aspect_hi: float = 2.0
    background_band: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.patch_side < 1:
            raise ValueError(f"patch_side must be >= 1, got {self.patch_side}")
        if not 0.0 < self.ratio_lo <= self.ratio_hi < 1.0:
            raise ValueError(
                f"need 0 < ratio_lo <= ratio_hi < 1, got [{self.ratio_lo}, {self.ratio_hi}]"
            )
        if not 0.0 < self.aspect_lo <= self.aspect_hi < float("inf"):
            raise ValueError(
                f"need 0 < aspect_lo <= aspect_hi < inf, got [{self.aspect_lo}, {self.aspect_hi}]"
            )
        if not 0.0 < self.background_band <= 1.0:
            raise ValueError(f"background_band must be in (0, 1], got {self.background_band}")


@dataclass(frozen=True)
class OcclusionRecord:
    """Where a patch came from and where it went; enough to replay the paste."""

    source_id: str
    patch_rect: Rect
    target_rect: Rect
    area_ratio: float


def _round_half_up(x: float) -> int:
    import math

    return int(math.floor(x + 0.5))


def sample_occluded_rect(img_w: int, img_h: int, cfg: OcclusionConfig, rng: SplitMix64) -> Rect:
    """Rectangle to be covered: area uniform in the configured band, aspect
    uniform in [aspect_lo, aspect_hi], position uniform over in-bounds
    placements.

    Draw order per attempt: area, aspect; dims that round outside the image
    are rejected and redrawn, so realized dims stay within one pixel of the
    sampled real-valued rectangle. Raises InfeasibleGeometry when no
    attempt fits.
    """
    total = img_w * img_h
    for _ in range(_MAX_ATTEMPTS):
        area = rng.uniform_in(total * cfg.ratio_lo, total * cfg.ratio_hi)
        aspect = rng.uniform_in(cfg.aspect_lo, cfg.aspect_hi)
        w = max(1, _round_half_up((area * aspect) ** 0.5))
        h = max(1, _round_half_up((area / aspect) ** 0.5))
        if w <= img_w and h <= img_h:
            x = rng.randint(0, img_w - w)
            y = rng.randint(0, img_h - h)
            return Rect(x, y, w, h)
    raise InfeasibleGeometry(
        f"no {cfg.ratio_lo}-{cfg.ratio_hi} area rect with aspect "
        f"[{cfg.aspect_lo}, {cfg.aspect_hi}] fits a {img_w}x{img_h} image"
    )


def check_target_fits(cfg: OcclusionConfig, img_w: int, img_h: int) -> None:
    """Raise InfeasibleGeometry unless the smallest target area fits an
    img_w x img_h image at both aspect extremes, rounded as
    sample_occluded_rect rounds; every aspect between them then fits too."""
    area = img_w * img_h * cfg.ratio_lo
    w, h = (area * cfg.aspect_hi) ** 0.5, (area / cfg.aspect_lo) ** 0.5
    # rounding half up gives n or less exactly when x + 0.5 < n + 1, which
    # also holds for a side that overflowed to inf
    smallest = f"the smallest ({cfg.ratio_lo} area) rect does not fit a {img_w}x{img_h} image"
    if not w + 0.5 < img_w + 1:
        raise InfeasibleGeometry(f"aspect_hi {cfg.aspect_hi}: {smallest} ({w:.3g} wide)")
    if not h + 0.5 < img_h + 1:
        raise InfeasibleGeometry(f"aspect_lo {cfg.aspect_lo}: {smallest} ({h:.3g} tall)")


def check_patch_fits(cfg: OcclusionConfig, img_w: int, img_h: int) -> int:
    """Height of the background band of an img_w x img_h image; raises
    InfeasibleGeometry when the patch does not fit in it."""
    band_h = _round_half_up(cfg.background_band * img_h)
    s = cfg.patch_side
    if s > img_w or s > band_h:
        raise InfeasibleGeometry(
            f"patch_side {s} does not fit the {img_w}x{band_h} background band"
        )
    return band_h


def _patch_rect(img_w: int, img_h: int, cfg: OcclusionConfig, rng: SplitMix64) -> Rect:
    band_h = check_patch_fits(cfg, img_w, img_h)
    s = cfg.patch_side
    x = rng.randint(0, img_w - s)
    y = rng.randint(0, band_h - s)
    return Rect(x, y, s, s)


def simulate_occlusion(
    img: Image, cfg: OcclusionConfig, rng: SplitMix64, source_id: str = ""
) -> tuple[Image, OcclusionRecord]:
    """Cover a random body region of img with a resized background patch.

    Draws the target rectangle first, then the patch rectangle. Pixels
    outside the target rect are bit-identical to the input; inside, they
    equal the patch_rect slice of img resized to the target dims, which the
    returned record is sufficient to replay.
    """
    target = sample_occluded_rect(img.width, img.height, cfg, rng)
    p = _patch_rect(img.width, img.height, cfg, rng)
    patch = resize(Image(img.pixels[p.y : p.y + p.h, p.x : p.x + p.w]), target.w, target.h)
    out = img.pixels.copy()
    out[target.y : target.y + target.h, target.x : target.x + target.w] = patch.pixels
    record = OcclusionRecord(source_id, p, target, target.area / (img.width * img.height))
    return Image(out), record


def build_occlusion_set(
    samples, cfg: OcclusionConfig
) -> tuple[list[PersonSample], list[OcclusionRecord]]:
    """One artificially occluded sample per input sample, labels preserved.

    Sample i uses its own generator seeded with derive_seed(cfg.seed, i),
    so the set is reproducible and can be built in any order or in
    parallel. Occluded ids are the source id plus '#occ'.
    """
    occluded, records = [], []
    for index, s in enumerate(samples):
        child = SplitMix64(derive_seed(cfg.seed, index))
        try:
            img, rec = simulate_occlusion(s.image, cfg, child, source_id=s.id)
        except InfeasibleGeometry as e:
            raise InfeasibleGeometry(f"sample {s.id}: {e}") from e
        occluded.append(PersonSample(s.id + "#occ", img, s.identity, Occlusion.ARTIFICIAL))
        records.append(rec)
    return occluded, records
