"""Dataset model, directory ingestion, identity splits and the synthetic
generator used for self-contained experiments.

A dataset root holds two branches, ``occluded/<identity>/`` and
``whole/<identity>/``, with PPM/PGM files inside identity-named
directories. Files ending in ``.mask.pgm`` are body-part annotations for
the saliency metric and are skipped when scanning samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientShots,
    MissingBranch,
    TooFewIdentities,
    UnparsableIdentity,
)
from .imaging import Image, load_image
from .rng import SplitMix64, derive_seed


class Occlusion(Enum):
    FULL_BODY = "full_body"
    ARTIFICIAL = "artificial"
    REAL = "real"

    @property
    def obc_target(self) -> int:
        """Binary occlusion class: 0 for occluded samples, 1 for full body."""
        return 1 if self is Occlusion.FULL_BODY else 0


@dataclass(frozen=True)
class PersonSample:
    id: str
    image: Image
    identity: int
    occlusion: Occlusion


@dataclass(frozen=True)
class Split:
    train_identities: frozenset
    test_identities: frozenset


@dataclass(frozen=True)
class ProbeGallery:
    """Occluded probes plus a gallery of exactly `shots` full-body images
    per identity."""

    probes: tuple
    gallery: dict
    shots: int


_BRANCHES = (("occluded", Occlusion.REAL), ("whole", Occlusion.FULL_BODY))
_EXTENSIONS = (".ppm", ".pgm")


def scan_dataset(root) -> list[PersonSample]:
    """One sample per image file under occluded/ and whole/.

    Identity labels are parsed from directory names; the branch determines
    the occlusion flag. The returned list is sorted lexicographically by
    sample id (the path relative to root), so re-scanning an unchanged tree
    yields an identical list.
    """
    root = Path(root)
    for branch, _ in _BRANCHES:
        if not (root / branch).is_dir():
            raise MissingBranch(f"{root} has no '{branch}/' branch")
    samples = []
    for branch, flag in _BRANCHES:
        for ident_dir in sorted((root / branch).iterdir()):
            if not ident_dir.is_dir():
                continue
            try:
                identity = int(ident_dir.name)
            except ValueError:
                raise UnparsableIdentity(
                    f"{ident_dir}: directory name is not an integer label"
                ) from None
            for f in sorted(ident_dir.iterdir()):
                if f.suffix not in _EXTENSIONS or f.name.endswith(".mask.pgm"):
                    continue
                rel = f.relative_to(root).as_posix()
                samples.append(PersonSample(rel, load_image(f), identity, flag))
    samples.sort(key=lambda s: s.id)
    return samples


def split_identities(samples, fraction: float, rng: SplitMix64) -> Split:
    """Identity-disjoint split with round(M * fraction) train identities,
    rounding halves up, chosen uniformly without replacement."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    identities = sorted({s.identity for s in samples})
    m = len(identities)
    if m < 2:
        raise TooFewIdentities(f"need at least 2 identities, found {m}")
    n_train = int(np.floor(m * fraction + 0.5))
    n_train = min(max(n_train, 1), m - 1)
    train = frozenset(rng.sample(identities, n_train))
    return Split(train, frozenset(identities) - train)


def gallery_pool(samples) -> tuple[dict, list]:
    """Sample indices every gallery draw over `samples` starts from: each
    identity's full-body images, identities ascending, and the probes, the
    real occlusions when the set has any, otherwise the artificial ones."""
    fulls = {ident: [] for ident in sorted({s.identity for s in samples})}
    occluded = {Occlusion.REAL: [], Occlusion.ARTIFICIAL: []}
    for i, s in enumerate(samples):
        if s.occlusion is Occlusion.FULL_BODY:
            fulls[s.identity].append(i)
        else:
            occluded[s.occlusion].append(i)
    return fulls, occluded[Occlusion.REAL] or occluded[Occlusion.ARTIFICIAL]


def draw_gallery(fulls: dict, shots: int, rng: SplitMix64) -> dict:
    """`shots` of each identity's full-body indices from gallery_pool,
    drawn without replacement in ascending identity order, so the draw
    sequence is reproducible."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    gallery = {}
    for ident, members in fulls.items():
        if len(members) < shots:
            raise InsufficientShots(
                f"identity {ident} has {len(members)} full-body images, need {shots}"
            )
        gallery[ident] = rng.sample(members, shots)
    return gallery


def make_probe_gallery(samples, shots: int, rng: SplitMix64) -> ProbeGallery:
    """One draw_gallery over the gallery_pool of `samples`, as samples:
    `shots` full-body images per identity, and every probe."""
    fulls, probes = gallery_pool(samples)
    drawn = draw_gallery(fulls, shots, rng)
    gallery = {ident: tuple(samples[i] for i in idx) for ident, idx in drawn.items()}
    return ProbeGallery(tuple(samples[i] for i in probes), gallery, shots)


_SKIN = np.array([205, 168, 142])


def _fill(canvas: np.ndarray, x0: int, y0: int, x1: int, y1: int, color) -> None:
    h, w = canvas.shape[:2]
    x0, x1 = max(0, x0), min(w, x1)
    y0, y1 = max(0, y0), min(h, y1)
    if x0 < x1 and y0 < y1:
        canvas[y0:y1, x0:x1] = color


def _saturated_color(geo: SplitMix64, exclude: int = -1) -> tuple:
    """Clothing-like colour: one dominant channel, the rest muted, so
    identities spread out on a saturated manifold instead of clustering
    in the grey middle of the cube. `exclude` bars a dominant channel,
    letting callers force torso and legs onto different hues."""
    channels = [c for c in range(3) if c != exclude]
    dominant = channels[geo.randint(0, len(channels) - 1)]
    color = [geo.randint(0, 100) for _ in range(3)]
    color[dominant] = geo.randint(180, 255)
    return dominant, color


def _render_person(width, height, torso_rgb, legs_rgb, geo: SplitMix64, noise) -> Image:
    # every painted value is an integer in [0, 255], so the canvas is uint8
    # from the start; the draws stay int64 to keep the PCG64 stream
    gray = noise.integers(110, 145, size=(height, width, 1), endpoint=True)
    canvas = np.repeat(gray.astype(np.uint8), 3, axis=2)

    # Clutter in the top band is saturated like clothing; half the pieces
    # carry a coarse block texture, half are flat like garments. Occluders
    # cropped from it therefore pollute plain colour averages, and flat
    # ones cannot be told apart from body parts by texture alone, so the
    # occlusion classifier has to rely on body-layout cues as well.
    band_h = max(1, int(np.floor(0.25 * height + 0.5)))
    for _ in range(geo.randint(3, 6)):
        cw = geo.randint(max(2, width // 6), max(3, width // 2))
        ch = geo.randint(max(1, band_h // 3), band_h)
        cx = geo.randint(0, max(0, width - cw))
        cy = geo.randint(0, max(0, band_h - ch))
        tint = np.array(_saturated_color(geo)[1], dtype=np.uint8)
        if geo.randint(0, 1) == 0:
            canvas[cy : cy + ch, cx : cx + cw] = tint
        else:
            cell = geo.randint(3, 4)
            grid = noise.integers(0, 1, size=(ch // cell + 1, cw // cell + 1), endpoint=True)
            mask = grid.repeat(cell, 0).repeat(cell, 1)[:ch, :cw]
            dark = (tint * 0.15).astype(np.uint8)  # truncates, as the uint8 cast always did
            canvas[cy : cy + ch, cx : cx + cw] = np.where(mask[:, :, None] > 0, tint, dark)

    dx = geo.randint(-2, 2)
    dy = geo.randint(-1, 1)
    cx = width // 2 + dx

    head_h = max(2, height // 9)
    head_w = max(2, width // 5)
    head_top = band_h + max(1, height // 32) + dy
    _fill(canvas, cx - head_w // 2, head_top, cx + (head_w + 1) // 2,
          head_top + head_h, _SKIN + geo.randint(-10, 10))

    torso_top = head_top + head_h
    torso_bot = int(0.62 * height) + dy
    torso_hw = max(2, int(0.34 * width)) + geo.randint(-1, 1)
    _fill(canvas, cx - torso_hw, torso_top, cx + torso_hw, torso_bot, torso_rgb)

    legs_bot = int(0.95 * height) + dy
    leg_w = max(1, int(0.15 * width))
    gap = max(1, width // 16)
    _fill(canvas, cx - gap // 2 - leg_w, torso_bot, cx - gap // 2, legs_bot, legs_rgb)
    _fill(canvas, cx + (gap + 1) // 2, torso_bot, cx + (gap + 1) // 2 + leg_w, legs_bot, legs_rgb)

    return Image(canvas)


def generate_synthetic_dataset(
    num_identities: int, per_identity: int, width: int, height: int, rng: SplitMix64
) -> list[PersonSample]:
    """Synthetic full-body persons: identity-specific torso and leg colours
    on noise backgrounds with pose jitter, plus coloured clutter in the top
    band (the strip occlusion patches are cropped from).

    All samples are flagged FULL_BODY; occluded counterparts come from the
    occlusion simulator. Deterministic given the generator's seed.
    """
    if num_identities < 2 or per_identity < 2:
        raise ValueError("need at least 2 identities with 2 images each")
    if width < 3:  # a clutter piece can be 3 pixels wide
        raise ValueError(f"synthetic images need a width of 3 or more, got {width}")
    samples = []
    for i in range(num_identities):
        id_rng = rng.spawn(i)
        torso_dominant, torso = _saturated_color(id_rng)
        _, legs = _saturated_color(id_rng, exclude=torso_dominant)
        for j in range(per_identity):
            s_seed = derive_seed(id_rng.seed, j)
            geo = SplitMix64(s_seed)
            noise = np.random.Generator(np.random.PCG64(derive_seed(s_seed, 0)))
            img = _render_person(width, height, torso, legs, geo, noise)
            samples.append(
                PersonSample(f"synth_{i + 1:03d}_{j:02d}", img, i + 1, Occlusion.FULL_BODY)
            )
    return samples
