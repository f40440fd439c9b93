"""Saliency maps and the detection-precision metric.

A saliency map is the channel mean of the last convolution layer's
activation maps, bilinearly upsampled to the network input resolution and
min-max normalized to [0, 1]. A constant map normalizes to all zeros
rather than dividing by zero. Salient regions come from quantile
thresholding; detection precision is the fraction of the salient region
covered by a manual body-part annotation mask.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, EmptySalientRegionWarning
from .imaging import Image, bilinear_resize_array
from .model import ModelParams, forward_images


@dataclass(frozen=True)
class SaliencyMap:
    """Single-channel map at network input resolution, values in [0, 1]."""

    values: np.ndarray

    def to_image(self) -> Image:
        return Image.from_float(self.values[:, :, None])


def _normalize(values: np.ndarray) -> np.ndarray:
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def map_from_feature_maps(maps: np.ndarray, out_side: int) -> SaliencyMap:
    """Channel mean of (F, h, w) activation maps, upsampled then normalized.

    Adding a constant to every activation does not change the result; the
    min-max step removes offsets.
    """
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 3:
        raise DimMismatch(f"expected (channels, h, w) maps, got shape {maps.shape}")
    mean_map = maps.mean(axis=0)
    upsampled = bilinear_resize_array(mean_map, out_side, out_side)
    return SaliencyMap(_normalize(upsampled))


def saliency_maps(params: ModelParams, images) -> list:
    """One map per network-input-sized image; output dims equal input dims."""
    side = params.arch.input_side
    return [
        map_from_feature_maps(maps, side)
        for trace in forward_images(params, images)
        for maps in trace.last_maps
    ]


def binarize(smap: SaliencyMap, quantile: float = 0.5) -> Image:
    """Mask of pixels at or above the q-quantile of map values (255 = salient).

    The threshold is the floor(q * P)-th order statistic, so a map with P
    distinct values marks ceil((1 - q) * P) pixels. A constant map has no
    salient region and yields an empty mask.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    values = smap.values
    flat = np.sort(values, axis=None)
    if flat[0] == flat[-1]:
        mask = np.zeros(values.shape, dtype=np.uint8)
    else:
        threshold = flat[int(np.floor(quantile * flat.size))]
        mask = np.where(values >= threshold, 255, 0).astype(np.uint8)
    return Image(mask[:, :, None])


def detection_precision(salient: Image, annotation: Image) -> float:
    """|salient AND annotation| / |salient| over nonzero pixels.

    Returns 0 (with an EmptySalientRegionWarning) when nothing is salient.
    """
    if (salient.width, salient.height) != (annotation.width, annotation.height):
        raise DimMismatch(
            f"salient {salient.width}x{salient.height} vs "
            f"annotation {annotation.width}x{annotation.height}"
        )
    if salient.channels != 1 or annotation.channels != 1:
        raise DimMismatch("masks must be single-channel")
    s = salient.pixels[:, :, 0] > 0
    a = annotation.pixels[:, :, 0] > 0
    total = int(s.sum())
    if total == 0:
        warnings.warn("salient region is empty", EmptySalientRegionWarning, stacklevel=2)
        return 0.0
    return float((s & a).sum() / total)
