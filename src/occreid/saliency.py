"""Saliency maps and the detection-precision metric.

A saliency map is the channel mean of the last convolution layer's
activation maps, bilinearly upsampled to the network input resolution and
min-max normalized to [0, 1]. A constant map normalizes to all zeros
rather than dividing by zero. The salient region is the map's pixels at or
above its median; detection precision is the fraction of the salient
region covered by a body-part annotation mask. Maps and masks are arrays
whose last two axes are the image rows and columns.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import EmptySalientRegionWarning, ShapeMismatch
from .imaging import bilinear_resize_array
from .model import ModelParams, forward_images


def saliency_maps(params: ModelParams, images):
    """Yield one (B, S, S) float64 array of maps per forward chunk of
    preprocessed images, S being the network input side.

    Adding a constant to every activation does not change the result; the
    min-max step removes offsets.
    """
    side = params.arch.input_side
    for trace in forward_images(params, images):
        means = trace.last_maps.mean(axis=1)  # (B, h, w)
        maps = bilinear_resize_array(means.transpose(1, 2, 0), side, side).transpose(2, 0, 1)
        lo = maps.min(axis=(1, 2), keepdims=True)
        span = maps.max(axis=(1, 2), keepdims=True) - lo
        yield np.divide(maps - lo, span, out=np.zeros_like(maps), where=span > 0)


def binarize(maps: np.ndarray) -> np.ndarray:
    """Boolean masks of the pixels at or above each map's median.

    The threshold of a map of P pixels is its floor(P / 2)-th order
    statistic, so a map with P distinct values marks ceil(P / 2) pixels. A
    constant map has no salient region and yields an empty mask.
    """
    flat = maps.reshape(maps.shape[:-2] + (maps.shape[-2] * maps.shape[-1],))
    k = flat.shape[-1] // 2
    threshold = np.partition(flat, k, axis=-1)[..., k, None, None]
    varies = (flat.max(axis=-1) > flat.min(axis=-1))[..., None, None]
    return (maps >= threshold) & varies


def detection_precision(salient: np.ndarray, body: np.ndarray) -> np.ndarray:
    """|salient AND body| / |salient| of boolean masks, one value per map
    over any leading axes.

    An empty salient region scores 0, with an EmptySalientRegionWarning.
    """
    if salient.shape != body.shape:
        raise ShapeMismatch(f"salient masks {salient.shape} vs body masks {body.shape}")
    hits = (salient & body).sum(axis=(-2, -1))
    total = salient.sum(axis=(-2, -1))
    if not np.all(total):
        warnings.warn("salient region is empty", EmptySalientRegionWarning, stacklevel=2)
    return np.divide(hits, total, out=np.zeros(total.shape), where=total > 0)
