"""Small trainable convnet with manual backpropagation.

The trunk is a stack of stride-2 3x3 convolutions with ReLU, followed by
global average pooling; its pooled output is the retrieval feature. Two
linear heads sit on top: a K-way identity classifier and a 2-way
occluded/non-occluded classifier. The training objective is the weighted
sum alpha * identity_loss + (1 - alpha) * occlusion_loss, minimized by
plain SGD. Forward, backward and the update are written out by hand on
numpy arrays in float64; checkpoints store float32.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CorruptData,
    LabelOutOfRange,
    NonFiniteGradient,
    NonFiniteParameter,
    ShapeMismatch,
    UnsupportedFormat,
)
from .imaging import Image, jittered_center_crop, resize
from .rng import SplitMix64, derive_seed

_MAGIC = b"OCREID01"
FORWARD_CHUNK = 16  # images per forward outside training; bounds the activation memory


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    kernel: int
    stride: int

    def __post_init__(self):
        if self.out_channels < 1 or self.stride < 1:
            raise ValueError(f"bad conv spec {self}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and >= 1, got {self.kernel}")


@dataclass(frozen=True)
class ArchSpec:
    """Network and preprocessing geometry.

    Images are resized to resize_side x resize_side and cropped to
    input_side x input_side before entering the trunk. Padding is always
    kernel // 2, so spatial dims shrink only through the stride.
    """

    input_side: int = 32
    resize_side: int = 36
    in_channels: int = 3
    convs: tuple = (ConvSpec(8, 3, 2), ConvSpec(16, 3, 2), ConvSpec(32, 3, 2))

    def __post_init__(self):
        if self.input_side < 1 or self.resize_side < self.input_side:
            raise ValueError(
                f"need 1 <= input_side <= resize_side, got {self.input_side}, {self.resize_side}"
            )
        if self.in_channels not in (1, 3):
            raise ValueError(f"in_channels must be 1 or 3, got {self.in_channels}")
        if not self.convs:
            raise ValueError("need at least one conv layer")

    @property
    def feature_dim(self) -> int:
        return self.convs[-1].out_channels

    @property
    def default_jitter(self) -> int:
        return (self.resize_side - self.input_side) // 2


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.8
    learning_rate: float = 1e-3
    batch_size: int = 20
    iterations: int = 1000
    seed: int = 0
    arch: ArchSpec = field(default_factory=ArchSpec)
    max_jitter: int | None = None  # None picks (resize_side - input_side) // 2
    lr_decay_every: int = 0  # 0 disables the step schedule
    lr_decay_factor: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.alpha in (0.0, 1.0):
            warnings.warn(
                f"alpha={self.alpha} disables one loss entirely; values in (0, 1) "
                "with alpha >= 0.5 are the intended operating range",
                stacklevel=2,
            )
        if self.batch_size < 1 or self.iterations < 0 or self.learning_rate < 0:
            raise ValueError("batch_size >= 1, iterations >= 0, learning_rate >= 0 required")


@dataclass
class ModelParams:
    """All learnable tensors, kept in float64; immutable by convention
    (updates build a new instance)."""

    arch: ArchSpec
    conv_w: tuple
    conv_b: tuple
    id_w: np.ndarray
    id_b: np.ndarray
    obc_w: np.ndarray
    obc_b: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.id_w.shape[0]

    def tensors(self):
        """(name, array) pairs in a fixed declaration order."""
        out = []
        for i, (w, b) in enumerate(zip(self.conv_w, self.conv_b)):
            out.append((f"conv{i}.w", w))
            out.append((f"conv{i}.b", b))
        out.extend(
            [("id.w", self.id_w), ("id.b", self.id_b), ("obc.w", self.obc_w), ("obc.b", self.obc_b)]
        )
        return out


@dataclass
class ForwardTrace:
    """Everything backward and the saliency map need from one forward pass."""

    inputs: np.ndarray
    cols: list
    preacts: list
    acts: list
    feature: np.ndarray
    id_logits: np.ndarray
    obc_logits: np.ndarray

    @property
    def last_maps(self) -> np.ndarray:
        return self.acts[-1]


def _params_from_dict(arch: ArchSpec, tensors: dict) -> ModelParams:
    conv_w = tuple(tensors[f"conv{i}.w"] for i in range(len(arch.convs)))
    conv_b = tuple(tensors[f"conv{i}.b"] for i in range(len(arch.convs)))
    return ModelParams(
        arch, conv_w, conv_b, tensors["id.w"], tensors["id.b"], tensors["obc.w"], tensors["obc.b"]
    )


def init_params(arch: ArchSpec, num_classes: int, seed: int) -> ModelParams:
    """He-style uniform init, bound sqrt(6 / fan_in); biases start at zero."""
    if num_classes < 2:
        raise ValueError(f"need >= 2 identity classes, got {num_classes}")
    gen = np.random.Generator(np.random.PCG64(seed))
    conv_w, conv_b = [], []
    c_in = arch.in_channels
    for spec in arch.convs:
        fan_in = c_in * spec.kernel * spec.kernel
        bound = np.sqrt(6.0 / fan_in)
        conv_w.append(gen.uniform(-bound, bound, (spec.out_channels, c_in, spec.kernel, spec.kernel)))
        conv_b.append(np.zeros(spec.out_channels))
        c_in = spec.out_channels
    d = arch.feature_dim
    bound = np.sqrt(6.0 / d)
    return ModelParams(
        arch,
        tuple(conv_w),
        tuple(conv_b),
        gen.uniform(-bound, bound, (num_classes, d)),
        np.zeros(num_classes),
        gen.uniform(-bound, bound, (2, d)),
        np.zeros(2),
    )


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    b, c, hp, wp = xp.shape
    oh = (hp - k) // stride + 1
    ow = (wp - k) // stride + 1
    sb, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (b, c, oh, ow, k, k), (sb, sc, sh * stride, sw * stride, sh, sw)
    )
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(b, c * k * k, oh * ow)
    return cols, oh, ow


def _col2im(dcols: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    b, c, h, w = x_shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    dwin = dcols.reshape(b, c, k, k, oh, ow)
    dxp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += dwin[
                :, :, i, j
            ]
    return dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp


def forward(params: ModelParams, batch) -> ForwardTrace:
    """Run the trunk and both heads, retaining per-layer state for backward.

    batch is (B, C, S, S) float64 in [0, 1]; a single (C, S, S) array is
    promoted to a batch of one.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 3:
        x = x[None]
    arch = params.arch
    if x.ndim != 4 or x.shape[1] != arch.in_channels or x.shape[2:] != (
        arch.input_side,
        arch.input_side,
    ):
        raise ShapeMismatch(
            f"expected (B, {arch.in_channels}, {arch.input_side}, {arch.input_side}), "
            f"got {x.shape}"
        )
    cols_list, preacts, acts = [], [], []
    a = x
    for spec, w, b in zip(arch.convs, params.conv_w, params.conv_b):
        cols, oh, ow = _im2col(a, spec.kernel, spec.stride, spec.kernel // 2)
        z = np.matmul(w.reshape(spec.out_channels, -1), cols) + b[:, None]
        z = z.reshape(a.shape[0], spec.out_channels, oh, ow)
        cols_list.append(cols)
        preacts.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    feature = a.mean(axis=(2, 3))
    id_logits = feature @ params.id_w.T + params.id_b
    obc_logits = feature @ params.obc_w.T + params.obc_b
    return ForwardTrace(x, cols_list, preacts, acts, feature, id_logits, obc_logits)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits))


def id_loss(id_logits, label: int) -> float:
    """Cross-entropy of the identity head for one sample.

    label indexes the K logits (0-based after the contiguous remap done by
    train)."""
    logits = np.asarray(id_logits, dtype=np.float64).reshape(-1)
    if not 0 <= label < logits.shape[0]:
        raise LabelOutOfRange(f"label {label} outside [0, {logits.shape[0]})")
    return float(-_log_softmax(logits)[label])


def obc_loss(obc_logits, occluded_flag: int) -> float:
    """Two-class cross-entropy; flag 0 means occluded, 1 means full body."""
    logits = np.asarray(obc_logits, dtype=np.float64).reshape(-1)
    if logits.shape[0] != 2:
        raise ShapeMismatch(f"expected 2 occlusion logits, got {logits.shape[0]}")
    if occluded_flag not in (0, 1):
        raise ValueError(f"occluded_flag must be 0 or 1, got {occluded_flag}")
    return float(-_log_softmax(logits)[occluded_flag])


def multi_task_loss(id_loss_value: float, obc_loss_value: float, alpha: float) -> float:
    """alpha-weighted combination of the two losses."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * id_loss_value + (1.0 - alpha) * obc_loss_value


def _mean_losses(trace: ForwardTrace, labels: np.ndarray, flags: np.ndarray):
    b = np.arange(trace.feature.shape[0])
    lp = float(-_log_softmax(trace.id_logits)[b, labels].mean())
    lo = float(-_log_softmax(trace.obc_logits)[b, flags].mean())
    return lp, lo


def backward(trace: ForwardTrace, params: ModelParams, labels, flags, alpha: float) -> dict:
    """Analytic gradients of the batch-mean weighted loss for every tensor.

    Returns a dict keyed like ModelParams.tensors(). With alpha == 1 the
    occlusion head gradients are exactly zero, and vice versa at 0.
    """
    labels = np.asarray(labels)
    flags = np.asarray(flags)
    b = trace.feature.shape[0]
    if labels.shape != (b,) or flags.shape != (b,):
        raise ShapeMismatch(f"labels/flags must have shape ({b},)")
    if labels.min() < 0 or labels.max() >= params.num_classes:
        raise LabelOutOfRange(f"labels outside [0, {params.num_classes})")
    grads = {}
    g_id = _softmax(trace.id_logits)
    g_id[np.arange(b), labels] -= 1.0
    g_id *= alpha / b
    g_obc = _softmax(trace.obc_logits)
    g_obc[np.arange(b), flags] -= 1.0
    g_obc *= (1.0 - alpha) / b
    grads["id.w"] = g_id.T @ trace.feature
    grads["id.b"] = g_id.sum(axis=0)
    grads["obc.w"] = g_obc.T @ trace.feature
    grads["obc.b"] = g_obc.sum(axis=0)

    d_act = g_id @ params.id_w + g_obc @ params.obc_w  # (B, D)
    last = trace.acts[-1]
    d_act = d_act[:, :, None, None] / (last.shape[2] * last.shape[3])
    d_act = np.broadcast_to(d_act, last.shape)
    arch = params.arch
    for layer in reversed(range(len(arch.convs))):
        spec = arch.convs[layer]
        w = params.conv_w[layer]
        dz = np.where(trace.preacts[layer] > 0.0, d_act, 0.0)
        dz_flat = dz.reshape(b, spec.out_channels, -1)
        grads[f"conv{layer}.w"] = np.einsum(
            "bfs,bcs->fc", dz_flat, trace.cols[layer]
        ).reshape(w.shape)
        grads[f"conv{layer}.b"] = dz_flat.sum(axis=(0, 2))
        if layer > 0:
            dcols = np.matmul(w.reshape(spec.out_channels, -1).T, dz_flat)
            d_act = _col2im(
                dcols, trace.acts[layer - 1].shape, spec.kernel, spec.stride, spec.kernel // 2
            )
    return grads


def sgd_step(params: ModelParams, grads: dict, lr: float) -> ModelParams:
    """p <- p - lr * g for every tensor; plain SGD, no momentum."""
    updated = {}
    for name, arr in params.tensors():
        g = grads[name]
        if g.shape != arr.shape:
            raise ShapeMismatch(f"{name}: gradient shape {g.shape} != param shape {arr.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"{name} gradient is not finite")
        updated[name] = arr - lr * g
    return _params_from_dict(params.arch, updated)


def train(
    samples,
    cfg: TrainConfig,
    params: ModelParams | None = None,
    start_iteration: int = 0,
    resize_cache: dict | None = None,
):
    """SGD over the sample set with jittered center-crop augmentation.

    The resized set is stacked once as an (N, R, R, C) uint8 array; each
    batch gathers its crops from a window view of it in one indexing step
    and is converted to float at once.

    Identity labels are remapped to contiguous 0..K-1 (sorted order) and
    the occlusion flag of each sample supplies the binary target. Batches
    walk repeated uniform shuffles of the set. Returns the final params
    and one (iteration, total, id_loss, obc_loss) row per step, where
    total is exactly alpha * id + (1 - alpha) * obc.

    Passing params continues training (used for per-epoch regeneration of
    the occlusion set); the class count must match. resize_cache maps
    sample id to its already-resized image and only skips redundant
    resizes; entries must equal resize(sample.image, resize_side, ...).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty training set")
    arch = cfg.arch
    identities = sorted({s.identity for s in samples})
    label_of = {ident: i for i, ident in enumerate(identities)}
    labels_all = np.array([label_of[s.identity] for s in samples])
    flags_all = np.array([s.occlusion.obc_target for s in samples])
    if params is None:
        params = init_params(arch, len(identities), derive_seed(cfg.seed, 0))
    elif params.num_classes != len(identities):
        raise ShapeMismatch(
            f"params expect {params.num_classes} classes, set has {len(identities)}"
        )
    jitter = cfg.max_jitter if cfg.max_jitter is not None else arch.default_jitter
    if not 0 <= jitter <= arch.default_jitter:
        raise ValueError(f"max_jitter {jitter} outside [0, {arch.default_jitter}], the crop margin")
    cache = resize_cache or {}
    side = arch.resize_side
    stack = np.stack([(cache.get(s.id) or resize(s.image, side, side)).pixels for s in samples])
    # every input_side crop as a view, indexed (sample, y, x) -> (C, S, S)
    crops = sliding_window_view(stack, (arch.input_side, arch.input_side), axis=(1, 2))
    center = (side - arch.input_side) // 2
    order_rng = SplitMix64(derive_seed(derive_seed(cfg.seed, 1), start_iteration))
    jitter_rng = SplitMix64(derive_seed(derive_seed(cfg.seed, 2), start_iteration))

    queue: list[int] = []
    history = []
    for i in range(cfg.iterations):
        it = start_iteration + i
        while len(queue) < cfg.batch_size:
            block = list(range(len(samples)))
            order_rng.shuffle(block)
            queue.extend(block)
        batch = queue[: cfg.batch_size]
        del queue[: cfg.batch_size]
        # one (x, y) offset per crop in batch order, drawn as jittered_center_crop draws it
        shift = np.zeros((len(batch), 2), dtype=np.int64)
        if jitter:
            shift[:] = [[jitter_rng.randint(-jitter, jitter) for _ in range(2)] for _ in batch]
        trace = forward(params, _to_input(crops[batch, center + shift[:, 1], center + shift[:, 0]]))
        lp, lo = _mean_losses(trace, labels_all[batch], flags_all[batch])
        history.append((it, cfg.alpha * lp + (1.0 - cfg.alpha) * lo, lp, lo))
        grads = backward(trace, params, labels_all[batch], flags_all[batch], cfg.alpha)
        lr = cfg.learning_rate
        if cfg.lr_decay_every > 0:
            lr *= cfg.lr_decay_factor ** (it // cfg.lr_decay_every)
        try:
            params = sgd_step(params, grads, lr)
        except NonFiniteGradient as e:
            raise NonFiniteGradient(f"iteration {it}: {e}") from e
    return params, history


def preprocess_image(image: Image, arch: ArchSpec) -> Image:
    """Resize to the square resize_side then center-crop to the network
    input side, as evaluation and saliency see an image."""
    resized = resize(image, arch.resize_side, arch.resize_side)
    return jittered_center_crop(resized, arch.input_side, 0)


def _to_input(pixels: np.ndarray) -> np.ndarray:
    """(B, C, S, S) uint8 pixels -> float64 network input in [0, 1]."""
    return pixels.astype(np.float64) / 255.0


def forward_images(params: ModelParams, images):
    """Forward traces of already-preprocessed images, FORWARD_CHUNK at a time."""
    arch = params.arch
    want = (arch.input_side, arch.input_side, arch.in_channels)
    for im in images:
        if im.pixels.shape != want:
            raise ShapeMismatch(f"expected (H, W, C) = {want} input, got {im.pixels.shape}")
    for i in range(0, len(images), FORWARD_CHUNK):
        pixels = np.stack([im.pixels for im in images[i : i + FORWARD_CHUNK]])
        yield forward(params, _to_input(pixels.transpose(0, 3, 1, 2)))


def extract_features(params: ModelParams, images) -> np.ndarray:
    """Trunk outputs h(x), one row of length D per already-preprocessed image."""
    chunks = [trace.feature for trace in forward_images(params, images)]
    return np.concatenate(chunks) if chunks else np.empty((0, params.arch.feature_dim))


def _float32_tensors(params: ModelParams) -> list:
    """(name, float32 array) pairs as a checkpoint stores them.

    Raises NonFiniteParameter when a tensor holds NaN or inf, or a value
    beyond the float32 range that the cast would turn into inf.
    """
    out = []
    for name, arr in params.tensors():
        with np.errstate(over="ignore"):
            narrow = arr.astype("<f4")
        if not np.all(np.isfinite(narrow)):
            raise NonFiniteParameter(
                f"{name} is not finite in float32 (largest |value| {float(np.abs(arr).max())!r})"
            )
        out.append((name, narrow))
    return out


def to_checkpoint_precision(params: ModelParams) -> ModelParams:
    """Round every tensor through float32, exactly as a checkpoint
    save/load does, so in-memory and on-disk paths evaluate identically."""
    return _params_from_dict(
        params.arch, {name: arr.astype(np.float64) for name, arr in _float32_tensors(params)}
    )


def save_checkpoint(params: ModelParams, path) -> None:
    """Little-endian binary: magic, architecture block, class count, then
    raw float32 tensors in declaration order."""
    a = params.arch
    parts = [_MAGIC, struct.pack("<4I", a.input_side, a.resize_side, a.in_channels, len(a.convs))]
    for c in a.convs:
        parts.append(struct.pack("<3I", c.out_channels, c.kernel, c.stride))
    parts.append(struct.pack("<I", params.num_classes))
    parts += [arr.tobytes() for _, arr in _float32_tensors(params)]
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> ModelParams:
    data = Path(path).read_bytes()
    if data[: len(_MAGIC)] != _MAGIC:
        raise UnsupportedFormat(f"{path}: bad magic, not a checkpoint")
    try:
        pos = len(_MAGIC)
        input_side, resize_side, in_channels, n_convs = struct.unpack_from("<4I", data, pos)
        pos += 16
        convs = []
        for _ in range(n_convs):
            convs.append(ConvSpec(*struct.unpack_from("<3I", data, pos)))
            pos += 12
        (num_classes,) = struct.unpack_from("<I", data, pos)
        pos += 4
        arch = ArchSpec(input_side, resize_side, in_channels, tuple(convs))
    except (struct.error, ValueError) as e:
        raise CorruptData(f"{path}: malformed header ({e})") from e
    tensors = {}
    c_in = arch.in_channels
    shapes = []
    for i, spec in enumerate(arch.convs):
        shapes.append((f"conv{i}.w", (spec.out_channels, c_in, spec.kernel, spec.kernel)))
        shapes.append((f"conv{i}.b", (spec.out_channels,)))
        c_in = spec.out_channels
    d = arch.feature_dim
    shapes.extend(
        [("id.w", (num_classes, d)), ("id.b", (num_classes,)), ("obc.w", (2, d)), ("obc.b", (2,))]
    )
    for name, shape in shapes:
        count = int(np.prod(shape))
        if pos + 4 * count > len(data):
            raise CorruptData(f"{path}: truncated tensor {name}")
        tensors[name] = (
            np.frombuffer(data, dtype="<f4", count=count, offset=pos)
            .astype(np.float64)
            .reshape(shape)
        )
        pos += 4 * count
    if pos != len(data):
        raise CorruptData(f"{path}: {len(data) - pos} trailing bytes")
    return _params_from_dict(arch, tensors)
