"""Small trainable convnet with manual backpropagation.

The trunk is a stack of stride-2 3x3 convolutions with ReLU, followed by
global average pooling; its pooled output is the retrieval feature. Two
linear heads sit on top: a K-way identity classifier and a 2-way
occluded/non-occluded classifier. The training objective is the weighted
sum alpha * identity_loss + (1 - alpha) * occlusion_loss, minimized by
plain SGD. Forward, backward and the update are written out by hand on
numpy arrays and compute in the dtype of the parameters: training runs in
float32 from float32-exact initial weights, while evaluation, saliency and
the gradient checks run in float64. Checkpoints store float32, so a trained
model loses nothing when saved.

Inside the trunk every activation is stored channel-major with the batch
innermost, (C, H, W, B), as in cuda-convnet. im2col then copies runs of B
contiguous values, each convolution is one (O, C*k*k) x (C*k*k, oh*ow*B)
GEMM whose output is already the next layer's (O, oh, ow, B) input, the
weight gradient is one GEMM over batch and positions together, and col2im
adds k*k blocks whose inner B axis is contiguous. Batches enter as
(B, C, S, S) and features leave as (B, D); only the trunk uses the layout.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
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
from .fileio import write_atomic
from .imaging import Image, resize
from .rng import SplitMix64, derive_seed

_MAGIC = b"OCREID01"
FORWARD_CHUNK = 16  # images per forward outside training; bounds the activation memory
MAX_SIDE = 256  # largest resize side; bounds the memory a config or checkpoint header can ask for
LR_DECAY_FACTOR = 0.1  # the step schedule's factor, applied every lr_decay_every iterations


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
        if not 1 <= self.input_side <= self.resize_side <= MAX_SIDE:
            raise ValueError(
                f"need 1 <= input_side <= resize_side <= {MAX_SIDE}, "
                f"got {self.input_side}, {self.resize_side}"
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


@dataclass
class TrainConfig:
    """The [train] section: loss weight, SGD settings and network geometry.

    Fields may be set after construction; check() validates them, and
    train calls it before any work.
    """

    alpha: float = 0.8
    learning_rate: float = 1e-3
    batch_size: int = 20
    iterations: int = 2000
    input_side: int = 32
    resize_side: int = 36
    max_jitter: int = -1  # -1 picks the crop margin, (resize_side - input_side) // 2
    conv_channels: tuple = (8, 16, 32)
    kernel: int = 3
    stride: int = 2
    lr_decay_every: int = 0  # 0 disables the step schedule

    def __post_init__(self):
        self.check()

    @property
    def arch(self) -> ArchSpec:
        convs = tuple(ConvSpec(c, self.kernel, self.stride) for c in self.conv_channels)
        return ArchSpec(self.input_side, self.resize_side, 3, convs)

    def check(self) -> None:
        """Raise ValueError naming the first field out of range."""
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        lows = (("batch_size", 1), ("iterations", 0), ("learning_rate", 0), ("lr_decay_every", 0))
        for name, low in lows:
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        margin = self.arch.default_jitter
        if self.max_jitter != -1 and not 0 <= self.max_jitter <= margin:
            raise ValueError(
                f"max_jitter {self.max_jitter} outside [0, {margin}], the crop margin, and not -1"
            )


@dataclass
class ModelParams:
    """All learnable tensors by name, keyed and ordered like _param_shapes,
    all of one float dtype (float32 inside train, float64 everywhere else);
    immutable by convention (updates build a new instance)."""

    arch: ArchSpec
    tensors: dict

    @property
    def num_classes(self) -> int:
        return self.tensors["id.w"].shape[0]


@dataclass
class ForwardTrace:
    """Everything backward and the saliency map need from one forward pass.

    cols[l] is layer l's (C*k*k, oh*ow*B) im2col matrix and preacts[l] its
    (O, oh, ow, B) pre-ReLU map, in the trunk's batch-innermost layout.
    last_maps gives the last layer's post-ReLU map batch-first.
    """

    cols: list
    preacts: list
    feature: np.ndarray
    id_logits: np.ndarray
    obc_logits: np.ndarray

    @property
    def last_maps(self) -> np.ndarray:
        """The last conv layer's activations as a contiguous (B, C, h, w) array."""
        return _batch_major(np.maximum(self.preacts[-1], 0.0))


def _param_shapes(arch: ArchSpec, num_classes: int) -> list:
    """(name, shape) of every tensor in declaration order: the layout of
    ModelParams.tensors, of backward's gradients and of a checkpoint."""
    shapes, c_in = [], arch.in_channels
    for i, spec in enumerate(arch.convs):
        shapes.append((f"conv{i}.w", (spec.out_channels, c_in, spec.kernel, spec.kernel)))
        shapes.append((f"conv{i}.b", (spec.out_channels,)))
        c_in = spec.out_channels
    d = arch.feature_dim
    return shapes + [
        ("id.w", (num_classes, d)), ("id.b", (num_classes,)), ("obc.w", (2, d)), ("obc.b", (2,))
    ]


def _cast(params: ModelParams, dtype) -> ModelParams:
    return ModelParams(params.arch, {name: a.astype(dtype) for name, a in params.tensors.items()})


def init_params(arch: ArchSpec, num_classes: int, seed: int) -> ModelParams:
    """He-style uniform init, bound sqrt(6 / fan_in); biases start at zero.

    Each float64 draw is rounded through float32, so the float64 arrays
    returned cast to float32 and back without change."""
    if num_classes < 2:
        raise ValueError(f"need >= 2 identity classes, got {num_classes}")
    gen = np.random.Generator(np.random.PCG64(seed))
    tensors = {}
    for name, shape in _param_shapes(arch, num_classes):
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / math.prod(shape[1:]))
            tensors[name] = gen.uniform(-bound, bound, shape).astype(np.float32).astype(np.float64)
    return ModelParams(arch, tensors)


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(C, H, W, B) activations -> (C*k*k, oh*ow*B) columns, rows ordered
    (c, i, j) like a flattened weight and columns (y, x, b) like the output."""
    c, h, w, b = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, b), x.dtype)  # zero-bordered copy of the input
    xp[:, pad : pad + h, pad : pad + w] = x
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    sc, sh, sw, sb = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (c, k, k, oh, ow, b), (sc, sh, sw, sh * stride, sw * stride, sb)
    )
    return np.ascontiguousarray(windows).reshape(c * k * k, oh * ow * b), oh, ow


def _col2im(dcols: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add (C*k*k, oh*ow*B) columns back onto
    the (C, H, W, B) input."""
    c, h, w, b = x_shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    dwin = dcols.reshape(c, k, k, oh, ow, b)
    dxp = np.zeros((c, h + 2 * pad, w + 2 * pad, b), dcols.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dwin[:, i, j]
    return dxp[:, pad : pad + h, pad : pad + w] if pad else dxp


def _batch_major(maps: np.ndarray) -> np.ndarray:
    """(C, h, w, B) trunk maps -> a contiguous (B, C, h, w) copy."""
    return np.ascontiguousarray(maps.transpose(3, 0, 1, 2))


def forward(params: ModelParams, batch) -> ForwardTrace:
    """Run the trunk and both heads, retaining per-layer state for backward.

    batch is (B, C, S, S) in [0, 1], cast to the parameters' dtype, which
    every later array keeps.
    """
    t = params.tensors
    x = np.asarray(batch, dtype=t["id.w"].dtype)
    arch = params.arch
    if x.ndim != 4 or x.shape[1] != arch.in_channels or x.shape[2:] != (
        arch.input_side,
        arch.input_side,
    ):
        raise ShapeMismatch(
            f"expected (B, {arch.in_channels}, {arch.input_side}, {arch.input_side}), "
            f"got {x.shape}"
        )
    cols_list, preacts = [], []
    a = x.transpose(1, 2, 3, 0)  # (C, S, S, B): the trunk keeps the batch innermost
    for i, spec in enumerate(arch.convs):
        w, b = t[f"conv{i}.w"], t[f"conv{i}.b"]
        cols, oh, ow = _im2col(a, spec.kernel, spec.stride, spec.kernel // 2)
        z = w.reshape(spec.out_channels, -1) @ cols + b[:, None]
        z = z.reshape(spec.out_channels, oh, ow, x.shape[0])
        cols_list.append(cols)
        preacts.append(z)
        a = np.maximum(z, 0.0)
    feature = _batch_major(a).mean(axis=(2, 3))
    id_logits = feature @ t["id.w"].T + t["id.b"]
    obc_logits = feature @ t["obc.w"].T + t["obc.b"]
    return ForwardTrace(cols_list, preacts, feature, id_logits, obc_logits)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits))


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

    Returns a dict keyed and ordered like params.tensors. With alpha == 1
    the occlusion head gradients are exactly zero, and vice versa at 0.
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

    t = params.tensors
    d_act = g_id @ t["id.w"] + g_obc @ t["obc.w"]  # (B, D)
    last = trace.preacts[-1]  # (D, h, w, B)
    d_act = np.broadcast_to(d_act.T[:, None, None, :] / (last.shape[1] * last.shape[2]), last.shape)
    arch = params.arch
    for layer in reversed(range(len(arch.convs))):
        spec = arch.convs[layer]
        shape = t[f"conv{layer}.w"].shape
        w = t[f"conv{layer}.w"].reshape(spec.out_channels, -1)
        dz = (d_act * (trace.preacts[layer] > 0.0)).reshape(spec.out_channels, -1)
        grads[f"conv{layer}.w"] = (dz @ trace.cols[layer].T).reshape(shape)
        grads[f"conv{layer}.b"] = dz.sum(axis=1)
        if layer > 0:
            d_act = _col2im(
                w.T @ dz, trace.preacts[layer - 1].shape, spec.kernel, spec.stride, spec.kernel // 2
            )
    return {name: grads[name] for name in t}


def sgd_step(params: ModelParams, grads: dict, lr: float) -> ModelParams:
    """p <- p - lr * g for every tensor, in the parameters' dtype; plain
    SGD, no momentum. Raises NonFiniteGradient for a NaN or inf gradient
    and NonFiniteParameter for an update that leaves one in a weight."""
    updated = {}
    for name, arr in params.tensors.items():
        g = grads[name]
        if g.shape != arr.shape:
            raise ShapeMismatch(f"{name}: gradient shape {g.shape} != param shape {arr.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            updated[name] = arr - lr * g
        # lr >= 0 and finite weights: a non-finite gradient always leaves a
        # non-finite update, so the gradient is scanned only to name the fault
        if not np.all(np.isfinite(updated[name])):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"{name} gradient is not finite in {g.dtype}")
            raise NonFiniteParameter(f"{name} is not finite in {arr.dtype} after the update")
    return ModelParams(params.arch, updated)


def train(samples, cfg: TrainConfig, seed: int, occlusions=None):
    """SGD over the sample set with jittered center-crop augmentation.

    Every step runs in float32: the float32-exact initial weights are cast
    down once, and each batch is converted straight to float32. The
    returned params are float64 arrays holding float32 values, so a
    checkpoint of them stores them exactly.

    The resized set is stacked once as an (N, R, R, C) uint8 array; each
    batch gathers its crops from a window view of it in one indexing step
    and is converted to float at once.

    Identity labels are remapped to contiguous 0..K-1 (sorted order) and
    the occlusion flag of each sample supplies the binary target. Batches
    walk repeated uniform shuffles of the set. The initial weights come
    from derive_seed(seed, 0), the shuffle and crop-jitter streams from
    derive_seed(derive_seed(seed, 1 or 2), 0). Returns the final params
    and one (iteration, total, id_loss, obc_loss) row per step, where
    total is multi_task_loss(id_loss, obc_loss, alpha).

    occlusions, when given, maps an epoch number to that epoch's occluded
    set, one sample per input sample. Training then runs in epochs of
    max(1, ceil(2N / batch_size)) iterations over samples + occlusions(e):
    each epoch rewrites only the occluded half of the stack, and at its
    first iteration `it` the shuffle and jitter streams restart from
    derive_seed(derive_seed(seed, 1 or 2), it) with an empty queue.
    """
    cfg.check()
    samples = list(samples)
    if not samples:
        raise ValueError("empty training set")
    arch = cfg.arch
    n = len(samples)
    identities = sorted({s.identity for s in samples})
    label_of = {ident: i for i, ident in enumerate(identities)}
    params = _cast(init_params(arch, len(identities), derive_seed(seed, 0)), np.float32)
    jitter = arch.default_jitter if cfg.max_jitter == -1 else cfg.max_jitter
    side = arch.resize_side
    copies = 1 if occlusions is None else 2  # rows n: hold the occluded half, rewritten per epoch
    stack = np.empty((copies * n, side, side, arch.in_channels), dtype=np.uint8)
    _resize_into(stack, [(s.id, s.image) for s in samples], side)
    labels_all = np.array([label_of[s.identity] for s in samples] * copies)
    flags_all = np.array([s.occlusion.obc_target for s in samples] * copies)
    # every input_side crop as a view, indexed (sample, y, x) -> (C, S, S)
    crops = sliding_window_view(stack, (arch.input_side, arch.input_side), axis=(1, 2))
    center = (side - arch.input_side) // 2
    epoch_len = cfg.iterations if occlusions is None else max(1, math.ceil(2 * n / cfg.batch_size))

    history = []
    for it in range(cfg.iterations):
        if it % epoch_len == 0:  # an epoch starts: fresh occlusions, streams and queue
            if occlusions is not None:
                occluded = list(occlusions(it // epoch_len))
                labels_all[n:] = [label_of[z.identity] for z in occluded]
                flags_all[n:] = [z.occlusion.obc_target for z in occluded]
                _resize_into(stack[n:], [(z.id, z.image) for z in occluded], side)
            order_rng = SplitMix64(derive_seed(derive_seed(seed, 1), it))
            jitter_rng = SplitMix64(derive_seed(derive_seed(seed, 2), it))
            queue: list[int] = []
        while len(queue) < cfg.batch_size:
            block = list(range(len(stack)))
            order_rng.shuffle(block)
            queue.extend(block)
        batch = queue[: cfg.batch_size]
        del queue[: cfg.batch_size]
        # one (x, y) offset per crop in batch order, x drawn before y
        shift = np.zeros((len(batch), 2), dtype=np.int64)
        if jitter:
            shift[:] = [[jitter_rng.randint(-jitter, jitter) for _ in range(2)] for _ in batch]
        pixels = crops[batch, center + shift[:, 1], center + shift[:, 0]]
        # a diverging run overflows here; sgd_step's checks report it
        with np.errstate(over="ignore", invalid="ignore"):
            trace = forward(params, _to_input(pixels, np.float32))
            lp, lo = _mean_losses(trace, labels_all[batch], flags_all[batch])
            grads = backward(trace, params, labels_all[batch], flags_all[batch], cfg.alpha)
        history.append((it, multi_task_loss(lp, lo, cfg.alpha), lp, lo))
        lr = cfg.learning_rate
        if cfg.lr_decay_every > 0:
            lr *= LR_DECAY_FACTOR ** (it // cfg.lr_decay_every)
        try:
            params = sgd_step(params, grads, lr)
        except (NonFiniteGradient, NonFiniteParameter) as e:
            raise type(e)(f"iteration {it}: {e}") from e
    return _cast(params, np.float64), history


def _resize_into(out: np.ndarray, named_images, side: int, crop=slice(None)) -> None:
    """Write each (name, Image), resized to side x side and cut by `crop` on
    both axes, into the next row of the uint8 array out; an image whose
    channel count is not out's raises ShapeMismatch naming it."""
    c = out.shape[-1]
    for i, (name, img) in enumerate(named_images):
        if img.channels != c:
            raise ShapeMismatch(f"{name} has {img.channels} channels, expected {c}")
        out[i] = resize(img, side, side).pixels[crop, crop]


def preprocess_images(images: list, arch: ArchSpec) -> np.ndarray:
    """Resize each image to the square resize_side and take its center
    input_side crop, as evaluation and saliency see images: an
    (N, S, S, C) uint8 array, with C the channel count of the first image."""
    r, s = arch.resize_side, arch.input_side
    lo, c = (r - s) // 2, images[0].channels if images else arch.in_channels
    out = np.empty((len(images), s, s, c), dtype=np.uint8)
    _resize_into(out, [(f"image {i}", img) for i, img in enumerate(images)], r, slice(lo, lo + s))
    return out


def preprocess_image(image: Image, arch: ArchSpec) -> Image:
    """The one-image case of preprocess_images."""
    return Image(preprocess_images([image], arch)[0])


def _to_input(pixels: np.ndarray, dtype) -> np.ndarray:
    """(B, C, S, S) uint8 pixels -> network input in [0, 1], computed in
    dtype; in float32 every value equals the float64 v / 255 rounded to
    float32."""
    return pixels.astype(dtype) / 255


def forward_images(params: ModelParams, images):
    """Forward traces of preprocessed images (the uint8 array of
    preprocess_images or a list of Images), converted FORWARD_CHUNK at a time."""
    arch = params.arch
    want = (arch.input_side, arch.input_side, arch.in_channels)
    dtype = params.tensors["id.w"].dtype
    for i in range(0, len(images), FORWARD_CHUNK):
        pixels = np.asarray(images[i : i + FORWARD_CHUNK])
        if pixels.shape[1:] != want:
            raise ShapeMismatch(f"expected (N, H, W, C) input, (H, W, C) = {want}, got {pixels.shape}")
        yield forward(params, _to_input(pixels.transpose(0, 3, 1, 2), dtype))


def extract_features(params: ModelParams, images) -> np.ndarray:
    """Trunk outputs h(x), one row of length D per preprocessed image."""
    chunks = [trace.feature for trace in forward_images(params, images)]
    return np.concatenate(chunks) if chunks else np.empty((0, params.arch.feature_dim))


def _float32_tensors(params: ModelParams) -> list:
    """(name, float32 array) pairs as a checkpoint stores them, named and
    ordered by _param_shapes whatever the order of params.tensors.

    Raises NonFiniteParameter when a tensor holds NaN or inf, or a value
    beyond the float32 range that the cast would turn into inf.
    """
    out = []
    for name, _ in _param_shapes(params.arch, params.num_classes):
        arr = params.tensors[name]
        with np.errstate(over="ignore"):
            narrow = arr.astype("<f4")
        if not np.all(np.isfinite(narrow)):
            raise NonFiniteParameter(
                f"{name} is not finite in float32 (largest |value| {float(np.abs(arr).max())!r})"
            )
        out.append((name, narrow))
    return out


def save_checkpoint(params: ModelParams, path) -> None:
    """Little-endian binary: magic, architecture block, class count, then
    raw float32 tensors in declaration order."""
    a = params.arch
    parts = [_MAGIC, struct.pack("<4I", a.input_side, a.resize_side, a.in_channels, len(a.convs))]
    for c in a.convs:
        parts.append(struct.pack("<3I", c.out_channels, c.kernel, c.stride))
    parts.append(struct.pack("<I", params.num_classes))
    parts += [arr.tobytes() for _, arr in _float32_tensors(params)]
    write_atomic(path, b"".join(parts))


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
    for name, shape in _param_shapes(arch, num_classes):
        count = math.prod(shape)  # Python ints: a corrupt header must not wrap around
        if pos + 4 * count > len(data):
            raise CorruptData(f"{path}: truncated tensor {name}")
        narrow = np.frombuffer(data, dtype="<f4", count=count, offset=pos)
        if not np.all(np.isfinite(narrow)):
            raise CorruptData(f"{path}: tensor {name} holds NaN or inf")
        tensors[name] = narrow.astype(np.float64).reshape(shape)
        pos += 4 * count
    if pos != len(data):
        raise CorruptData(f"{path}: {len(data) - pos} trailing bytes")
    return ModelParams(arch, tensors)
