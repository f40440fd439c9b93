"""Occlusion-aware person re-identification at desk scale.

From-scratch building blocks: an occlusion simulator that manufactures
occluded training images by pasting resized background patches over
full-body images, a small convnet trained with joint identity and
occluded/non-occluded losses via manual backpropagation, a CMC retrieval
evaluation harness, and saliency maps with a detection-precision metric.
"""

from .dataset import (
    Occlusion,
    PersonSample,
    ProbeGallery,
    Split,
    generate_synthetic_dataset,
    make_probe_gallery,
    scan_dataset,
    split_identities,
)
from .evaluate import EvalReport, cmc_curve, evaluate
from .imaging import (
    Image,
    Rect,
    jittered_center_crop,
    load_image,
    resize,
    save_image,
)
from .model import (
    ArchSpec,
    ConvSpec,
    ModelParams,
    TrainConfig,
    backward,
    extract_features,
    forward,
    init_params,
    load_checkpoint,
    multi_task_loss,
    preprocess_image,
    preprocess_images,
    save_checkpoint,
    sgd_step,
    train,
)
from .occsim import (
    OcclusionConfig,
    OcclusionRecord,
    build_occlusion_set,
    sample_occluded_rect,
    simulate_occlusion,
)
from .rng import SplitMix64, derive_seed
from .saliency import SaliencyMap, binarize, detection_precision, saliency_maps

__version__ = "0.1.0"
