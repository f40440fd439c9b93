"""Experiment configuration: a flat INI-style file with sections.

Every hyperparameter has a default; reference-protocol values (learning
rate 1e-3, batch size 20, alpha 0.8, half split, 10 trials) are the
defaults where they make sense at desk scale, and the desk-scale
overrides used by the bundled experiments live in the same file format.
Unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import dataclasses
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InfeasibleGeometry
from .fileio import write_atomic
from .model import ArchSpec, ConvSpec, TrainConfig
from .occsim import OcclusionConfig, check_patch_fits, check_target_fits


@dataclass
class DatasetSection:
    root: str = ""  # empty -> synthetic dataset
    identities: int = 20
    per_identity: int = 10
    image_width: int = 32
    image_height: int = 64
    split_fraction: float = 0.5


@dataclass
class OcclusionSection:
    patch_side: int = 0  # 0 -> image_height // 4
    ratio_lo: float = 0.1
    ratio_hi: float = 0.3
    aspect_lo: float = 0.5
    aspect_hi: float = 2.0
    background_band: float = 0.25
    regenerate_per_epoch: bool = False
    # synthetic eval probes may crop their occluders from another band
    # (real occluders differ from training-time artificial ones); a
    # negative value inherits background_band
    probe_band: float = -1.0


@dataclass
class TrainSection:
    alpha: float = 0.8
    learning_rate: float = 1e-3
    batch_size: int = 20
    iterations: int = 2000
    input_side: int = 32
    resize_side: int = 36
    max_jitter: int = -1  # -1 -> (resize_side - input_side) // 2
    conv_channels: tuple = (8, 16, 32)
    kernel: int = 3
    stride: int = 2
    lr_decay_every: int = 0


@dataclass
class EvalSection:
    shots: tuple = (1, 2, 5)
    trials: int = 10


@dataclass
class RunSection:
    seed: int = 7
    out: str = "out"
    use_os: bool = True
    use_obc: bool = True


@dataclass
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    occlusion: OcclusionSection = field(default_factory=OcclusionSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)
    run: RunSection = field(default_factory=RunSection)


_SECTIONS = {
    "dataset": DatasetSection,
    "occlusion": OcclusionSection,
    "train": TrainSection,
    "eval": EvalSection,
    "run": RunSection,
}


def _parse_value(raw: str, template):
    kind = type(template)
    raw = raw.strip()
    if kind is bool:
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind is tuple:
        if not raw:
            raise ValueError("expected one or more comma-separated integers")
        return tuple(int(v.strip()) for v in raw.split(","))
    return raw


def load_config(path) -> ExperimentConfig:
    """Parse an INI file into an ExperimentConfig, validating every key."""
    # values are literal (a '%' is a '%'); no header can name the empty
    # section, so a [DEFAULT] section is read as an unknown section instead
    # of as defaults for every other section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ValueError(f"{path}: {e}") from e
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"{path}: unknown section [{section}]")
        target = getattr(cfg, section)
        fields = {f.name: f for f in dataclasses.fields(target)}
        for key, raw in parser.items(section):
            if key not in fields:
                raise ValueError(f"{path}: unknown key '{key}' in [{section}]")
            try:
                setattr(target, key, _parse_value(raw, getattr(target, key)))
            except ValueError as e:
                raise ValueError(f"{path}: [{section}] {key}: {e}") from e
    try:
        _validate(cfg)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Build everything a run derives from the config, so a bad value
    fails here, before any work; errors name the section and key."""
    ds, ev = cfg.dataset, cfg.eval
    if not 0.0 < ds.split_fraction < 1.0:
        raise ValueError(f"[dataset] split_fraction: must be in (0, 1), got {ds.split_fraction}")
    if not ds.root and min(ds.identities, ds.per_identity) < 2:
        raise ValueError(
            "[dataset] identities and per_identity: synthetic data needs 2 or more of each, "
            f"got {ds.identities} and {ds.per_identity}"
        )
    if not ds.root and ds.image_width < 3:
        raise ValueError(f"[dataset] image_width: synthetic images need 3 or more, got {ds.image_width}")
    if min(ev.shots) < 1:
        raise ValueError(f"[eval] shots: need counts >= 1, got {ev.shots}")
    if not ds.root and max(ev.shots) > ds.per_identity:
        raise ValueError(f"[eval] shots: {ev.shots} above the synthetic per_identity {ds.per_identity}")
    if ev.trials < 1:
        raise ValueError(f"[eval] trials: must be >= 1, got {ev.trials}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an alpha of 0 or 1 warns when training starts
            train_config(cfg, 0, cfg.train.alpha)
    except ValueError as e:
        raise ValueError(f"[train] {e}") from e
    for name, build in (("", occlusion_config), ("probe_band: ", probe_occlusion_config)):
        try:
            occ = build(cfg, 0)
            if not ds.root:  # the synthetic image size is known now
                check_target_fits(occ, ds.image_width, ds.image_height)
                check_patch_fits(occ, ds.image_width, ds.image_height)
        except (ValueError, InfeasibleGeometry) as e:
            raise ValueError(f"[occlusion] {name}{e}") from e


def arch_spec(cfg: ExperimentConfig) -> ArchSpec:
    t = cfg.train
    return ArchSpec(
        input_side=t.input_side,
        resize_side=t.resize_side,
        in_channels=3,
        convs=tuple(ConvSpec(c, t.kernel, t.stride) for c in t.conv_channels),
    )


def train_config(cfg: ExperimentConfig, seed: int, alpha: float) -> TrainConfig:
    t = cfg.train
    return TrainConfig(
        alpha=alpha,
        learning_rate=t.learning_rate,
        batch_size=t.batch_size,
        iterations=t.iterations,
        seed=seed,
        arch=arch_spec(cfg),
        max_jitter=None if t.max_jitter < 0 else t.max_jitter,
        lr_decay_every=t.lr_decay_every,
    )


def occlusion_config(cfg: ExperimentConfig, seed: int) -> OcclusionConfig:
    """The training-time simulator's settings; patch_side 0 means a quarter
    of the image height."""
    occ = cfg.occlusion
    side = occ.patch_side if occ.patch_side > 0 else max(1, cfg.dataset.image_height // 4)
    return OcclusionConfig(
        patch_side=side,
        ratio_lo=occ.ratio_lo,
        ratio_hi=occ.ratio_hi,
        aspect_lo=occ.aspect_lo,
        aspect_hi=occ.aspect_hi,
        background_band=occ.background_band,
        seed=seed,
    )


def probe_occlusion_config(cfg: ExperimentConfig, seed: int) -> OcclusionConfig:
    """Settings for synthetic eval probes: the training-time ones, with
    probe_band as the background band unless it is negative."""
    base = occlusion_config(cfg, seed)
    band = cfg.occlusion.probe_band
    return dataclasses.replace(base, background_band=band if band >= 0 else base.background_band)


def render_config(cfg: ExperimentConfig) -> str:
    """Deterministic INI text of a fully resolved config."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        target = getattr(cfg, section)
        for f in dataclasses.fields(target):
            value = getattr(target, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        lines.append("")
    return "\n".join(lines)


def write_resolved(cfg: ExperimentConfig, out_dir) -> None:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    write_atomic(Path(out_dir) / "config.resolved.ini", render_config(cfg).encode("utf-8"))
